//! FairKM configuration and error types.

use fairkm_data::{DataError, Normalization};
use std::fmt;

/// The fairness weight λ of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lambda {
    /// The paper's heuristic `λ = (|X|/k)²` (§5.4), which balances the
    /// per-object K-Means term against the cluster-level fairness term.
    /// This resolves to 10⁶ at Adult scale and 10³ at Kinematics scale,
    /// exactly as the paper sets them.
    Heuristic,
    /// An explicit value.
    Fixed(f64),
}

impl Lambda {
    /// Resolve against a dataset size and cluster count.
    pub fn resolve(self, n: usize, k: usize) -> f64 {
        match self {
            Lambda::Heuristic => {
                let ratio = n as f64 / k.max(1) as f64;
                ratio * ratio
            }
            Lambda::Fixed(v) => v,
        }
    }
}

/// How the change in the K-Means term of a candidate move is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaEngine {
    /// Closed-form Hartigan–Wong deltas:
    /// `δ_in = |C|/(|C|+1)·‖x−μ_C‖²`, `δ_out = −|C′|/(|C′|−1)·‖x−μ_C′‖²`.
    /// O(|N|) per candidate cluster. Algebraically identical to
    /// [`DeltaEngine::Literal`]; property-tested to match it.
    #[default]
    Incremental,
    /// The paper's literal Eqs. 12/14: re-sum both affected clusters' SSE
    /// around the moved centroids. O(|X|·|N|) per move — this is where the
    /// paper's quadratic complexity (§4.3.1) comes from; kept for fidelity
    /// and as the ablation baseline.
    Literal,
}

/// When cluster prototypes and fractional representations are refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateSchedule {
    /// After every accepted move (Algorithm 1, steps 6–7).
    #[default]
    PerMove,
    /// Once per scan window of `batch` objects — the §6.1 future-work
    /// mini-batch approximation, and the schedule the parallel execution
    /// engine accelerates. Every object in a window is scored against the
    /// aggregates and scoring cache frozen at the window start (making the
    /// scores independent and evaluated in parallel across threads);
    /// accepted moves are applied as O(dim + Σ|Values(S)|) delta updates
    /// in index order, only the two clusters each move touches have their
    /// cache entries refreshed, and the post-window objective is assembled
    /// from cached per-cluster contributions in O(k) — no full rebuild and
    /// no full-objective recomputation in any window (one drift-cancelling
    /// rebuild runs per pass, like the per-move schedule). Windows that
    /// fail to lower the objective are discarded and re-scanned with exact
    /// per-move descent from the window-start aggregates (monotone window
    /// acceptance), so the objective trace never increases. Results are
    /// bitwise-identical for any thread count.
    MiniBatch(usize),
}

/// How a categorical attribute's per-value deviations are normalized
/// inside the fairness term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessNorm {
    /// The paper's Eq. 4: every value weighs `1/|Values(S)|`.
    #[default]
    DomainCardinality,
    /// Skew-aware weighting (the paper's §6.1 second future-work
    /// direction: "ensure good performance even on attributes with highly
    /// skewed distributions"). Each value `s` weighs proportionally to
    /// `1 / (Fr_X(s)·(1 − Fr_X(s)) + 1/|X|)` — the inverse Bernoulli
    /// variance of its indicator — normalized so the weights sum to 1.
    /// A ±δ deviation on a 1%-share value is then treated as seriously as
    /// a ±δ·√(scale) deviation on a 50%-share value, instead of being
    /// drowned by the dominant value (cf. the paper's race attribute,
    /// where 87% of objects share one value).
    SkewAware,
}

/// Which fairness objective the optimizer descends on. Every kind runs
/// through the same cached engine (per-cluster cached contributions,
/// O(dim + t) move/insert/remove deltas, O(k) assembly) and is
/// bitwise-deterministic across thread counts; they differ only in what a
/// cluster's contribution measures.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ObjectiveKind {
    /// The paper's Eq. 7 representativity deviation (+ Eq. 22 numeric
    /// terms): squared distance between each cluster's group shares and
    /// the dataset shares.
    #[default]
    Representativity,
    /// Bounded-representation penalty (Bera et al. 2019, softened):
    /// a group's cluster share is free inside
    /// `[lower·Fr_X(s), upper·Fr_X(s)]` and pays its squared hinge
    /// distance to the nearest bound outside it. The multipliers must
    /// satisfy `0 ≤ lower ≤ 1 ≤ upper`. Numeric sensitive attributes keep
    /// their Eq. 22 mean-parity form.
    BoundedRepresentation {
        /// Lower share multiplier (`β` in Bera et al.), in `[0, 1]`.
        lower: f64,
        /// Upper share multiplier (`α` in Bera et al.), ≥ 1.
        upper: f64,
    },
    /// Multiple-groups utilitarian welfare: mean squared share deviation
    /// over the pool of (attribute, value) groups — every group counts
    /// equally, regardless of its attribute's cardinality.
    Utilitarian,
    /// Multiple-groups egalitarian welfare: each cluster is charged only
    /// its single worst group deviation, so the optimizer chases the
    /// worst-represented group first.
    Egalitarian,
}

impl ObjectiveKind {
    /// The default `(lower, upper)` share multipliers for
    /// [`ObjectiveKind::BoundedRepresentation`]: each group may range
    /// between 80% and 125% of its dataset share before paying a penalty.
    pub const DEFAULT_BOUNDS: (f64, f64) = (0.8, 1.25);

    /// Bounded representation with [`Self::DEFAULT_BOUNDS`].
    pub fn bounded() -> Self {
        let (lower, upper) = Self::DEFAULT_BOUNDS;
        ObjectiveKind::BoundedRepresentation { lower, upper }
    }

    /// Validate the kind's parameters (fit-time check).
    pub(crate) fn validate(&self) -> Result<(), FairKmError> {
        if let ObjectiveKind::BoundedRepresentation { lower, upper } = *self {
            let ok = lower.is_finite()
                && upper.is_finite()
                && (0.0..=1.0).contains(&lower)
                && upper >= 1.0;
            if !ok {
                return Err(FairKmError::InvalidObjectiveBounds { lower, upper });
            }
        }
        Ok(())
    }
}

/// Initial clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairKmInit {
    /// Uniformly random cluster per object — Algorithm 1 step 1.
    #[default]
    RandomAssignment,
    /// Sample k distinct objects as seeds and assign every object to the
    /// nearest seed. A gentler start that usually converges in fewer
    /// iterations.
    NearestSeeds,
}

/// Configuration for [`crate::FairKm`].
///
/// Built with [`FairKmConfig::new`] plus builder-style `with_*` overrides;
/// the defaults reproduce the paper's setup (heuristic λ, 30 round-robin
/// iterations, per-move updates, z-scored task matrix).
///
/// ```
/// use fairkm_core::{FairKmConfig, Lambda, UpdateSchedule};
///
/// let cfg = FairKmConfig::new(5)
///     .with_seed(7)
///     .with_lambda(Lambda::Fixed(1_000.0))
///     .with_schedule(UpdateSchedule::MiniBatch(512))
///     .with_threads(4)
///     .with_attr_weight("gender", 2.0);
/// assert_eq!(cfg.k, 5);
/// assert_eq!(cfg.threads, Some(4));
/// ```
#[derive(Debug, Clone)]
pub struct FairKmConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Fairness weight (default: the paper's heuristic).
    pub lambda: Lambda,
    /// Maximum round-robin iterations (paper: 30).
    pub max_iters: usize,
    /// Initialization.
    pub init: FairKmInit,
    /// Delta computation engine.
    pub delta_engine: DeltaEngine,
    /// Prototype/fraction update schedule.
    pub schedule: UpdateSchedule,
    /// Per-attribute fairness weights `w_S` (Eq. 23), resolved by attribute
    /// name at fit time; attributes not listed get weight 1.
    pub attr_weights: Vec<(String, f64)>,
    /// Per-value normalization inside the deviation term.
    pub fairness_norm: FairnessNorm,
    /// Fairness objective the optimizer descends on (default: the paper's
    /// Eq. 7 representativity).
    pub objective: ObjectiveKind,
    /// Normalization applied when fitting from a [`fairkm_data::Dataset`]
    /// (ignored by [`crate::FairKm::fit_views`]).
    pub normalization: Normalization,
    /// Seed for initialization.
    pub seed: u64,
    /// Worker threads for the parallel execution engine. `None` defers to
    /// the `FAIRKM_THREADS` environment variable and then to the machine's
    /// available parallelism (see [`fairkm_parallel::resolve_threads`]).
    /// Results are bitwise-identical for any value — threads change
    /// wall-clock time, never the clustering.
    pub threads: Option<usize>,
}

impl FairKmConfig {
    /// Defaults: heuristic λ, 30 iterations, random-assignment init,
    /// incremental deltas, per-move updates, z-scored task matrix.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            lambda: Lambda::Heuristic,
            max_iters: 30,
            init: FairKmInit::default(),
            delta_engine: DeltaEngine::default(),
            schedule: UpdateSchedule::default(),
            attr_weights: Vec::new(),
            fairness_norm: FairnessNorm::default(),
            objective: ObjectiveKind::default(),
            normalization: Normalization::ZScore,
            seed: 0,
            threads: None,
        }
    }

    /// Builder-style worker-thread override. Clamped to ≥ 1 at fit time;
    /// use [`FairKmConfig::with_auto_threads`] to return to auto-detection.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builder-style reset to automatic thread detection (environment
    /// variable, then available parallelism).
    pub fn with_auto_threads(mut self) -> Self {
        self.threads = None;
        self
    }

    /// Builder-style fairness-normalization override.
    pub fn with_fairness_norm(mut self, norm: FairnessNorm) -> Self {
        self.fairness_norm = norm;
        self
    }

    /// Builder-style fairness-objective override.
    pub fn with_objective(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
        self
    }

    /// Builder-style λ override.
    pub fn with_lambda(mut self, lambda: Lambda) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style init override.
    pub fn with_init(mut self, init: FairKmInit) -> Self {
        self.init = init;
        self
    }

    /// Builder-style delta-engine override.
    pub fn with_delta_engine(mut self, engine: DeltaEngine) -> Self {
        self.delta_engine = engine;
        self
    }

    /// Builder-style schedule override.
    pub fn with_schedule(mut self, schedule: UpdateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Builder-style iteration cap override.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style normalization override. The λ heuristic assumes the
    /// K-Means term is on the natural scale of the data; pick
    /// [`Normalization::None`] for spaces that are already homogeneous
    /// (e.g. document embeddings) and [`Normalization::ZScore`] for
    /// heterogeneous attribute tables.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Add (or override) a per-attribute fairness weight (Eq. 23).
    pub fn with_attr_weight(mut self, name: &str, weight: f64) -> Self {
        if let Some(entry) = self.attr_weights.iter_mut().find(|(n, _)| n == name) {
            entry.1 = weight;
        } else {
            self.attr_weights.push((name.to_string(), weight));
        }
        self
    }
}

/// Errors raised by FairKM.
#[derive(Debug, Clone, PartialEq)]
pub enum FairKmError {
    /// `k` was zero or exceeded the number of points.
    InvalidK {
        /// Requested cluster count.
        k: usize,
        /// Number of points available.
        n: usize,
    },
    /// The input has no rows.
    EmptyInput,
    /// A weight referenced an attribute absent from the sensitive space.
    UnknownWeightAttribute(String),
    /// A weight was negative or non-finite.
    InvalidWeight {
        /// Attribute whose weight is invalid.
        attribute: String,
        /// The offending weight.
        weight: f64,
    },
    /// λ was negative or non-finite.
    InvalidLambda(f64),
    /// A mini-batch schedule was configured with batch size 0.
    ZeroBatch,
    /// A streaming operation referenced a backing-store slot that is not
    /// live (never ingested, already evicted, or listed twice in one evict
    /// batch).
    StaleSlot(usize),
    /// The matrix and sensitive space disagree on the number of rows.
    RowMismatch {
        /// Rows in the task matrix.
        matrix: usize,
        /// Rows in the sensitive space.
        space: usize,
    },
    /// The bounded-representation share multipliers were out of range
    /// (require finite `0 ≤ lower ≤ 1 ≤ upper`).
    InvalidObjectiveBounds {
        /// Offending lower multiplier.
        lower: f64,
        /// Offending upper multiplier.
        upper: f64,
    },
    /// No assignment satisfies the requested per-(cluster, group) count
    /// bounds ([`crate::bounded_exact_assignment`]).
    InfeasibleBounds {
        /// Units of mandatory flow that could not be routed.
        unroutable: i64,
    },
    /// A row's encoded task vector has a squared norm `‖x‖²` that is not
    /// finite: its cells are finite, but too large to square and sum.
    NormOverflow,
    /// Propagated dataset error (view construction).
    Data(DataError),
}

impl fmt::Display for FairKmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairKmError::InvalidK { k, n } => write!(f, "k = {k} is invalid for {n} points"),
            FairKmError::EmptyInput => write!(f, "input has no rows"),
            FairKmError::UnknownWeightAttribute(name) => {
                write!(f, "weight references unknown sensitive attribute `{name}`")
            }
            FairKmError::InvalidWeight { attribute, weight } => {
                write!(f, "invalid weight {weight} for attribute `{attribute}`")
            }
            FairKmError::InvalidLambda(l) => write!(f, "invalid lambda {l}"),
            FairKmError::ZeroBatch => write!(f, "mini-batch size must be positive"),
            FairKmError::StaleSlot(slot) => write!(
                f,
                "slot {slot} is not live (never ingested, already evicted, or duplicated)"
            ),
            FairKmError::RowMismatch { matrix, space } => write!(
                f,
                "task matrix has {matrix} rows but the sensitive space covers {space}"
            ),
            FairKmError::InvalidObjectiveBounds { lower, upper } => write!(
                f,
                "invalid bounded-representation multipliers lower = {lower}, upper = {upper} \
                 (need finite 0 <= lower <= 1 <= upper)"
            ),
            FairKmError::InfeasibleBounds { unroutable } => write!(
                f,
                "representation bounds are infeasible ({unroutable} units unroutable)"
            ),
            FairKmError::NormOverflow => {
                write!(f, "the row's encoded squared norm overflows a 64-bit float")
            }
            FairKmError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for FairKmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FairKmError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for FairKmError {
    fn from(e: DataError) -> Self {
        FairKmError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_lambda_matches_paper_values() {
        // Adult: |X| ≈ 15682, k = 5 → λ ≈ (3136)² ≈ 9.8e6 ~ 10⁶–10⁷;
        // the paper rounds to 10⁶. Kinematics: 161/5 = 32.2 → ≈ 10³.
        let adult = Lambda::Heuristic.resolve(15_682, 5);
        assert!(adult > 1e6 && adult < 1e7);
        let kin = Lambda::Heuristic.resolve(161, 5);
        assert!((kin - 1036.84).abs() < 1.0);
    }

    #[test]
    fn fixed_lambda_passes_through() {
        assert_eq!(Lambda::Fixed(42.0).resolve(1000, 10), 42.0);
    }

    #[test]
    fn builder_weight_overrides() {
        let cfg = FairKmConfig::new(3)
            .with_attr_weight("race", 2.0)
            .with_attr_weight("race", 5.0)
            .with_attr_weight("gender", 1.5);
        assert_eq!(
            cfg.attr_weights,
            vec![("race".to_string(), 5.0), ("gender".to_string(), 1.5)]
        );
    }
}
