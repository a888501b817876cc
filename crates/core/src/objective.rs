//! Pluggable fairness objectives: the cached-engine contract that
//! [`ClusterModel`](crate::ClusterModel) optimizes against, extracted
//! behind the [`FairnessObjective`] trait.
//!
//! The contract has four parts, mirroring what the scoring cache needs:
//!
//! * **contribution** — [`FairnessObjective::contrib_adjusted`] evaluates
//!   one cluster's summand of the fairness term from the running
//!   aggregates in O(dim + Σ_S |Values(S)|), optionally as if a point were
//!   added/removed (the Eqs. 16–18 move deltas fall out of two such
//!   calls);
//! * **insertion delta** — [`FairnessObjective::insertion_contrib`] plus
//!   [`FairnessObjective::insertion_rescale`] give the exact objective
//!   change of admitting an external point (`|X| → |X|+1` re-weights every
//!   cluster, which the rescale factor applies to the cached
//!   contributions);
//! * **dirty-set semantics** — [`FairnessObjective::dirties_all_on_move`]
//!   / [`FairnessObjective::dirties_all_on_live_change`] declare which
//!   cached contributions a mutation invalidates. Every shipped objective
//!   weights clusters by `(|C|/|X|)²`, so moves touch two clusters but
//!   insert/remove invalidates all of them;
//! * **assembly** — [`FairnessObjective::assemble`] folds the per-cluster
//!   cached contributions into the fairness term in O(k). All shipped
//!   objectives are additive across clusters, which is what lets the
//!   windowed optimizer and the streaming driver reuse one cache protocol.
//!
//! An objective whose contribution is `(|C|/|X|)²` times a sum of one term
//! per categorical attribute plus the Eq. 22 numeric terms also declares
//! [`FairnessObjective::tabulates`] and hands those terms out through
//! [`FairnessObjective::cat_term`]: the model then keeps them per cluster,
//! attribute and value, and scores a move with one lookup per attribute.
//!
//! Dispatch is through the [`Objective`] enum: each variant holds a
//! concrete objective and every call site is an `#[inline]` match whose
//! arms are monomorphized trait-impl calls — no `dyn` indirection in the
//! hot loop, and the Eq. 7 arithmetic is byte-for-byte the pre-trait code,
//! so default-objective results are bitwise-identical to the hard-wired
//! engine (the golden-trace corpus pins this).

use crate::config::{FairKmError, ObjectiveKind};
use crate::state::{CatAttr, NumAttr};
use fairkm_flow::{BoundedFlowError, BoundedMinCostFlow};

/// Borrowed view of the running aggregates an objective evaluates against:
/// everything [`crate::ClusterModel`] delta-maintains, minus the task
/// sums (objectives see sensitive aggregates only).
pub(crate) struct FairView<'s> {
    /// Per-cluster member counts `|C|`.
    pub size: &'s [usize],
    /// Live point count `|X|` (assigned slots only).
    pub live: usize,
    /// Categorical sensitive attributes (frozen reference distributions).
    pub cat: &'s [CatAttr],
    /// Per categorical attribute: flat k×t member counts.
    pub cat_counts: &'s [Vec<i64>],
    /// Numeric sensitive attributes (frozen reference means).
    pub num: &'s [NumAttr],
    /// Per numeric attribute: per-cluster value sums.
    pub num_sums: &'s [Vec<f64>],
}

/// The adjusted point of [`FairnessObjective::contrib_adjusted`]. The
/// model stores no per-point columns, so a point's sensitive values always
/// travel inline: a slot's row slices on the single-node engine, the row
/// inside a protocol message on a shard replica.
#[derive(Clone, Copy)]
pub(crate) enum PointRef<'p> {
    /// No adjusted point (`delta = 0`): the unadjusted cached contribution.
    None,
    /// Inline sensitive values, indexed by attribute position.
    Row(&'p [u32], &'p [f64]),
}

impl PointRef<'_> {
    /// Categorical value of attribute `a` for the adjusted point.
    #[inline]
    fn cat(self, a: usize) -> u32 {
        match self {
            PointRef::None => unreachable!("PointRef::None consulted with nonzero delta"),
            PointRef::Row(cat_vals, _) => cat_vals[a],
        }
    }

    /// Numeric value of attribute `a` for the adjusted point.
    #[inline]
    fn num(self, a: usize) -> f64 {
        match self {
            PointRef::None => unreachable!("PointRef::None consulted with nonzero delta"),
            PointRef::Row(_, num_vals) => num_vals[a],
        }
    }
}

/// The cached-engine contract a fairness objective must satisfy (module
/// docs explain the four parts). Implementations must be pure functions of
/// the view — the engine caches their outputs and replays them under the
/// dirty-set rules the objective itself declares.
pub(crate) trait FairnessObjective {
    /// Cluster `c`'s fairness contribution, evaluated as if point `p` were
    /// added to (`delta = +1`) or removed from (`delta = -1`) the cluster.
    /// `p = PointRef::None, delta = 0` gives the unadjusted contribution
    /// (the value the engine caches per cluster).
    fn contrib_adjusted(&self, v: &FairView<'_>, c: usize, p: PointRef<'_>, delta: i64) -> f64;

    /// Cluster `c`'s contribution as if an external point with the given
    /// sensitive values joined it, with `|X| + 1` live points.
    fn insertion_contrib(
        &self,
        v: &FairView<'_>,
        c: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
    ) -> f64;

    /// Factor by which an untouched cluster's cached contribution changes
    /// when the live count grows by one. Exact for every objective whose
    /// contribution is `(|C|/|X|)² · dev(aggregates)` with `dev`
    /// independent of `|X|` — which is all of the shipped ones.
    #[inline]
    fn insertion_rescale(&self, live: f64) -> f64 {
        let r = live / (live + 1.0);
        r * r
    }

    /// Fold the per-cluster cached contributions into the fairness term.
    /// O(k); the default is the additive assembly every shipped objective
    /// uses.
    #[inline]
    fn assemble(&self, contribs: &[f64]) -> f64 {
        contribs.iter().sum()
    }

    /// Whether a move (`live` unchanged) invalidates every cluster's
    /// cached contribution, rather than only the two touched ones.
    #[inline]
    fn dirties_all_on_move(&self) -> bool {
        false
    }

    /// Whether an insert/remove (`live` changes) invalidates every
    /// cluster's cached contribution. True for all shipped objectives:
    /// `|X|` enters every cluster's `(|C|/|X|)²` weight.
    #[inline]
    fn dirties_all_on_live_change(&self) -> bool {
        true
    }

    /// Whether [`Self::contrib_adjusted`] is, bit for bit, `(new/|X|)²`
    /// (`new = |C| + delta`, 0 for an empty cluster) times a sum taken in
    /// attribute order of one [`Self::cat_term`] per positively weighted
    /// categorical attribute, then `w_S (C.S̄ − X̄.S)²` per positively
    /// weighted numeric one, with the adjusted point's value folded in as
    /// `sum + delta · value` and divided through `1.0 / new`. The model
    /// tabulates the terms of such an objective.
    #[inline]
    fn tabulates(&self) -> bool {
        false
    }

    /// Categorical attribute `a`'s term of cluster `c`'s deviation as if
    /// one point with value `value` joined (`delta = +1`) or left
    /// (`delta = -1`) a cluster that stays non-empty: exactly the summand
    /// [`Self::contrib_adjusted`] adds for the attribute. Called only when
    /// [`Self::tabulates`].
    fn cat_term(&self, _v: &FairView<'_>, _c: usize, _a: usize, _value: usize, _delta: i64) -> f64 {
        unreachable!("cat_term of an objective that does not tabulate")
    }
}

/// Eq. 7 representativity (+ Eq. 22 numeric terms, Eq. 23 weights): per
/// cluster `(|C|/|X|)² · [Σ_S w_S Σ_s scale_s (Fr_C(s) − Fr_X(s))² +
/// Σ_S w_S (C.S̄ − X̄.S)²]`. The paper's objective and the engine
/// default; the arithmetic below is the pre-trait engine code, moved
/// verbatim so results stay bitwise-identical.
#[derive(Clone, Debug)]
pub(crate) struct Representativity;

impl Representativity {
    /// One attribute's Eq. 7 term `w_S Σ_s scale_s (count_s/|C| − Fr_X(s))²`
    /// over cluster `counts`, with value `moved`'s count shifted by `delta`.
    #[inline]
    fn attr_term(attr: &CatAttr, counts: &[i64], inv_size: f64, moved: usize, delta: i64) -> f64 {
        let mut attr_dev = 0.0;
        for (s, &count) in counts.iter().enumerate() {
            let count = if s == moved { count + delta } else { count };
            let diff = count as f64 * inv_size - attr.dist[s];
            attr_dev += attr.value_scale[s] * diff * diff;
        }
        attr.weight * attr_dev
    }
}

impl FairnessObjective for Representativity {
    fn contrib_adjusted(&self, v: &FairView<'_>, c: usize, p: PointRef<'_>, delta: i64) -> f64 {
        let new_size = (v.size[c] as i64 + delta) as f64;
        if new_size <= 0.0 {
            return 0.0; // Eq. 3: empty clusters contribute nothing
        }
        let inv_size = 1.0 / new_size;
        // |X| is the live point count — identical to `n` for batch fits,
        // smaller when streaming has evicted slots.
        let frac = new_size / v.live as f64;
        let cluster_weight = frac * frac;

        let mut dev = 0.0;
        for (a, (attr, counts)) in v.cat.iter().zip(v.cat_counts).enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            let moved = if delta != 0 {
                p.cat(a) as usize
            } else {
                usize::MAX
            };
            let counts = &counts[c * attr.t..(c + 1) * attr.t];
            dev += Self::attr_term(attr, counts, inv_size, moved, delta);
        }
        for (a, (attr, sums)) in v.num.iter().zip(v.num_sums).enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            let mut sum = sums[c];
            if delta != 0 {
                sum += delta as f64 * p.num(a);
            }
            let diff = sum * inv_size - attr.mean;
            dev += attr.weight * diff * diff;
        }
        cluster_weight * dev
    }

    fn insertion_contrib(
        &self,
        v: &FairView<'_>,
        c: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
    ) -> f64 {
        let new_size = v.size[c] as f64 + 1.0;
        let inv_size = 1.0 / new_size;
        let frac = new_size / (v.live as f64 + 1.0);
        let cluster_weight = frac * frac;

        let mut dev = 0.0;
        for ((attr, counts), &added) in v.cat.iter().zip(v.cat_counts).zip(cat_vals) {
            if attr.weight == 0.0 {
                continue;
            }
            let counts = &counts[c * attr.t..(c + 1) * attr.t];
            dev += Self::attr_term(attr, counts, inv_size, added as usize, 1);
        }
        for ((attr, sums), &value) in v.num.iter().zip(v.num_sums).zip(num_vals) {
            if attr.weight == 0.0 {
                continue;
            }
            let diff = (sums[c] + value) * inv_size - attr.mean;
            dev += attr.weight * diff * diff;
        }
        cluster_weight * dev
    }

    #[inline]
    fn tabulates(&self) -> bool {
        true
    }

    fn cat_term(&self, v: &FairView<'_>, c: usize, a: usize, value: usize, delta: i64) -> f64 {
        let attr = &v.cat[a];
        let inv_size = 1.0 / (v.size[c] as i64 + delta) as f64;
        let counts = &v.cat_counts[a][c * attr.t..(c + 1) * attr.t];
        Self::attr_term(attr, counts, inv_size, value, delta)
    }
}

/// Bounded representation (Bera et al. 2019, as a soft penalty): every
/// group's cluster share must sit inside `[lower·Fr_X(s), upper·Fr_X(s)]`;
/// shares inside the band cost nothing, violations cost their squared
/// hinge distance to the nearest bound, with the same per-value scales,
/// Eq. 23 attribute weights and `(|C|/|X|)²` cluster weight as Eq. 7.
/// Numeric sensitive attributes keep their Eq. 22 mean-parity form (a
/// share band is not defined for them). The batch-exact hard-constraint
/// form is [`bounded_exact_assignment`].
#[derive(Clone, Debug)]
pub(crate) struct BoundedRep {
    /// Per categorical attribute, per value: the allowed share interval,
    /// resolved against the frozen dataset distribution at construction.
    bounds: Vec<Vec<(f64, f64)>>,
}

impl BoundedRep {
    /// Resolve the `(lower, upper)` multipliers against the frozen
    /// per-value dataset shares. Bounds are clamped into `[0, 1]` — a
    /// share can never leave that range, so anything outside is slack.
    pub fn new(cat: &[CatAttr], lower: f64, upper: f64) -> Self {
        let bounds = cat
            .iter()
            .map(|attr| {
                attr.dist
                    .iter()
                    .map(|&p| ((lower * p).clamp(0.0, 1.0), (upper * p).clamp(0.0, 1.0)))
                    .collect()
            })
            .collect();
        Self { bounds }
    }

    /// Squared hinge violation of share `f` against band `(lo, hi)`.
    #[inline]
    fn violation(f: f64, lo: f64, hi: f64) -> f64 {
        let v = (lo - f).max(0.0) + (f - hi).max(0.0);
        v * v
    }

    /// One attribute's weighted squared-hinge term over its `bounds`, the
    /// count of value `s` read from `count(s)`.
    #[inline]
    fn attr_term(
        attr: &CatAttr,
        bounds: &[(f64, f64)],
        inv_size: f64,
        count: impl Fn(usize) -> i64,
    ) -> f64 {
        let mut attr_dev = 0.0;
        for (s, &(lo, hi)) in bounds.iter().enumerate() {
            let share = count(s) as f64 * inv_size;
            attr_dev += attr.value_scale[s] * Self::violation(share, lo, hi);
        }
        attr.weight * attr_dev
    }

    fn contrib(
        &self,
        v: &FairView<'_>,
        new_size: f64,
        live: f64,
        cat_count: impl Fn(usize, usize) -> i64,
        num_sum: impl Fn(usize) -> f64,
    ) -> f64 {
        if new_size <= 0.0 {
            return 0.0; // empty clusters violate no bound
        }
        let inv_size = 1.0 / new_size;
        let frac = new_size / live;
        let cluster_weight = frac * frac;

        let mut dev = 0.0;
        for (a, (attr, bounds)) in v.cat.iter().zip(&self.bounds).enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            dev += Self::attr_term(attr, bounds, inv_size, |s| cat_count(a, s));
        }
        for (a, attr) in v.num.iter().enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            let diff = num_sum(a) * inv_size - attr.mean;
            dev += attr.weight * diff * diff;
        }
        cluster_weight * dev
    }
}

impl FairnessObjective for BoundedRep {
    fn contrib_adjusted(&self, v: &FairView<'_>, c: usize, p: PointRef<'_>, delta: i64) -> f64 {
        let new_size = (v.size[c] as i64 + delta) as f64;
        self.contrib(
            v,
            new_size,
            v.live as f64,
            |a, s| {
                let mut count = v.cat_counts[a][c * v.cat[a].t + s];
                if delta != 0 && p.cat(a) as usize == s {
                    count += delta;
                }
                count
            },
            |a| {
                let mut sum = v.num_sums[a][c];
                if delta != 0 {
                    sum += delta as f64 * p.num(a);
                }
                sum
            },
        )
    }

    fn insertion_contrib(
        &self,
        v: &FairView<'_>,
        c: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
    ) -> f64 {
        let new_size = v.size[c] as f64 + 1.0;
        self.contrib(
            v,
            new_size,
            v.live as f64 + 1.0,
            |a, s| {
                let mut count = v.cat_counts[a][c * v.cat[a].t + s];
                if cat_vals[a] as usize == s {
                    count += 1;
                }
                count
            },
            |a| v.num_sums[a][c] + num_vals[a],
        )
    }

    #[inline]
    fn tabulates(&self) -> bool {
        true
    }

    fn cat_term(&self, v: &FairView<'_>, c: usize, a: usize, value: usize, delta: i64) -> f64 {
        let attr = &v.cat[a];
        let inv_size = 1.0 / (v.size[c] as i64 + delta) as f64;
        let counts = &v.cat_counts[a][c * attr.t..(c + 1) * attr.t];
        let count = |s: usize| counts[s] + if s == value { delta } else { 0 };
        Self::attr_term(attr, &self.bounds[a], inv_size, count)
    }
}

/// How [`GroupLoss`] folds the per-group deviations of one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GroupAggregation {
    /// Mean deviation over the group pool — total welfare.
    Utilitarian,
    /// Worst single group's deviation — max-min welfare.
    Egalitarian,
}

/// Multiple-groups welfare objective: every (attribute, value) pair — and
/// every numeric sensitive attribute — is one *group* with loss
/// `ℓ_g = w_S (Fr_C(g) − Fr_X(g))²` (numeric: the Eq. 22 mean-parity
/// deviation). A cluster contributes `(|C|/|X|)²` times the utilitarian
/// mean or the egalitarian max of its group losses. Unlike Eq. 7 this
/// weighs every group equally regardless of its attribute's cardinality
/// (utilitarian), or chases the single worst-represented group
/// (egalitarian).
#[derive(Clone, Debug)]
pub(crate) struct GroupLoss {
    agg: GroupAggregation,
    /// `1 / |group pool|` over the positively-weighted attributes
    /// (0 when the pool is empty). Frozen at construction.
    inv_groups: f64,
}

impl GroupLoss {
    /// Count the group pool over the weighted attributes.
    pub fn new(agg: GroupAggregation, cat: &[CatAttr], num: &[NumAttr]) -> Self {
        let groups: usize = cat
            .iter()
            .filter(|a| a.weight != 0.0)
            .map(|a| a.t)
            .sum::<usize>()
            + num.iter().filter(|a| a.weight != 0.0).count();
        let inv_groups = if groups > 0 { 1.0 / groups as f64 } else { 0.0 };
        Self { agg, inv_groups }
    }

    fn fold(
        &self,
        v: &FairView<'_>,
        new_size: f64,
        live: f64,
        cat_count: impl Fn(usize, usize) -> i64,
        num_sum: impl Fn(usize) -> f64,
    ) -> f64 {
        if new_size <= 0.0 {
            return 0.0;
        }
        let inv_size = 1.0 / new_size;
        let frac = new_size / live;
        let cluster_weight = frac * frac;

        let mut sum = 0.0;
        let mut worst = 0.0f64;
        for (a, attr) in v.cat.iter().enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            for s in 0..attr.t {
                let diff = cat_count(a, s) as f64 * inv_size - attr.dist[s];
                let loss = attr.weight * (diff * diff);
                sum += loss;
                worst = worst.max(loss);
            }
        }
        for (a, attr) in v.num.iter().enumerate() {
            if attr.weight == 0.0 {
                continue;
            }
            let diff = num_sum(a) * inv_size - attr.mean;
            let loss = attr.weight * (diff * diff);
            sum += loss;
            worst = worst.max(loss);
        }
        let agg = match self.agg {
            GroupAggregation::Utilitarian => sum * self.inv_groups,
            GroupAggregation::Egalitarian => worst,
        };
        cluster_weight * agg
    }
}

impl FairnessObjective for GroupLoss {
    fn contrib_adjusted(&self, v: &FairView<'_>, c: usize, p: PointRef<'_>, delta: i64) -> f64 {
        let new_size = (v.size[c] as i64 + delta) as f64;
        self.fold(
            v,
            new_size,
            v.live as f64,
            |a, s| {
                let attr = &v.cat[a];
                let mut count = v.cat_counts[a][c * attr.t + s];
                if delta != 0 && p.cat(a) as usize == s {
                    count += delta;
                }
                count
            },
            |a| {
                let mut sum = v.num_sums[a][c];
                if delta != 0 {
                    sum += delta as f64 * p.num(a);
                }
                sum
            },
        )
    }

    fn insertion_contrib(
        &self,
        v: &FairView<'_>,
        c: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
    ) -> f64 {
        let new_size = v.size[c] as f64 + 1.0;
        self.fold(
            v,
            new_size,
            v.live as f64 + 1.0,
            |a, s| {
                let attr = &v.cat[a];
                let mut count = v.cat_counts[a][c * attr.t + s];
                if cat_vals[a] as usize == s {
                    count += 1;
                }
                count
            },
            |a| v.num_sums[a][c] + num_vals[a],
        )
    }
}

/// Runtime-selected objective: one variant per implementation, dispatched
/// by an `#[inline]` match. The enum (not a `dyn` trait) keeps every call
/// monomorphized — the hot loop pays one predicted branch, no vtable hop.
#[derive(Clone, Debug)]
pub(crate) enum Objective {
    /// The paper's Eq. 7 representativity (default).
    Representativity(Representativity),
    /// Bounded-representation penalty.
    Bounded(BoundedRep),
    /// Multiple-groups utilitarian/egalitarian welfare.
    Group(GroupLoss),
}

macro_rules! dispatch {
    ($self:expr, $o:ident => $body:expr) => {
        match $self {
            Objective::Representativity($o) => $body,
            Objective::Bounded($o) => $body,
            Objective::Group($o) => $body,
        }
    };
}

impl Objective {
    /// Instantiate the configured objective against the frozen sensitive
    /// reference (dataset distributions / means are already inside the
    /// attribute structs).
    pub fn from_kind(kind: ObjectiveKind, cat: &[CatAttr], num: &[NumAttr]) -> Self {
        match kind {
            ObjectiveKind::Representativity => Objective::Representativity(Representativity),
            ObjectiveKind::BoundedRepresentation { lower, upper } => {
                Objective::Bounded(BoundedRep::new(cat, lower, upper))
            }
            ObjectiveKind::Utilitarian => {
                Objective::Group(GroupLoss::new(GroupAggregation::Utilitarian, cat, num))
            }
            ObjectiveKind::Egalitarian => {
                Objective::Group(GroupLoss::new(GroupAggregation::Egalitarian, cat, num))
            }
        }
    }

    /// See [`FairnessObjective::contrib_adjusted`].
    #[inline]
    pub fn contrib_adjusted(&self, v: &FairView<'_>, c: usize, p: PointRef<'_>, delta: i64) -> f64 {
        dispatch!(self, o => o.contrib_adjusted(v, c, p, delta))
    }

    /// See [`FairnessObjective::insertion_contrib`].
    #[inline]
    pub fn insertion_contrib(
        &self,
        v: &FairView<'_>,
        c: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
    ) -> f64 {
        dispatch!(self, o => o.insertion_contrib(v, c, cat_vals, num_vals))
    }

    /// See [`FairnessObjective::insertion_rescale`].
    #[inline]
    pub fn insertion_rescale(&self, live: f64) -> f64 {
        dispatch!(self, o => o.insertion_rescale(live))
    }

    /// See [`FairnessObjective::assemble`].
    #[inline]
    pub fn assemble(&self, contribs: &[f64]) -> f64 {
        dispatch!(self, o => o.assemble(contribs))
    }

    /// See [`FairnessObjective::dirties_all_on_move`].
    #[inline]
    pub fn dirties_all_on_move(&self) -> bool {
        dispatch!(self, o => o.dirties_all_on_move())
    }

    /// See [`FairnessObjective::dirties_all_on_live_change`].
    #[inline]
    pub fn dirties_all_on_live_change(&self) -> bool {
        dispatch!(self, o => o.dirties_all_on_live_change())
    }

    /// See [`FairnessObjective::tabulates`].
    #[inline]
    pub fn tabulates(&self) -> bool {
        dispatch!(self, o => o.tabulates())
    }

    /// See [`FairnessObjective::cat_term`].
    #[inline]
    pub fn cat_term(&self, v: &FairView<'_>, c: usize, a: usize, value: usize, delta: i64) -> f64 {
        dispatch!(self, o => o.cat_term(v, c, a, value, delta))
    }
}

/// Batch-exact bounded representation (Bera et al. 2019) as a min-cost
/// flow on [`fairkm_flow::BoundedMinCostFlow`]: assign every point to a
/// cluster minimizing total assignment cost subject to per-(cluster,
/// group) member-count bounds `lower[c][g] ≤ |{i ∈ c : group(i) = g}| ≤
/// upper[c][g]`.
///
/// Network: source → point (capacity 1) → (cluster, point's group) node
/// (capacity 1, cost `costs[i][c]`) → sink (bounds `[lower, upper]`).
/// Routing exactly `n` units yields the optimal feasible assignment;
/// returns [`FairKmError::InfeasibleBounds`] when no assignment satisfies
/// the bounds.
///
/// This is the hard-constraint companion of the soft
/// `ObjectiveKind::BoundedRepresentation` penalty: points the optimizer
/// serves incrementally descend on the penalty, while batch callers (and
/// the parity tests) can demand exact feasibility.
///
/// `costs` is one row per point with one entry per cluster (e.g. squared
/// prototype distances); `groups[i] < n_groups` is each point's group id.
pub fn bounded_exact_assignment(
    costs: &[Vec<f64>],
    groups: &[usize],
    n_groups: usize,
    lower: &[Vec<i64>],
    upper: &[Vec<i64>],
) -> Result<Vec<usize>, FairKmError> {
    let n = costs.len();
    assert_eq!(groups.len(), n, "one group id per point");
    let k = lower.len();
    assert_eq!(upper.len(), k, "bound matrices must agree on k");
    assert!(
        groups.iter().all(|&g| g < n_groups),
        "group id outside the declared pool"
    );
    if n == 0 || k == 0 {
        return Err(FairKmError::EmptyInput);
    }

    // Node layout: 0 = source, 1..=n points, then k×n_groups cluster-group
    // nodes, then the sink.
    let source = 0usize;
    let point = |i: usize| 1 + i;
    let cg = |c: usize, g: usize| 1 + n + c * n_groups + g;
    let sink = 1 + n + k * n_groups;

    let mut net = BoundedMinCostFlow::new(sink + 1);
    let mut point_edges = Vec::with_capacity(n * k);
    for (i, row) in costs.iter().enumerate() {
        assert_eq!(row.len(), k, "one cost per cluster");
        net.add_edge(source, point(i), 0, 1, 0.0);
        for (c, &cost) in row.iter().enumerate() {
            point_edges.push((i, c, net.add_edge(point(i), cg(c, groups[i]), 0, 1, cost)));
        }
    }
    for (c, (lo_row, hi_row)) in lower.iter().zip(upper).enumerate() {
        assert_eq!(lo_row.len(), n_groups, "one lower bound per group");
        assert_eq!(hi_row.len(), n_groups, "one upper bound per group");
        for g in 0..n_groups {
            net.add_edge(cg(c, g), sink, lo_row[g], hi_row[g], 0.0);
        }
    }

    let solution = net.solve(source, sink, n as i64).map_err(|e| match e {
        BoundedFlowError::Infeasible { unroutable } => FairKmError::InfeasibleBounds { unroutable },
        // The network is well-formed by construction, so a plain flow
        // error can only mean the n units cannot be routed at all.
        BoundedFlowError::Flow(_) => FairKmError::InfeasibleBounds {
            unroutable: n as i64,
        },
    })?;

    let mut assignment = vec![usize::MAX; n];
    for &(i, c, id) in &point_edges {
        if solution.edge_flow(id) > 0 {
            assignment[i] = c;
        }
    }
    debug_assert!(assignment.iter().all(|&c| c < k));
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned aggregates a test can hand out as a [`FairView`]: two
    /// clusters over one binary categorical attribute (uniform dataset
    /// distribution) and one numeric attribute with dataset mean 0.
    struct Aggregates {
        size: Vec<usize>,
        live: usize,
        cat: Vec<CatAttr>,
        cat_counts: Vec<Vec<i64>>,
        num: Vec<NumAttr>,
        num_sums: Vec<Vec<f64>>,
    }

    impl Aggregates {
        /// `counts[c]` are cluster `c`'s per-value member counts;
        /// `sums[c]` its numeric value sum.
        fn new(counts: [[i64; 2]; 2], sums: [f64; 2], num_weight: f64) -> Self {
            let size: Vec<usize> = counts
                .iter()
                .map(|row| row.iter().sum::<i64>() as usize)
                .collect();
            let live = size.iter().sum();
            Self {
                size,
                live,
                cat: vec![CatAttr {
                    t: 2,
                    dist: vec![0.5, 0.5],
                    value_scale: vec![0.5, 0.5],
                    weight: 1.0,
                }],
                cat_counts: vec![counts.iter().flatten().copied().collect()],
                num: vec![NumAttr {
                    mean: 0.0,
                    weight: num_weight,
                }],
                num_sums: vec![sums.to_vec()],
            }
        }

        fn view(&self) -> FairView<'_> {
            FairView {
                size: &self.size,
                live: self.live,
                cat: &self.cat,
                cat_counts: &self.cat_counts,
                num: &self.num,
                num_sums: &self.num_sums,
            }
        }
    }

    #[test]
    fn bounded_bands_resolve_against_dataset_shares_and_clamp() {
        let agg = Aggregates::new([[2, 2], [2, 2]], [0.0, 0.0], 0.0);
        let b = BoundedRep::new(&agg.cat, 0.8, 1.25);
        assert_eq!(b.bounds, vec![vec![(0.4, 0.625), (0.4, 0.625)]]);
        let wide = BoundedRep::new(&agg.cat, 0.0, 3.0);
        assert_eq!(wide.bounds, vec![vec![(0.0, 1.0), (0.0, 1.0)]]);
    }

    #[test]
    fn bounded_violation_is_a_squared_hinge() {
        assert_eq!(BoundedRep::violation(0.5, 0.4, 0.6), 0.0);
        assert_eq!(BoundedRep::violation(0.4, 0.4, 0.6), 0.0);
        assert_eq!(BoundedRep::violation(0.6, 0.4, 0.6), 0.0);
        assert!((BoundedRep::violation(0.2, 0.4, 0.6) - 0.04).abs() < 1e-15);
        assert!((BoundedRep::violation(0.8, 0.4, 0.6) - 0.04).abs() < 1e-15);
    }

    #[test]
    fn bounded_contrib_is_zero_inside_the_band_and_positive_outside() {
        // Cluster 0 is all value 0, cluster 1 all value 1: shares 1.0 / 0.0
        // against a 50/50 dataset.
        let agg = Aggregates::new([[3, 0], [0, 3]], [0.0, 0.0], 0.0);
        let v = agg.view();

        let wide = BoundedRep::new(&agg.cat, 0.0, 2.0); // band [0, 1]: slack
        assert_eq!(wide.contrib_adjusted(&v, 0, PointRef::None, 0), 0.0);
        assert_eq!(wide.contrib_adjusted(&v, 1, PointRef::None, 0), 0.0);

        let tight = BoundedRep::new(&agg.cat, 1.0, 1.0); // band {0.5}
                                                         // Each cluster: weight (3/6)² · [0.5·(1−0.5)² + 0.5·(0−0.5)²]
        let expected = 0.25 * (0.5 * 0.25 + 0.5 * 0.25);
        for c in 0..2 {
            let got = tight.contrib_adjusted(&v, c, PointRef::None, 0);
            assert!((got - expected).abs() < 1e-15, "cluster {c}: {got}");
        }
    }

    #[test]
    fn empty_clusters_contribute_nothing_under_every_objective() {
        let mut agg = Aggregates::new([[2, 2], [0, 0]], [0.0, 0.0], 1.0);
        agg.size[1] = 0;
        let v = agg.view();
        let objectives = [
            Objective::from_kind(ObjectiveKind::bounded(), &agg.cat, &agg.num),
            Objective::from_kind(ObjectiveKind::Utilitarian, &agg.cat, &agg.num),
            Objective::from_kind(ObjectiveKind::Egalitarian, &agg.cat, &agg.num),
        ];
        for o in &objectives {
            assert_eq!(o.contrib_adjusted(&v, 1, PointRef::None, 0), 0.0);
        }
    }

    #[test]
    fn group_loss_folds_mean_vs_worst_group() {
        // Cluster 0: shares (3/4, 1/4) against dist (1/2, 1/2) → both
        // categorical groups lose 1/16; numeric sum 2 over size 4 against
        // mean 0 → loss 1/4. Pool = 3 groups.
        let agg = Aggregates::new([[3, 1], [1, 3]], [2.0, 0.0], 1.0);
        let v = agg.view();

        let util = GroupLoss::new(GroupAggregation::Utilitarian, &agg.cat, &agg.num);
        let egal = GroupLoss::new(GroupAggregation::Egalitarian, &agg.cat, &agg.num);
        assert_eq!(util.inv_groups, 1.0 / 3.0);

        let weight = 0.25; // (4/8)²
        let mean = (1.0 / 16.0 + 1.0 / 16.0 + 0.25) / 3.0;
        let got_u = util.contrib_adjusted(&v, 0, PointRef::None, 0);
        assert!((got_u - weight * mean).abs() < 1e-15, "utilitarian {got_u}");
        let got_e = egal.contrib_adjusted(&v, 0, PointRef::None, 0);
        assert!((got_e - weight * 0.25).abs() < 1e-15, "egalitarian {got_e}");
        // The worst group dominates the mean whenever losses differ.
        assert!(got_e > got_u);
    }

    #[test]
    fn group_pool_skips_muted_attributes() {
        let agg = Aggregates::new([[2, 2], [2, 2]], [0.0, 0.0], 0.0);
        let g = GroupLoss::new(GroupAggregation::Utilitarian, &agg.cat, &agg.num);
        assert_eq!(g.inv_groups, 0.5); // 2 categorical groups, numeric muted
        let none = GroupLoss::new(GroupAggregation::Utilitarian, &[], &[]);
        assert_eq!(none.inv_groups, 0.0);
    }

    /// Brute-force minimum over all feasible assignments of a tiny
    /// bounded instance.
    fn brute_force(
        costs: &[Vec<f64>],
        groups: &[usize],
        n_groups: usize,
        lower: &[Vec<i64>],
        upper: &[Vec<i64>],
    ) -> Option<f64> {
        let n = costs.len();
        let k = lower.len();
        let mut best: Option<f64> = None;
        for code in 0..k.pow(n as u32) {
            let mut counts = vec![vec![0i64; n_groups]; k];
            let mut cost = 0.0;
            let mut rem = code;
            for i in 0..n {
                let c = rem % k;
                rem /= k;
                counts[c][groups[i]] += 1;
                cost += costs[i][c];
            }
            let feasible = (0..k).all(|c| {
                (0..n_groups).all(|g| counts[c][g] >= lower[c][g] && counts[c][g] <= upper[c][g])
            });
            if feasible && best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
        best
    }

    #[test]
    fn bounded_exact_assignment_is_cost_optimal_among_feasible() {
        // Every point prefers cluster 0, but each cluster must hold
        // exactly one point of each group — the flow must pay for the
        // cheapest feasible split, not the greedy one.
        let costs = vec![
            vec![0.0, 5.0],
            vec![1.0, 3.0],
            vec![0.0, 9.0],
            vec![2.0, 2.0],
        ];
        let groups = vec![0, 0, 1, 1];
        let lower = vec![vec![1, 1], vec![1, 1]];
        let upper = vec![vec![1, 1], vec![1, 1]];

        let got = bounded_exact_assignment(&costs, &groups, 2, &lower, &upper).unwrap();
        let mut counts = vec![vec![0i64; 2]; 2];
        let mut total = 0.0;
        for (i, &c) in got.iter().enumerate() {
            counts[c][groups[i]] += 1;
            total += costs[i][c];
        }
        assert_eq!(counts, vec![vec![1, 1], vec![1, 1]], "bounds respected");
        let best = brute_force(&costs, &groups, 2, &lower, &upper).unwrap();
        assert!(
            (total - best).abs() < 1e-9,
            "flow cost {total} vs brute force {best}"
        );
    }

    #[test]
    fn bounded_exact_assignment_matches_brute_force_with_slack_bands() {
        let costs = vec![
            vec![0.0, 1.0, 4.0],
            vec![3.0, 0.0, 1.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![2.0, 1.0, 0.0],
        ];
        let groups = vec![0, 1, 0, 1, 0];
        let lower = vec![vec![0, 0], vec![0, 0], vec![0, 0]];
        let upper = vec![vec![2, 1], vec![1, 1], vec![2, 2]];

        let got = bounded_exact_assignment(&costs, &groups, 2, &lower, &upper).unwrap();
        let mut counts = vec![vec![0i64; 2]; 3];
        let mut total = 0.0;
        for (i, &c) in got.iter().enumerate() {
            counts[c][groups[i]] += 1;
            total += costs[i][c];
        }
        for c in 0..3 {
            for g in 0..2 {
                assert!(counts[c][g] >= lower[c][g] && counts[c][g] <= upper[c][g]);
            }
        }
        let best = brute_force(&costs, &groups, 2, &lower, &upper).unwrap();
        assert!(
            (total - best).abs() < 1e-9,
            "flow cost {total} vs brute force {best}"
        );
    }

    #[test]
    fn infeasible_bounds_are_reported() {
        // Two group-0 points, but cluster bounds demand one group-1 point
        // in each of the two clusters.
        let costs = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let groups = vec![0, 0];
        let lower = vec![vec![0, 1], vec![0, 1]];
        let upper = vec![vec![2, 2], vec![2, 2]];
        match bounded_exact_assignment(&costs, &groups, 2, &lower, &upper) {
            Err(FairKmError::InfeasibleBounds { unroutable }) => assert!(unroutable > 0),
            other => panic!("expected InfeasibleBounds, got {other:?}"),
        }
    }

    #[test]
    fn empty_instances_are_rejected() {
        assert!(matches!(
            bounded_exact_assignment(&[], &[], 1, &[vec![0]], &[vec![1]]),
            Err(FairKmError::EmptyInput)
        ));
    }

    #[test]
    fn zero_clusters_are_rejected_as_empty() {
        // k = 0 (no bound rows) is the other degenerate shape: nothing to
        // assign points into, reported as EmptyInput — not a panic, not a
        // bogus infeasibility count.
        let costs = vec![vec![], vec![]];
        let groups = vec![0, 0];
        assert!(matches!(
            bounded_exact_assignment(&costs, &groups, 1, &[], &[]),
            Err(FairKmError::EmptyInput)
        ));
    }

    #[test]
    fn upper_caps_report_the_exact_unroutable_count() {
        // Four group-0 points, two clusters, each capped at one group-0
        // member: total capacity 2, so exactly 2 points cannot be routed.
        // The count is part of the error contract (callers surface it to
        // users picking bounds), so it is pinned exactly.
        let costs = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.25, 0.75],
        ];
        let groups = vec![0, 0, 0, 0];
        let lower = vec![vec![0], vec![0]];
        let upper = vec![vec![1], vec![1]];
        match bounded_exact_assignment(&costs, &groups, 1, &lower, &upper) {
            Err(FairKmError::InfeasibleBounds { unroutable }) => assert_eq!(unroutable, 2),
            other => panic!("expected InfeasibleBounds, got {other:?}"),
        }
    }

    #[test]
    fn lower_demands_exceeding_supply_report_the_exact_shortfall() {
        // Three clusters each demanding one group-0 member, but only two
        // group-0 points exist: one demand unit must go unmet.
        let costs = vec![vec![0.0, 1.0, 2.0], vec![2.0, 1.0, 0.0]];
        let groups = vec![0, 0];
        let lower = vec![vec![1], vec![1], vec![1]];
        let upper = vec![vec![1], vec![1], vec![1]];
        match bounded_exact_assignment(&costs, &groups, 1, &lower, &upper) {
            Err(FairKmError::InfeasibleBounds { unroutable }) => assert_eq!(unroutable, 1),
            other => panic!("expected InfeasibleBounds, got {other:?}"),
        }
    }

    #[test]
    fn missing_group_demands_count_every_unmet_unit() {
        // Bounds demand a group-1 member in each of two clusters but no
        // group-1 point exists: both demand units are unroutable.
        let costs = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let groups = vec![0, 0];
        let lower = vec![vec![0, 1], vec![0, 1]];
        let upper = vec![vec![2, 2], vec![2, 2]];
        match bounded_exact_assignment(&costs, &groups, 2, &lower, &upper) {
            Err(FairKmError::InfeasibleBounds { unroutable }) => assert_eq!(unroutable, 2),
            other => panic!("expected InfeasibleBounds, got {other:?}"),
        }
    }
}
