//! Streaming FairKM: online ingestion with incremental insert/delete
//! deltas, frozen-prototype serving, and drift-triggered re-optimization.
//!
//! The batch algorithm answers "cluster these |X| records once"; this
//! module answers the ROADMAP's long-lived-service question: points arrive
//! continuously, stale points leave, and assignments must be served with
//! low latency. Three ideas make that work without giving up the paper's
//! objective:
//!
//! 1. **Delta ingestion.** [`StreamingFairKm::ingest`] validates each
//!    arrival against the frozen schema (via [`resolve_sensitive`]),
//!    encodes it through a [`fairkm_data::FrozenEncoder`] (the normalization
//!    captured at bootstrap — later rows never re-shift the space), scores
//!    the whole batch against the scoring caches **frozen at batch start**,
//!    and then applies the insertions as O(dim + Σ|Values(S)|) aggregate
//!    deltas — the same machinery `apply_move` uses, extended to points
//!    entering and leaving the clustering.
//! 2. **Frozen-prototype serving.** Assignment of a new point never
//!    triggers optimization: it is one read-only pass over the cached
//!    prototypes plus an exact Eq. 7 insertion delta
//!    (`ClusterModel::score_insertion`). Bera et al. (*Fair Algorithms for
//!    Clustering*) justify exactly this split — fairness-aware decisions
//!    survive in the assignment phase alone — so the serve path stays
//!    O(k·(dim + Σ|Values(S)|)) per point.
//! 3. **Drift-triggered re-optimization.** Greedy frozen assignment slowly
//!    degrades the objective. The driver tracks the per-live-point
//!    objective against the post-reoptimization baseline and, past a
//!    relative [`StreamingConfig::drift_threshold`], runs windowed
//!    mini-batch passes (`windowed_pass`, the same optimizer the batch
//!    schedule uses; tombstoned slots propose no moves) until convergence
//!    or [`StreamingConfig::reopt_passes`].
//!
//! Each row is stored once: its encoded task vector and sensitive codes
//! live in the engine's slot rows, and the driver keeps only the frozen
//! schema to validate arrivals and label the live views.
//!
//! Eviction ([`StreamingFairKm::evict`]) removes points by the inverse
//! delta; evicted slots stay as tombstones in the backing store until
//! [`StreamingFairKm::compact`] reclaims them. The fairness *reference*
//! (dataset-level distributions, means, and skew weights of Eq. 7/22)
//! stays frozen at bootstrap — the stream is steered toward the
//! distribution the operator bootstrapped with, while
//! [`StreamingFairKm::live_views`] exposes the live partition for
//! monitoring against the *current* distribution (e.g. with
//! `fairkm_metrics::WindowedFairnessMonitor`).
//!
//! Everything is deterministic: scoring batches run on the
//! `fairkm-parallel` engine with fixed chunk boundaries, mutations apply in
//! index order, and the whole ingest/evict/reoptimize trace is
//! bitwise-identical for any thread count.

use crate::agg::{SlotRow, TOMBSTONE};
use crate::config::{DeltaEngine, FairKmConfig, FairKmError, ObjectiveKind, UpdateSchedule};
use crate::fairkm::{initial_assignment, resolve_weights, windowed_pass};
use crate::minibatch::MiniBatchFairKm;
use crate::state::{ClusterModel, State};
use fairkm_data::{
    AttrId, AttrKind, Dataset, FrozenEncoder, NumericMatrix, Partition, Role, Schema, SensitiveCat,
    SensitiveNum, SensitiveSpace, Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a [`StreamingFairKm`] driver.
///
/// ```
/// use fairkm_core::{FairKmConfig, StreamingConfig};
///
/// let cfg = StreamingConfig::from_base(FairKmConfig::new(4).with_seed(7))
///     .with_drift_threshold(0.02)
///     .with_reopt_passes(3);
/// assert_eq!(cfg.base.k, 4);
/// assert_eq!(cfg.drift_threshold, 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Base FairKM configuration: `k`, λ (resolved once at bootstrap and
    /// then frozen, so objectives stay comparable across the stream),
    /// fairness normalization, task normalization, seed, thread count,
    /// init, δ engine, and `max_iters` (the bootstrap pass cap).
    /// `schedule` selects the scan-window size used by the bootstrap and
    /// every re-optimization: `MiniBatch(b)` pins it, the default
    /// `PerMove` lets the driver pick `MiniBatchFairKm::auto_batch`.
    pub base: FairKmConfig,
    /// Relative per-live-point objective drift (against the
    /// post-re-optimization baseline) above which ingest/evict triggers a
    /// re-optimization. Default `0.05`.
    pub drift_threshold: f64,
    /// Maximum windowed passes per re-optimization (the bootstrap uses
    /// `base.max_iters` instead). `0` disables re-optimization entirely —
    /// drift is still tracked but never acted on. Default `5`.
    pub reopt_passes: usize,
}

impl StreamingConfig {
    /// Defaults around `FairKmConfig::new(k)`: 5% drift threshold, up to 5
    /// re-optimization passes.
    pub fn new(k: usize) -> Self {
        Self::from_base(FairKmConfig::new(k))
    }

    /// Wrap an explicit base configuration.
    pub fn from_base(base: FairKmConfig) -> Self {
        Self {
            base,
            drift_threshold: 0.05,
            reopt_passes: 5,
        }
    }

    /// Builder-style drift-threshold override.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Builder-style re-optimization pass-cap override.
    pub fn with_reopt_passes(mut self, passes: usize) -> Self {
        self.reopt_passes = passes;
        self
    }
}

/// Outcome of one [`StreamingFairKm::ingest`] batch.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Backing-store slots assigned to the batch, in arrival order.
    pub slots: std::ops::Range<usize>,
    /// Frozen-prototype cluster per arrival (aligned with `slots`). These
    /// are the serving decisions; a later re-optimization may move points.
    pub clusters: Vec<usize>,
    /// Objective after the batch (and after any triggered re-optimization).
    pub objective: f64,
    /// Whether the drift check triggered a re-optimization.
    pub reoptimized: bool,
    /// Moves the triggered re-optimization made (0 when not triggered).
    pub reopt_moves: usize,
}

/// Outcome of one [`StreamingFairKm::evict`] batch.
#[derive(Debug, Clone)]
pub struct EvictReport {
    /// Points removed.
    pub evicted: usize,
    /// Objective after the evictions (and any triggered re-optimization).
    pub objective: f64,
    /// Whether the drift check triggered a re-optimization.
    pub reoptimized: bool,
    /// Moves the triggered re-optimization made (0 when not triggered).
    pub reopt_moves: usize,
}

/// Everything a sharded deployment needs to take over from a bootstrapped
/// single-node streaming engine: the frozen validation/encoding front-end,
/// the aggregate engine, the per-slot payloads to distribute across
/// shards, and the driver's frozen parameters and counters. Produced by
/// [`StreamingFairKm::into_shard_parts`].
#[derive(Debug)]
pub struct ShardParts {
    /// The frozen schema arrivals are validated against.
    pub schema: Schema,
    /// Frozen arrival validation/encoding transforms.
    pub encoder: FrozenEncoder,
    /// The aggregate engine at hand-off (every replica starts from a copy).
    pub model: ClusterModel,
    /// Per-slot payloads `0..n_slots`, cluster [`TOMBSTONE`] for evicted
    /// slots — these get partitioned across shards.
    pub slots: Vec<SlotRow>,
    /// Frozen fairness trade-off λ.
    pub lambda: f64,
    /// Resolved worker-pool width.
    pub threads: usize,
    /// Pinned scan-window size (`None` = auto).
    pub window: Option<usize>,
    /// δ engine (sharding requires [`DeltaEngine::Incremental`]).
    pub engine: DeltaEngine,
    /// Active fairness objective.
    pub objective_kind: ObjectiveKind,
    /// Drift threshold of the re-optimization trigger.
    pub drift_threshold: f64,
    /// Pass cap per re-optimization.
    pub reopt_passes: usize,
    /// Objective at hand-off.
    pub objective: f64,
    /// Per-live-point drift baseline at hand-off.
    pub baseline_per_point: f64,
    /// Eviction cursor for `evict_oldest`.
    pub oldest_hint: usize,
    /// Bounded objective trace accumulated so far.
    pub trace: Vec<f64>,
    /// Points ingested so far.
    pub inserted: usize,
    /// Points evicted so far.
    pub evicted: usize,
    /// Re-optimizations run so far.
    pub reopts: usize,
    /// Sensitive categorical attribute ids, in encoding order.
    pub sens_cat_ids: Vec<AttrId>,
    /// Sensitive numeric attribute ids, in encoding order.
    pub sens_num_ids: Vec<AttrId>,
}

/// A long-lived fair clustering serving a stream of arrivals and
/// departures. See the [module docs](self) for the design.
///
/// ```
/// use fairkm_core::{FairKmConfig, StreamingConfig, StreamingFairKm};
/// use fairkm_data::{row, DatasetBuilder, Role};
///
/// let mut b = DatasetBuilder::new();
/// b.numeric("x", Role::NonSensitive).unwrap();
/// b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
/// for i in 0..40 {
///     let side = if i % 2 == 0 { 0.0 } else { 9.0 };
///     b.push_row(row![side + (i % 3) as f64 * 0.1, if i % 4 < 2 { "a" } else { "b" }])
///         .unwrap();
/// }
/// let bootstrap = b.build().unwrap();
///
/// let mut stream = StreamingFairKm::bootstrap(
///     bootstrap,
///     StreamingConfig::from_base(FairKmConfig::new(2).with_seed(3)),
/// )
/// .unwrap();
/// assert_eq!(stream.live(), 40);
///
/// // Serve without mutating, then ingest for real.
/// let served = stream.assign_frozen(&row![0.05, "b"]).unwrap();
/// let report = stream.ingest(&[row![0.05, "b"]]).unwrap();
/// assert_eq!(report.clusters, vec![served]);
/// assert_eq!(stream.live(), 41);
///
/// // Evict the oldest point again.
/// stream.evict(&[0]).unwrap();
/// assert_eq!(stream.live(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingFairKm {
    /// The frozen schema: arrival validation and live-view labels.
    schema: Schema,
    encoder: FrozenEncoder,
    state: State<'static>,
    lambda: f64,
    threads: usize,
    /// Explicit scan-window size for bootstrap/re-optimization passes;
    /// `None` auto-sizes from the current slot count.
    window: Option<usize>,
    engine: DeltaEngine,
    drift_threshold: f64,
    reopt_passes: usize,
    objective: f64,
    /// Per-live-point objective right after the last (re-)optimization —
    /// the drift baseline.
    baseline_per_point: f64,
    /// Every slot below this index is known dead — the scan cursor that
    /// keeps repeated [`Self::evict_oldest`] calls from rescanning the
    /// whole backing store.
    oldest_hint: usize,
    trace: Vec<f64>,
    inserted: usize,
    evicted: usize,
    reopts: usize,
    sens_cat_ids: Vec<AttrId>,
    sens_num_ids: Vec<AttrId>,
}

// `Debug` for State is intentionally absent (it holds only derived data);
// keep the driver debuggable without dumping megabytes of aggregates.
impl std::fmt::Debug for State<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("n", &self.n)
            .field("live", &self.model.live())
            .field("k", &self.model.k())
            .field("dim", &self.model.dim())
            .finish_non_exhaustive()
    }
}

/// Resolve a row's sensitive values — categorical indices first, numeric
/// second, the attribute order the engine expects — with full validation:
/// the row's arity against `schema`, then every sensitive cell against its
/// attribute, then every auxiliary cell (resolved and discarded: the engine
/// stores no auxiliary data, but a row with a bad auxiliary cell is still
/// a bad row). `n_slots` is the current slot count, which numeric
/// resolution reports in its errors. The single-node engine, every serving
/// view and the sharded coordinator all resolve arrivals through this one
/// function (after the frozen encoder has checked the task cells), so they
/// accept and reject exactly the same rows.
pub fn resolve_sensitive(
    schema: &Schema,
    sens_cat_ids: &[AttrId],
    sens_num_ids: &[AttrId],
    row: &[Value],
    n_slots: usize,
) -> Result<(Vec<u32>, Vec<f64>), FairKmError> {
    if row.len() != schema.len() {
        return Err(FairKmError::Data(fairkm_data::DataError::RowArity {
            expected: schema.len(),
            got: row.len(),
        }));
    }
    let mut cat_vals = Vec::with_capacity(sens_cat_ids.len());
    for &id in sens_cat_ids {
        cat_vals.push(schema.attr(id)?.resolve_categorical(&row[id.index()])?);
    }
    let mut num_vals = Vec::with_capacity(sens_num_ids.len());
    for &id in sens_num_ids {
        num_vals.push(
            schema
                .attr(id)?
                .resolve_numeric(&row[id.index()], n_slots)?,
        );
    }
    for (id, attr) in schema.iter().filter(|(_, a)| a.role == Role::Auxiliary) {
        let cell = &row[id.index()];
        match attr.kind {
            AttrKind::Numeric => attr.resolve_numeric(cell, n_slots).map(drop)?,
            AttrKind::Categorical { .. } => attr.resolve_categorical(cell).map(drop)?,
        }
    }
    Ok((cat_vals, num_vals))
}

/// The schema's sensitive attribute ids, categorical then numeric, each in
/// schema order — the order the engine stores a slot's codes in.
fn sensitive_ids(schema: &Schema) -> (Vec<AttrId>, Vec<AttrId>) {
    let (cat, num): (Vec<_>, Vec<_>) = schema
        .iter()
        .filter(|(_, a)| a.role == Role::Sensitive)
        .partition(|(_, a)| a.kind.is_categorical());
    let ids = |v: Vec<(AttrId, _)>| v.into_iter().map(|(id, _)| id).collect();
    (ids(cat), ids(num))
}

/// Leading `u64` of every [`StreamingFairKm::to_snapshot_bytes`] payload:
/// the bytes `FKSTRM02`. Payloads written before the tag existed start with
/// a length prefix far below 2^56, so they can never carry it.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"FKSTRM02");

/// Retained objective-trace ceiling. A long-lived stream pushes one entry
/// per ingest/evict batch and per optimization pass; past this many the
/// oldest half is dropped so telemetry memory stays bounded for the
/// service lifetime (drains amortize to O(1) per push).
pub const MAX_TRACE: usize = 8192;

/// Push onto the bounded objective trace (see [`MAX_TRACE`]): past the
/// ceiling the oldest half is dropped before appending. Public so the
/// sharded coordinator's trace bookkeeping is this exact function.
pub fn push_trace_bounded(trace: &mut Vec<f64>, value: f64) {
    if trace.len() >= MAX_TRACE {
        trace.drain(..MAX_TRACE / 2);
    }
    trace.push(value);
}

/// Drive windowed mini-batch passes until one makes no move or `max_passes`
/// is reached, recording the objective after each pass — the single
/// convergence loop shared by the bootstrap fit and every re-optimization
/// (so their rebuild cadence and trace bookkeeping can never diverge).
/// Returns `(objective, total_moves)`.
#[allow(clippy::too_many_arguments)]
fn run_windowed_passes(
    state: &mut State<'static>,
    lambda: f64,
    engine: DeltaEngine,
    window: Option<usize>,
    threads: usize,
    max_passes: usize,
    mut objective: f64,
    trace: &mut Vec<f64>,
) -> (f64, usize) {
    let mut total_moves = 0usize;
    for _ in 0..max_passes {
        let w = window.unwrap_or_else(|| MiniBatchFairKm::auto_batch(state.n));
        let (moved, obj) = windowed_pass(state, lambda, engine, w, threads, objective);
        objective = obj;
        if moved > 0 {
            // Same drift-cancelling rebuild cadence as the batch fit:
            // once per pass, never per window.
            state.rebuild();
            objective = state.model.objective_cached(lambda);
        }
        push_trace_bounded(trace, objective);
        total_moves += moved;
        if moved == 0 {
            break;
        }
    }
    (objective, total_moves)
}

impl StreamingFairKm {
    /// Bootstrap a streaming clusterer on an initial corpus: capture the
    /// frozen encoder and fairness reference, run windowed mini-batch
    /// passes to convergence (or `base.max_iters`), and set the drift
    /// baseline. The corpus becomes slots `0..n` of the stream.
    pub fn bootstrap(dataset: Dataset, config: StreamingConfig) -> Result<Self, FairKmError> {
        let base = &config.base;
        let n = dataset.n_rows();
        if n == 0 {
            return Err(FairKmError::EmptyInput);
        }
        let k = base.k;
        if k == 0 || k > n {
            return Err(FairKmError::InvalidK { k, n });
        }
        if let UpdateSchedule::MiniBatch(0) = base.schedule {
            return Err(FairKmError::ZeroBatch);
        }
        let lambda = base.lambda.resolve(n, k);
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(FairKmError::InvalidLambda(lambda));
        }
        base.objective.validate()?;
        let matrix = dataset.task_matrix(base.normalization)?;
        let encoder = dataset.frozen_encoder(base.normalization)?;
        let space = dataset.sensitive_space()?;
        let weights = resolve_weights(&base.attr_weights, &space)?;
        let threads = fairkm_parallel::resolve_threads(base.threads);
        let mut rng = StdRng::seed_from_u64(base.seed);
        let assignment = initial_assignment(&matrix, k, base.init, &mut rng, threads);
        let mut state = State::with_norm(
            std::borrow::Cow::Owned(matrix),
            &space,
            &weights,
            k,
            assignment,
            base.fairness_norm,
            base.objective,
            threads,
        );
        let window = match base.schedule {
            UpdateSchedule::MiniBatch(batch) => Some(batch),
            UpdateSchedule::PerMove => None,
        };
        let engine = base.delta_engine;
        let objective = state.model.objective_cached(lambda);
        let mut trace = vec![objective];
        let (objective, _) = run_windowed_passes(
            &mut state,
            lambda,
            engine,
            window,
            threads,
            base.max_iters,
            objective,
            &mut trace,
        );
        let (sens_cat_ids, sens_num_ids) = sensitive_ids(dataset.schema());
        let baseline_per_point = objective / state.model.live() as f64;
        Ok(Self {
            schema: dataset.schema().clone(),
            encoder,
            state,
            lambda,
            threads,
            window,
            engine,
            drift_threshold: config.drift_threshold,
            reopt_passes: config.reopt_passes,
            objective,
            baseline_per_point,
            oldest_hint: 0,
            trace,
            inserted: 0,
            evicted: 0,
            reopts: 0,
            sens_cat_ids,
            sens_num_ids,
        })
    }

    /// Serve an assignment for a row **without ingesting it**: validate and
    /// encode through the frozen transforms, then score against the cached
    /// prototypes and Eq. 7 insertion deltas. Read-only and O(k·(dim +
    /// Σ|Values(S)|)) — the low-latency path.
    pub fn assign_frozen(&self, row: &[Value]) -> Result<usize, FairKmError> {
        let task = self.encoder.encode_row(row)?;
        let (cat_vals, num_vals) = self.resolve_sensitive(row)?;
        Ok(self
            .state
            .model
            .score_insertion(&task, &cat_vals, &num_vals, self.lambda)
            .0)
    }

    /// Capture an immutable, owned snapshot of the frozen serving path —
    /// everything [`Self::assign_frozen`] needs, detached from the live
    /// engine. A serving layer publishes one behind an `Arc` after each
    /// mutation so reads never block behind writes; [`ServingView::assign`]
    /// reproduces `assign_frozen`'s result bitwise for the state at capture
    /// time. The model is a clone of the engine's aggregates, caches and
    /// frozen reference: O(k·(dim + Σ|Values(S)|)), independent of the
    /// number of points.
    pub fn serving_view(&self) -> ServingView {
        debug_assert!(self.state.model.cache_is_fresh());
        ServingView {
            schema: self.schema.clone(),
            encoder: self.encoder.clone(),
            model: self.state.model.clone(),
            lambda: self.lambda,
            n_slots: self.state.n,
            objective: self.objective,
            sens_cat_ids: self.sens_cat_ids.clone(),
            sens_num_ids: self.sens_num_ids.clone(),
        }
    }

    /// Ingest a batch of rows: validate against the frozen schema (atomic —
    /// a bad row rejects the whole batch before anything mutates), assign
    /// every row against the caches frozen at batch start (scored in
    /// parallel, deterministically), apply the insertions as aggregate
    /// deltas in arrival order, then run the drift check.
    pub fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<IngestReport, FairKmError> {
        let start = self.state.n;
        if rows.is_empty() {
            return Ok(IngestReport {
                slots: start..start,
                clusters: Vec::new(),
                objective: self.objective,
                reoptimized: false,
                reopt_moves: 0,
            });
        }
        // Validate + encode every row before mutating anything, so a bad
        // row rejects the whole batch.
        let mut encoded: Vec<(Vec<f64>, Vec<u32>, Vec<f64>)> = Vec::with_capacity(rows.len());
        for row in rows {
            let task = self.encoder.encode_row(row)?;
            let (cat_vals, num_vals) = self.resolve_sensitive(row)?;
            encoded.push((task, cat_vals, num_vals));
        }

        // Frozen-prototype assignment for the whole batch.
        let model = &self.state.model;
        debug_assert!(model.cache_is_fresh());
        let lambda = self.lambda;
        let clusters: Vec<usize> =
            fairkm_parallel::map_indexed(self.threads, 0..encoded.len(), |i| {
                let (task, cat_vals, num_vals) = &encoded[i];
                model.score_insertion(task, cat_vals, num_vals, lambda).0
            });

        // Delta-apply in arrival order.
        for ((task, cat_vals, num_vals), &c) in encoded.iter().zip(&clusters) {
            let slot = self.state.push_row(task, cat_vals, num_vals);
            self.state.insert_point(slot, c);
        }
        self.state.model.refresh_cache();
        self.objective = self.state.model.objective_cached(self.lambda);
        self.state.debug_validate_cache(self.lambda);
        push_trace_bounded(&mut self.trace, self.objective);
        self.inserted += rows.len();
        let (reoptimized, reopt_moves) = self.maybe_reoptimize();
        Ok(IngestReport {
            slots: start..start + rows.len(),
            clusters,
            objective: self.objective,
            reoptimized,
            reopt_moves,
        })
    }

    /// Evict the given live slots (stale points leaving the stream),
    /// applying the inverse insertion deltas, then run the drift check.
    /// Rejects dead, out-of-range, or duplicated slots before mutating
    /// anything, so a failed call leaves the clustering unchanged.
    pub fn evict(&mut self, slots: &[usize]) -> Result<EvictReport, FairKmError> {
        let mut seen = slots.to_vec();
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                return Err(FairKmError::StaleSlot(pair[0]));
            }
        }
        for &slot in slots {
            if !self.is_live(slot) {
                return Err(FairKmError::StaleSlot(slot));
            }
        }
        if slots.is_empty() {
            return Ok(EvictReport {
                evicted: 0,
                objective: self.objective,
                reoptimized: false,
                reopt_moves: 0,
            });
        }
        for &slot in slots {
            self.state.remove_point(slot);
        }
        self.state.model.refresh_cache();
        self.objective = self.state.model.objective_cached(self.lambda);
        self.state.debug_validate_cache(self.lambda);
        push_trace_bounded(&mut self.trace, self.objective);
        self.evicted += slots.len();
        let (reoptimized, reopt_moves) = self.maybe_reoptimize();
        Ok(EvictReport {
            evicted: slots.len(),
            objective: self.objective,
            reoptimized,
            reopt_moves,
        })
    }

    /// Evict the `count` oldest live points (lowest slot indices) — the
    /// sliding-window retention policy. The scan starts at a maintained
    /// oldest-live cursor (every slot below it is known dead), so repeated
    /// per-batch calls cost O(count + dead-since-last-call), not O(total
    /// slots ever ingested).
    pub fn evict_oldest(&mut self, count: usize) -> Result<EvictReport, FairKmError> {
        let slots: Vec<usize> = (self.oldest_hint..self.state.n)
            .filter(|&s| self.is_live(s))
            .take(count)
            .collect();
        let report = self.evict(&slots)?;
        // Advance the cursor past the dead prefix (everything < oldest_hint
        // stays dead: arbitrary evicts only kill more slots, ingest appends
        // at the end, and compact resets the cursor).
        while self.oldest_hint < self.state.n && !self.is_live(self.oldest_hint) {
            self.oldest_hint += 1;
        }
        Ok(report)
    }

    /// Run windowed re-optimization passes over the live partition until no
    /// pass moves a point or [`StreamingConfig::reopt_passes`] is reached
    /// (0 passes = re-optimization disabled; drift tracking still resets
    /// its baseline), then reset the drift baseline. Returns the number of
    /// moves.
    pub fn reoptimize(&mut self) -> usize {
        let (objective, total_moves) = run_windowed_passes(
            &mut self.state,
            self.lambda,
            self.engine,
            self.window,
            self.threads,
            self.reopt_passes,
            self.objective,
            &mut self.trace,
        );
        self.objective = objective;
        self.reopts += 1;
        if self.state.model.live() > 0 {
            self.baseline_per_point = self.objective / self.state.model.live() as f64;
        }
        total_moves
    }

    /// Drop every tombstoned slot from the backing store, renumbering the
    /// survivors. Returns the old slot index each new slot held (so
    /// external slot bookkeeping can be renumbered). Invalidates previously
    /// returned slot ids.
    pub fn compact(&mut self) -> Result<Vec<usize>, FairKmError> {
        let kept = self.state.compact();
        self.objective = self.state.model.objective_cached(self.lambda);
        self.oldest_hint = 0;
        Ok(kept)
    }

    /// Snapshot the live partition for monitoring: the frozen-encoded task
    /// matrix of the live points, their sensitive space (with the **live**
    /// distribution — the optimizer itself steers toward the bootstrap
    /// reference), the partition, and the live slot ids (row `i` of the
    /// views is slot `slots[i]`).
    #[allow(clippy::type_complexity)]
    pub fn live_views(
        &self,
    ) -> Result<(NumericMatrix, SensitiveSpace, Partition, Vec<usize>), FairKmError> {
        let slots = self.live_slots();
        let matrix = self.state.matrix.select_rows(&slots);
        let mut cat = Vec::with_capacity(self.sens_cat_ids.len());
        for (a, &id) in self.sens_cat_ids.iter().enumerate() {
            let attr = self.schema.attr(id)?;
            let AttrKind::Categorical { values: labels } = &attr.kind else {
                unreachable!("categorical sensitive ids name categorical attributes");
            };
            let codes = slots.iter().map(|&s| self.state.cat_row(s)[a]).collect();
            cat.push(SensitiveCat::new(
                id,
                attr.name.clone(),
                labels.clone(),
                codes,
            ));
        }
        let mut num = Vec::with_capacity(self.sens_num_ids.len());
        for (a, &id) in self.sens_num_ids.iter().enumerate() {
            let values = slots.iter().map(|&s| self.state.num_row(s)[a]).collect();
            num.push(SensitiveNum::new(
                id,
                self.schema.attr(id)?.name.clone(),
                values,
            ));
        }
        let space = SensitiveSpace::new(slots.len(), cat, num);
        let clusters: Vec<usize> = slots.iter().map(|&s| self.state.assignment[s]).collect();
        let partition = Partition::new(clusters, self.state.model.k())?;
        Ok((matrix, space, partition, slots))
    }

    /// [`resolve_sensitive`] against this engine's frozen schema.
    fn resolve_sensitive(&self, row: &[Value]) -> Result<(Vec<u32>, Vec<f64>), FairKmError> {
        resolve_sensitive(
            &self.schema,
            &self.sens_cat_ids,
            &self.sens_num_ids,
            row,
            self.state.n,
        )
    }

    /// Re-optimize when the per-live-point objective has drifted past the
    /// threshold relative to the post-optimization baseline.
    fn maybe_reoptimize(&mut self) -> (bool, usize) {
        if self.state.model.live() == 0 || self.reopt_passes == 0 {
            return (false, 0);
        }
        let per_point = self.objective / self.state.model.live() as f64;
        let scale = self.baseline_per_point.abs().max(f64::EPSILON);
        let drift = (per_point - self.baseline_per_point) / scale;
        if drift <= self.drift_threshold {
            return (false, 0);
        }
        let moves = self.reoptimize();
        (true, moves)
    }

    /// Number of live (assigned) points.
    pub fn live(&self) -> usize {
        self.state.model.live()
    }

    /// Total backing-store slots, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.state.n
    }

    /// Whether a slot currently holds a live point.
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.state.n && self.state.assignment[slot] != TOMBSTONE
    }

    /// Cluster of a slot, `None` for tombstones and out-of-range slots.
    pub fn assignment_of(&self, slot: usize) -> Option<usize> {
        self.state
            .assignment
            .get(slot)
            .copied()
            .filter(|&c| c != TOMBSTONE)
    }

    /// Live slot ids in ascending (arrival) order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.state.n).filter(|&s| self.is_live(s)).collect()
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.state.model.k()
    }

    /// The frozen λ of the stream (resolved once at bootstrap).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The fairness objective the stream was configured with.
    pub fn objective_kind(&self) -> ObjectiveKind {
        self.state.model.kind()
    }

    /// The active objective's per-cluster cached fairness contributions —
    /// the summands its `assemble` step folds into
    /// [`Self::fairness_term`]. Every public mutation leaves the scoring
    /// cache fresh, so this is a plain read; index `c` is cluster `c`.
    pub fn fairness_contributions(&self) -> Vec<f64> {
        self.state.model.fairness_contribs().to_vec()
    }

    /// The active objective's assembled fairness term over the live
    /// partition (the `F` of `O = kmeans + λ·F`, whatever objective is
    /// configured — Eq. 7 representativity, the bounded-representation
    /// penalty, or a group-welfare variant).
    pub fn fairness_term(&self) -> f64 {
        self.state.model.fairness_term_cached()
    }

    /// Current objective `kmeans + λ·fairness` over the live partition.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Objective trace: seeded after bootstrap initialization, then one
    /// entry per bootstrap pass, per ingest/evict batch, and per
    /// re-optimization pass — the golden-trace corpus pins this sequence.
    /// Bounded: past `MAX_TRACE` (8192) entries the oldest half is dropped,
    /// so a long-lived stream retains a recent-history window rather than
    /// growing without bound.
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }

    /// Re-optimizations run so far (drift-triggered plus explicit).
    pub fn reopts(&self) -> usize {
        self.reopts
    }

    /// Points ingested after bootstrap.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Points evicted.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Current cluster prototypes (means), zeros for empty clusters —
    /// computed from the running aggregates with the engine's exact
    /// arithmetic, so it is directly comparable bitwise across single-node
    /// and sharded runs.
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        let model = &self.state.model;
        (0..model.k())
            .map(|c| {
                let mut out = vec![0.0; model.dim()];
                model.prototype_into(c, &mut out);
                out
            })
            .collect()
    }

    /// Decompose a bootstrapped engine into [`ShardParts`] — the frozen
    /// front-end, the [`ClusterModel`] carrying the exact aggregate and
    /// cache bits, per-slot payloads to partition across shards, and the
    /// driver's frozen parameters and counters. The sharded coordinator
    /// resumes from these parts bitwise where the single-node engine left
    /// off.
    pub fn into_shard_parts(mut self) -> ShardParts {
        self.state.model.refresh_cache();
        let state = &self.state;
        let slots = (0..state.n)
            .map(|i| SlotRow {
                row: state.matrix.row(i).to_vec(),
                cat: state.cat_row(i).to_vec(),
                num: state.num_row(i).to_vec(),
                sqnorm: state.point_sqnorm[i],
                cluster: state.assignment[i],
            })
            .collect();
        let objective_kind = self.objective_kind();
        ShardParts {
            schema: self.schema,
            encoder: self.encoder,
            model: self.state.model,
            slots,
            lambda: self.lambda,
            threads: self.threads,
            window: self.window,
            engine: self.engine,
            objective_kind,
            drift_threshold: self.drift_threshold,
            reopt_passes: self.reopt_passes,
            objective: self.objective,
            baseline_per_point: self.baseline_per_point,
            oldest_hint: self.oldest_hint,
            trace: self.trace,
            inserted: self.inserted,
            evicted: self.evicted,
            reopts: self.reopts,
            sens_cat_ids: self.sens_cat_ids,
            sens_num_ids: self.sens_num_ids,
        }
    }

    /// Serialize the entire driver — format tag, frozen schema and encoder,
    /// optimization state with its delta-maintained aggregates and slot
    /// rows **verbatim**, frozen parameters, and counters — into one byte
    /// blob. Restoring through [`Self::from_snapshot_bytes`] reproduces the
    /// uninterrupted run bitwise: every float travels as its exact IEEE-754
    /// bits, and the scoring caches are re-derived on decode by the same
    /// pure computation that produced them.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot_bytes(&mut out);
        out
    }

    /// Append [`Self::to_snapshot_bytes`] to `out`.
    pub(crate) fn write_snapshot_bytes(&self, out: &mut Vec<u8>) {
        let mut schema = Vec::new();
        fairkm_data::wire_io::put_schema(&mut schema, &self.schema);
        let encoder = self.encoder.to_wire_bytes();
        // Sized once: a buffer grown by doubling holds the old and the new
        // allocation while it copies, and that copy is the serving
        // process's peak memory. 256 bytes cover the fixed-width fields.
        // Power-of-two capacity leaves a reused buffer room to grow.
        let fixed = 8 * self.trace.len() + 256;
        let bound = schema.len() + encoder.len() + fixed + self.state.snapshot_len_bound();
        if out.capacity() - out.len() < bound {
            out.reserve_exact((out.len() + bound).next_power_of_two() - out.len());
        }
        crate::wire::put_u64(out, SNAPSHOT_FORMAT);
        out.extend_from_slice(&schema);
        crate::wire::put_usize(out, encoder.len());
        out.extend_from_slice(&encoder);
        crate::agg::encode_kind(out, self.objective_kind());
        crate::wire::put_f64(out, self.lambda);
        match self.window {
            None => out.push(0),
            Some(w) => {
                out.push(1);
                crate::wire::put_usize(out, w);
            }
        }
        out.push(match self.engine {
            DeltaEngine::Incremental => 0,
            DeltaEngine::Literal => 1,
        });
        crate::wire::put_f64(out, self.drift_threshold);
        crate::wire::put_usize(out, self.reopt_passes);
        crate::wire::put_f64(out, self.objective);
        crate::wire::put_f64(out, self.baseline_per_point);
        crate::wire::put_usize(out, self.oldest_hint);
        crate::wire::put_f64s(out, &self.trace);
        crate::wire::put_usize(out, self.inserted);
        crate::wire::put_usize(out, self.evicted);
        crate::wire::put_usize(out, self.reopts);
        self.state.write_snapshot(out);
    }

    /// Decode a driver serialized by [`Self::to_snapshot_bytes`].
    ///
    /// `threads` is the *restoring* configuration's worker-pool request
    /// (`None` = environment/auto, exactly like
    /// [`crate::FairKmConfig::with_threads`] absent): the thread count never
    /// changes result bits, so a snapshot taken on one machine restores on
    /// another. A payload that does not start with this build's format tag
    /// (one written by an older fairkm) is
    /// [`crate::wire::WireError::UnsupportedVersion`]. Truncated or
    /// malformed input — including shape mismatches between the schema,
    /// encoder, and state — surfaces as a typed [`crate::wire::WireError`],
    /// never a panic.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        threads: Option<usize>,
    ) -> Result<Self, crate::wire::WireError> {
        use crate::wire::{Reader, WireError};
        let invalid = |what: &'static str| WireError::Invalid { what };
        let mut r = Reader::new(bytes);
        let found = r.get_u64()?;
        if found != SNAPSHOT_FORMAT {
            return Err(WireError::UnsupportedVersion {
                found,
                expected: SNAPSHOT_FORMAT,
            });
        }
        let schema = fairkm_data::wire_io::get_schema(&mut r)?;
        let encoder_len = r.get_len(1)?;
        let encoder = FrozenEncoder::from_wire_bytes(r.take(encoder_len)?)?;
        let objective_kind = crate::agg::decode_kind(&mut r)?;
        let lambda = r.get_f64()?;
        let window = match r.take(1)?[0] {
            0 => None,
            1 => Some(r.get_usize()?),
            t => {
                return Err(WireError::UnknownTag {
                    what: "window option",
                    tag: t as u64,
                })
            }
        };
        let engine = match r.take(1)?[0] {
            0 => DeltaEngine::Incremental,
            1 => DeltaEngine::Literal,
            t => {
                return Err(WireError::UnknownTag {
                    what: "delta engine",
                    tag: t as u64,
                })
            }
        };
        let drift_threshold = r.get_f64()?;
        let reopt_passes = r.get_usize()?;
        let objective = r.get_f64()?;
        let baseline_per_point = r.get_f64()?;
        let oldest_hint = r.get_usize()?;
        let trace = r.get_f64s()?;
        let inserted = r.get_usize()?;
        let evicted = r.get_usize()?;
        let reopts = r.get_usize()?;
        let threads = fairkm_parallel::resolve_threads(threads);
        let state = State::read_snapshot(&mut r, objective_kind, threads)?;
        r.expect_empty()?;
        if encoder.arity() != schema.len() {
            return Err(invalid("encoder arity"));
        }
        let (sens_cat_ids, sens_num_ids) = sensitive_ids(&schema);
        let cards = sens_cat_ids
            .iter()
            .map(|&id| schema.attr(id).ok()?.kind.cardinality());
        if !cards.eq(state.model.cat_ts().into_iter().map(Some))
            || sens_num_ids.len() != state.model.n_num()
        {
            return Err(invalid("sensitive attributes vs schema"));
        }
        Ok(Self {
            schema,
            encoder,
            state,
            lambda,
            threads,
            window,
            engine,
            drift_threshold,
            reopt_passes,
            objective,
            baseline_per_point,
            oldest_hint,
            trace,
            inserted,
            evicted,
            reopts,
            sens_cat_ids,
            sens_num_ids,
        })
    }
}

/// An immutable snapshot of the frozen serving path, captured by
/// [`StreamingFairKm::serving_view`]: the frozen schema + encoder, a clone
/// of the engine's [`ClusterModel`] carrying the exact aggregate and cache
/// bits, and the frozen λ. [`Self::assign`] reproduces
/// [`StreamingFairKm::assign_frozen`] bitwise for the captured state
/// without touching the live engine — the read path a server swaps behind
/// an `Arc` on every successful mutation.
#[derive(Debug, Clone)]
pub struct ServingView {
    schema: Schema,
    encoder: FrozenEncoder,
    model: ClusterModel,
    lambda: f64,
    n_slots: usize,
    objective: f64,
    sens_cat_ids: Vec<AttrId>,
    sens_num_ids: Vec<AttrId>,
}

impl ServingView {
    /// Frozen-prototype assignment of an external row — the exact
    /// [`StreamingFairKm::assign_frozen`] computation (validate, encode
    /// through the frozen transforms, score the Eq. 7 insertion deltas)
    /// over the captured state.
    pub fn assign(&self, row: &[Value]) -> Result<usize, FairKmError> {
        Ok(self.assign_scored(row)?.0)
    }

    /// Like [`Self::assign`], also returning the winning insertion delta —
    /// useful for serving responses that expose the score.
    pub fn assign_scored(&self, row: &[Value]) -> Result<(usize, f64), FairKmError> {
        let task = self.encoder.encode_row(row)?;
        let (cat_vals, num_vals) = resolve_sensitive(
            &self.schema,
            &self.sens_cat_ids,
            &self.sens_num_ids,
            row,
            self.n_slots,
        )?;
        Ok(self
            .model
            .score_insertion(&task, &cat_vals, &num_vals, self.lambda))
    }

    /// The frozen schema rows are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.model.k()
    }

    /// Live point count at capture time.
    pub fn live(&self) -> usize {
        self.model.live()
    }

    /// Total backing-store slots at capture time.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Objective `kmeans + λ·fairness` at capture time.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The frozen λ of the stream.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Lambda;
    use fairkm_data::{row, DatasetBuilder};

    /// Two separated blobs, group fully aligned with blob identity.
    fn blobs(n_per_side: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        for i in 0..n_per_side {
            let jitter = (i % 7) as f64 * 0.05;
            b.push_row(row![jitter, jitter, "a"]).unwrap();
            b.push_row(row![5.0 + jitter, 5.0 - jitter, "b"]).unwrap();
        }
        b.build().unwrap()
    }

    fn stream_row(i: usize) -> Vec<Value> {
        let jitter = (i % 5) as f64 * 0.04;
        if i.is_multiple_of(2) {
            row![jitter, jitter, "b"]
        } else {
            row![5.0 - jitter, 5.0 + jitter, "a"]
        }
    }

    fn config(seed: u64) -> StreamingConfig {
        StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(seed)
                .with_lambda(Lambda::Fixed(50.0))
                .with_threads(1),
        )
    }

    #[test]
    fn bootstrap_then_ingest_grows_the_live_partition() {
        let mut s = StreamingFairKm::bootstrap(blobs(20), config(3)).unwrap();
        assert_eq!(s.live(), 40);
        assert_eq!(s.n_slots(), 40);
        let rows: Vec<Vec<Value>> = (0..10).map(stream_row).collect();
        let report = s.ingest(&rows).unwrap();
        assert_eq!(report.slots, 40..50);
        assert_eq!(report.clusters.len(), 10);
        assert_eq!(s.live(), 50);
        assert_eq!(s.inserted(), 10);
        assert!(report.objective.is_finite());
        // Every ingested slot is live and assigned to the reported cluster
        // unless a re-optimization moved it.
        if !report.reoptimized {
            for (slot, &c) in report.slots.clone().zip(&report.clusters) {
                assert_eq!(s.assignment_of(slot), Some(c));
            }
        }
    }

    #[test]
    fn frozen_assignment_matches_ingest_decision() {
        let mut s = StreamingFairKm::bootstrap(blobs(25), config(5)).unwrap();
        for i in 0..12 {
            let r = stream_row(i);
            let served = s.assign_frozen(&r).unwrap();
            let report = s.ingest(std::slice::from_ref(&r)).unwrap();
            assert_eq!(report.clusters, vec![served], "arrival {i}");
        }
    }

    #[test]
    fn serving_view_reproduces_assign_frozen_bitwise() {
        let mut s = StreamingFairKm::bootstrap(blobs(25), config(5)).unwrap();
        for step in 0..10 {
            // Mutate between captures so views span ingests, evictions,
            // and re-optimizations.
            let rows: Vec<Vec<Value>> = (step * 3..step * 3 + 3).map(stream_row).collect();
            s.ingest(&rows).unwrap();
            if step == 4 {
                s.evict_oldest(5).unwrap();
            }
            if step == 7 {
                s.reoptimize();
            }
            let view = s.serving_view();
            assert_eq!(view.k(), s.k());
            assert_eq!(view.live(), s.live());
            assert_eq!(view.n_slots(), s.n_slots());
            assert_eq!(view.objective().to_bits(), s.objective().to_bits());
            for i in 0..20 {
                let r = stream_row(i);
                assert_eq!(
                    view.assign(&r).unwrap(),
                    s.assign_frozen(&r).unwrap(),
                    "step {step} probe {i}"
                );
            }
            // Same typed rejections as the engine path.
            let short = row![1.0];
            let unknown = row![1.0, 1.0, "zzz"];
            assert!(view.assign(&short).is_err());
            assert!(view.assign(&unknown).is_err());
        }
    }

    #[test]
    fn ingest_validates_atomically() {
        let mut s = StreamingFairKm::bootstrap(blobs(10), config(1)).unwrap();
        let before = s.live();
        let bad = vec![stream_row(0), row![1.0, 1.0, "zzz"]];
        assert!(s.ingest(&bad).is_err());
        assert_eq!(s.live(), before, "failed batch must not partially apply");
        assert_eq!(s.n_slots(), before);
        assert!(s.ingest(&[row![1.0]]).is_err(), "arity is checked");
    }

    #[test]
    fn eviction_removes_points_and_rejects_stale_slots() {
        let mut s = StreamingFairKm::bootstrap(blobs(15), config(2)).unwrap();
        s.evict(&[0, 1, 2]).unwrap();
        assert_eq!(s.live(), 27);
        assert_eq!(s.evicted(), 3);
        assert!(!s.is_live(1));
        assert_eq!(s.assignment_of(1), None);
        // Dead, duplicated, and out-of-range slots are all rejected before
        // anything mutates.
        assert!(matches!(s.evict(&[1]), Err(FairKmError::StaleSlot(1))));
        assert!(matches!(s.evict(&[5, 5]), Err(FairKmError::StaleSlot(5))));
        assert!(matches!(s.evict(&[9999]), Err(FairKmError::StaleSlot(_))));
        assert_eq!(s.live(), 27);
    }

    #[test]
    fn delta_ingest_matches_from_scratch_rebuild() {
        // The debug cross-check (debug_validate_cache) runs inside
        // ingest/evict already; this pins the end state explicitly.
        let mut s = StreamingFairKm::bootstrap(blobs(12), config(7)).unwrap();
        let rows: Vec<Vec<Value>> = (0..9).map(stream_row).collect();
        s.ingest(&rows).unwrap();
        s.evict(&[2, 3, 30]).unwrap();
        let cached = s.objective();
        s.state.rebuild();
        let rebuilt = s.state.model.objective_cached(s.lambda());
        assert!(
            (cached - rebuilt).abs() <= 1e-9 * (1.0 + cached.abs().max(rebuilt.abs())),
            "delta objective {cached} vs from-scratch {rebuilt}"
        );
    }

    #[test]
    fn drift_triggers_reoptimization() {
        // Adversarial arrivals — mid-gap points far from both prototypes,
        // group labels fighting the frozen reference — must push the
        // per-point objective past a tight threshold and trigger a reopt.
        let mut s =
            StreamingFairKm::bootstrap(blobs(30), config(4).with_drift_threshold(1e-3)).unwrap();
        let mut triggered = false;
        for batch in 0..8 {
            let rows: Vec<Vec<Value>> = (0..8)
                .map(|i| {
                    let j = ((batch * 8 + i) % 5) as f64 * 0.3;
                    row![2.5 + j, 2.5 - j, "a"]
                })
                .collect();
            triggered |= s.ingest(&rows).unwrap().reoptimized;
        }
        assert!(triggered, "drift threshold never triggered a reopt");
        assert!(s.reopts() > 0);
    }

    #[test]
    fn compaction_reclaims_tombstones_and_preserves_the_clustering() {
        let mut s = StreamingFairKm::bootstrap(blobs(15), config(6)).unwrap();
        let rows: Vec<Vec<Value>> = (0..10).map(stream_row).collect();
        s.ingest(&rows).unwrap();
        s.evict_oldest(8).unwrap();
        let live_before: Vec<Option<usize>> =
            s.live_slots().iter().map(|&x| s.assignment_of(x)).collect();
        let objective_before = s.objective();
        let kept = s.compact().unwrap();
        assert_eq!(kept.len(), s.live());
        assert_eq!(s.n_slots(), s.live(), "no tombstones remain");
        let live_after: Vec<Option<usize>> = (0..s.n_slots()).map(|x| s.assignment_of(x)).collect();
        assert_eq!(
            live_before, live_after,
            "clustering preserved across compaction"
        );
        assert!(
            (objective_before - s.objective()).abs() <= 1e-9 * (1.0 + objective_before.abs()),
            "compaction must not change the objective beyond float renormalization"
        );
        // The slot rows stayed aligned: live views still build.
        let (m, space, partition, slots) = s.live_views().unwrap();
        assert_eq!(m.rows(), s.live());
        assert_eq!(space.n_rows(), s.live());
        assert_eq!(partition.n_points(), s.live());
        assert_eq!(slots.len(), s.live());
    }

    #[test]
    fn live_views_reflect_the_live_distribution() {
        let mut s = StreamingFairKm::bootstrap(blobs(10), config(9)).unwrap();
        // Ingest only group-"a" rows: the live distribution shifts toward
        // "a" while the optimizer's reference stays frozen.
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                let j = (i % 3) as f64 * 0.1;
                row![j, j, "a"]
            })
            .collect();
        s.ingest(&rows).unwrap();
        let (_, space, partition, _) = s.live_views().unwrap();
        let dist = space.categorical()[0].dataset_dist().to_vec();
        assert!(dist[0] > 0.5, "live distribution leans 'a': {dist:?}");
        assert_eq!(partition.n_points(), 30);
    }

    #[test]
    fn streaming_matches_quality_of_batch_refit_on_stationary_stream() {
        // On a stationary stream the streaming clusterer (frozen serving +
        // reopt) must stay in the same fairness regime as a full refit.
        let mut s =
            StreamingFairKm::bootstrap(blobs(40), config(8).with_drift_threshold(0.01)).unwrap();
        let mut all = blobs(40);
        for i in 0..40 {
            let r = stream_row(i);
            all.append_row(r.clone()).unwrap();
            s.ingest(&[r]).unwrap();
        }
        s.reoptimize();
        let refit = crate::FairKm::new(
            FairKmConfig::new(2)
                .with_seed(8)
                .with_lambda(Lambda::Fixed(50.0)),
        )
        .fit(&all)
        .unwrap();
        let (_, space, partition, _) = s.live_views().unwrap();
        let report = fairkm_metrics_free_fairness(&space, &partition);
        let refit_report =
            fairkm_metrics_free_fairness(&all.sensitive_space().unwrap(), refit.partition());
        assert!(
            report <= refit_report * 3.0 + 0.05,
            "streaming fairness {report} vs refit {refit_report}"
        );
    }

    /// Mean squared deviation of cluster distributions from the dataset
    /// distribution — a dependency-free stand-in for the AE metric
    /// (fairkm-metrics is not a dependency of fairkm-core).
    fn fairkm_metrics_free_fairness(space: &SensitiveSpace, partition: &Partition) -> f64 {
        let attr = &space.categorical()[0];
        let reference = attr.dataset_dist();
        let members = partition.members();
        let mut total = 0.0;
        let mut clusters = 0usize;
        for m in members.iter().filter(|m| !m.is_empty()) {
            let counts = attr.counts_over(m);
            let inv = 1.0 / m.len() as f64;
            total += counts
                .iter()
                .zip(reference)
                .map(|(&c, &r)| {
                    let d = c as f64 * inv - r;
                    d * d
                })
                .sum::<f64>();
            clusters += 1;
        }
        total / clusters.max(1) as f64
    }

    #[test]
    fn streaming_is_deterministic_per_seed() {
        let run = || {
            let mut s = StreamingFairKm::bootstrap(blobs(20), config(11)).unwrap();
            for batch in 0..4 {
                let rows: Vec<Vec<Value>> = (batch * 6..batch * 6 + 6).map(stream_row).collect();
                s.ingest(&rows).unwrap();
            }
            s.evict_oldest(10).unwrap();
            (
                s.live_slots()
                    .iter()
                    .map(|&x| s.assignment_of(x).unwrap())
                    .collect::<Vec<_>>(),
                s.objective().to_bits(),
                s.trace().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fairness_contributions_track_the_active_objective() {
        for kind in [
            ObjectiveKind::Representativity,
            ObjectiveKind::bounded(),
            ObjectiveKind::Utilitarian,
            ObjectiveKind::Egalitarian,
        ] {
            let mut s = StreamingFairKm::bootstrap(
                blobs(15),
                config(4).with_base(
                    FairKmConfig::new(2)
                        .with_seed(4)
                        .with_lambda(Lambda::Fixed(50.0))
                        .with_threads(1)
                        .with_objective(kind),
                ),
            )
            .unwrap();
            assert_eq!(s.objective_kind(), kind);
            let rows: Vec<Vec<Value>> = (0..6).map(stream_row).collect();
            s.ingest(&rows).unwrap();
            let contribs = s.fairness_contributions();
            assert_eq!(contribs.len(), s.k());
            // Every shipped objective assembles additively, and the
            // monitored term must be consistent with the objective.
            let total: f64 = contribs.iter().sum();
            assert!(
                (total - s.fairness_term()).abs() <= 1e-12 * (1.0 + total.abs()),
                "{kind:?}: contribs sum {total} vs term {}",
                s.fairness_term()
            );
            let recomposed = s.objective() - s.lambda() * s.fairness_term();
            assert!(
                recomposed.is_finite() && s.fairness_term() >= 0.0,
                "{kind:?}: fairness term {}",
                s.fairness_term()
            );
        }
    }

    #[test]
    fn bootstrap_validates_inputs() {
        assert!(matches!(
            StreamingFairKm::bootstrap(blobs(1), config(0).with_base(FairKmConfig::new(0))),
            Err(FairKmError::InvalidK { .. })
        ));
        assert!(matches!(
            StreamingFairKm::bootstrap(blobs(1), config(0).with_base(FairKmConfig::new(99))),
            Err(FairKmError::InvalidK { .. })
        ));
        assert!(matches!(
            StreamingFairKm::bootstrap(
                blobs(4),
                config(0).with_base(FairKmConfig::new(2).with_lambda(Lambda::Fixed(f64::NAN)))
            ),
            Err(FairKmError::InvalidLambda(_))
        ));
    }

    impl StreamingConfig {
        /// Test helper: swap the base config while keeping streaming knobs.
        fn with_base(mut self, base: FairKmConfig) -> Self {
            self.base = base;
            self
        }
    }
}
