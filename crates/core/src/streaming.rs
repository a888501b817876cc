//! Streaming FairKM: online ingestion with incremental insert/delete
//! deltas, frozen-prototype serving, and drift-triggered re-optimization.
//!
//! The batch algorithm answers "cluster these |X| records once"; this
//! module answers the ROADMAP's long-lived-service question: points arrive
//! continuously, stale points leave, and assignments must be served with
//! low latency. Three ideas make that work without giving up the paper's
//! objective:
//!
//! 1. **Delta ingestion.** [`StreamingFairKm::ingest`] validates and
//!    encodes each arrival through [`RowCodec::encode`] (the frozen schema
//!    plus the normalization captured at bootstrap — later rows never
//!    re-shift the space), scores the whole batch against the scoring
//!    caches **frozen at batch start**, and then applies the insertions as
//!    O(dim + Σ|Values(S)|) aggregate deltas — the same machinery
//!    `apply_move` uses, extended to points entering and leaving the
//!    clustering.
//! 2. **Frozen-prototype serving.** Assignment of a new point never
//!    triggers optimization: it is one read-only pass over the cached
//!    prototypes plus an exact Eq. 7 insertion delta
//!    (`ClusterModel::score_insertion`). Bera et al. (*Fair Algorithms for
//!    Clustering*) justify exactly this split — fairness-aware decisions
//!    survive in the assignment phase alone — so the serve path stays
//!    O(k·(dim + Σ|Values(S)|)) per point.
//! 3. **Drift-triggered re-optimization.** Greedy frozen assignment slowly
//!    degrades the objective. The [`DriverLedger`] tracks the
//!    per-live-point objective against the post-reoptimization baseline
//!    and, past a relative [`StreamingConfig::drift_threshold`], the driver
//!    runs windowed mini-batch passes (the same pass the batch fit runs;
//!    tombstoned slots propose no moves) until convergence or
//!    [`StreamingConfig::reopt_passes`].
//!
//! Ingest, eviction, re-optimization and the bootstrap fit are not written
//! here: each is a [`Machine`] — the one control flow the sharded
//! coordinator runs too — that this engine answers with local calls on its
//! slot rows (see [`crate::machine`]).
//!
//! Each row is stored once, in the engine's slot rows. The [`RowCodec`]
//! and the [`DriverLedger`] are held once too: a [`ServingView`] shares
//! the codec by `Arc`, and the sharded coordinator takes over both.
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

use crate::agg::{SlotRow, SlotTable, TOMBSTONE};
use crate::config::{DeltaEngine, FairKmConfig, FairKmError, ObjectiveKind, UpdateSchedule};
use crate::fairkm::{initial_assignment, resolve_weights};
use crate::machine::{Host, Local, Machine};
use crate::minibatch::MiniBatchFairKm;
use crate::state::{ClusterModel, State, WindowMemo};
use crate::wire::{self, Reader, WireError};
use fairkm_data::{
    wire_io, AttrId, AttrKind, Dataset, FrozenEncoder, NumericMatrix, Partition, Role, Schema,
    SensitiveCat, SensitiveNum, SensitiveSpace, Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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

/// The frozen row front-end: the schema arrivals are validated against,
/// the encoder that maps them into the task space, and the schema's
/// sensitive attribute ids (categorical then numeric, each in schema
/// order — the order the engine stores a slot's codes in). Built once at
/// bootstrap and shared by `Arc` between the engine, its serving views and
/// a sharded coordinator: they all validate and encode arrivals through
/// [`Self::encode`], so they accept and reject exactly the same rows.
#[derive(Debug)]
pub struct RowCodec {
    schema: Schema,
    encoder: FrozenEncoder,
    sens_cat_ids: Vec<AttrId>,
    sens_num_ids: Vec<AttrId>,
}

impl RowCodec {
    /// Pair a schema with its frozen encoder (of the schema's arity) and
    /// derive the sensitive ids.
    fn new(schema: Schema, encoder: FrozenEncoder) -> Self {
        let (cat, num): (Vec<_>, Vec<_>) = schema
            .iter()
            .filter(|(_, a)| a.role == Role::Sensitive)
            .partition(|(_, a)| a.kind.is_categorical());
        let ids = |v: Vec<(AttrId, _)>| v.into_iter().map(|(id, _)| id).collect();
        Self {
            sens_cat_ids: ids(cat),
            sens_num_ids: ids(num),
            schema,
            encoder,
        }
    }

    /// Validate and encode one arrival. The frozen encoder checks the
    /// row's arity and its task cells first; then every sensitive cell is
    /// resolved against its attribute (categorical indices first, numeric
    /// second); then every auxiliary cell is resolved and discarded — the
    /// engine stores no auxiliary data, but a row with a bad auxiliary
    /// cell is still a bad row. `n_slots` is the current slot count, which
    /// numeric resolution reports in its errors.
    ///
    /// Returns the row as a [`TOMBSTONE`] [`SlotRow`]: task vector,
    /// sensitive codes and values, and `‖x‖²`. A task vector whose `‖x‖²`
    /// is not finite is [`FairKmError::NormOverflow`], checked last: every
    /// aggregate that sums it would turn to ∞, then to NaN on removal.
    pub fn encode(&self, row: &[Value], n_slots: usize) -> Result<SlotRow, FairKmError> {
        let task = self.encoder.encode_row(row)?;
        let cat = self
            .sens_cat_ids
            .iter()
            .map(|&id| self.schema.attr(id)?.resolve_categorical(&row[id.index()]))
            .collect::<Result<Vec<_>, _>>()?;
        let num = self
            .sens_num_ids
            .iter()
            .map(|&id| {
                self.schema
                    .attr(id)?
                    .resolve_numeric(&row[id.index()], n_slots)
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (id, attr) in self
            .schema
            .iter()
            .filter(|(_, a)| a.role == Role::Auxiliary)
        {
            let cell = &row[id.index()];
            match attr.kind {
                AttrKind::Numeric => attr.resolve_numeric(cell, n_slots).map(drop)?,
                AttrKind::Categorical { .. } => attr.resolve_categorical(cell).map(drop)?,
            }
        }
        let sqnorm = crate::state::sqnorm(&task);
        if !sqnorm.is_finite() {
            return Err(FairKmError::NormOverflow);
        }
        Ok(SlotRow {
            sqnorm,
            row: task,
            cat,
            num,
            cluster: TOMBSTONE,
        })
    }

    /// [`Self::encode`] every row of a batch, stopping at the first bad
    /// one: a batch is accepted or rejected whole.
    pub fn encode_all(
        &self,
        rows: &[Vec<Value>],
        n_slots: usize,
    ) -> Result<Vec<SlotRow>, FairKmError> {
        rows.iter().map(|row| self.encode(row, n_slots)).collect()
    }

    /// Append the wire form: the schema, then the length-prefixed encoder.
    pub fn put(&self, out: &mut Vec<u8>) {
        wire_io::put_schema(out, &self.schema);
        let encoder = self.encoder.to_wire_bytes();
        wire::put_usize(out, encoder.len());
        out.extend_from_slice(&encoder);
    }

    /// Decode [`Self::put`]. The sensitive ids are derived from the
    /// schema, and an encoder whose arity is not the schema's length is
    /// [`WireError::Invalid`]. A decoded codec must still be checked
    /// against the model it serves with [`Self::check`].
    pub fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let schema = wire_io::get_schema(r)?;
        let encoder_len = r.get_len(1)?;
        let encoder = FrozenEncoder::from_wire_bytes(r.take(encoder_len)?)?;
        if encoder.arity() != schema.len() {
            return Err(WireError::Invalid {
                what: "encoder arity",
            });
        }
        Ok(Self::new(schema, encoder))
    }

    /// Check that this codec feeds `model`: the encoded width is the
    /// model's dimension, and the sensitive attributes have the model's
    /// categorical cardinalities and numeric count. A mismatch (a corrupt
    /// or foreign snapshot) is [`WireError::Invalid`] — otherwise a later
    /// arrival would index the model's aggregates out of range.
    pub fn check(&self, model: &ClusterModel) -> Result<(), WireError> {
        let cards = self
            .sens_cat_ids
            .iter()
            .map(|&id| self.schema.attr(id).ok()?.kind.cardinality());
        if self.encoder.cols() != model.dim()
            || !cards.eq(model.cat_ts().into_iter().map(Some))
            || self.sens_num_ids.len() != model.n_num()
        {
            return Err(WireError::Invalid {
                what: "row codec vs model",
            });
        }
        Ok(())
    }
}

/// Leading `u64` of every [`StreamPayload`]: the bytes `FKSTRM03`. Earlier
/// formats carry another tag (`FKSTRM02`) or, from before the tag existed,
/// a length prefix far below 2^56, so they can never carry it.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"FKSTRM03");

/// Retained objective-trace ceiling. A long-lived stream pushes one entry
/// per ingest/evict batch and per optimization pass; past this many the
/// oldest half is dropped so telemetry memory stays bounded for the
/// service lifetime (drains amortize to O(1) per push).
pub const MAX_TRACE: usize = 8192;

/// The streaming driver's parameters and bookkeeping: the frozen λ, the
/// scan window, the δ engine and re-optimization parameters, the current
/// objective, the drift baseline, the eviction cursor, the bounded
/// objective trace and the ingest/evict/re-optimization counters. The single-node engine and
/// the sharded coordinator keep one each and update it through the same
/// methods, so their drift decisions, traces and counters agree bit for
/// bit.
#[derive(Debug, Clone)]
pub struct DriverLedger {
    lambda: f64,
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
    /// keeps repeated oldest-first evictions from rescanning the whole
    /// backing store.
    oldest_hint: usize,
    trace: Vec<f64>,
    inserted: usize,
    evicted: usize,
    reopts: usize,
}

impl DriverLedger {
    /// The frozen λ of the stream.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The δ engine.
    pub fn engine(&self) -> DeltaEngine {
        self.engine
    }

    /// Current objective `kmeans + λ·fairness` over the live partition.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Refresh `model`'s scoring cache and take the current objective
    /// from it.
    pub fn reread(&mut self, model: &mut ClusterModel) {
        model.refresh_cache();
        self.objective = model.objective_cached(self.lambda);
    }

    /// Maximum windowed passes per re-optimization.
    pub fn reopt_passes(&self) -> usize {
        self.reopt_passes
    }

    /// The bounded objective trace.
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }

    /// Re-optimizations run (drift-triggered plus explicit).
    pub fn reopts(&self) -> usize {
        self.reopts
    }

    /// Scan-window size of a pass over `n_slots` slots: the pinned window,
    /// or [`MiniBatchFairKm::auto_batch`].
    pub fn window(&self, n_slots: usize) -> usize {
        self.window
            .unwrap_or_else(|| MiniBatchFairKm::auto_batch(n_slots))
    }

    /// Push onto the bounded objective trace (see [`MAX_TRACE`]): past the
    /// ceiling the oldest half is dropped before appending.
    pub fn push_trace(&mut self, value: f64) {
        if self.trace.len() >= MAX_TRACE {
            self.trace.drain(..MAX_TRACE / 2);
        }
        self.trace.push(value);
    }

    /// Record an applied ingest or evict batch that left the objective at
    /// `objective`: trace it, and count the points inserted and evicted.
    pub fn record_batch(&mut self, objective: f64, inserted: usize, evicted: usize) {
        self.objective = objective;
        self.push_trace(objective);
        self.inserted += inserted;
        self.evicted += evicted;
    }

    /// The drift test: whether the per-live-point objective over `live`
    /// points has drifted past the threshold relative to the
    /// post-optimization baseline (never with re-optimization disabled or
    /// nothing live).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn drifted(&self, live: usize) -> bool {
        if live == 0 || self.reopt_passes == 0 {
            return false;
        }
        let per_point = self.objective / live as f64;
        let scale = self.baseline_per_point.abs().max(f64::EPSILON);
        let drift = (per_point - self.baseline_per_point) / scale;
        // Not `drift > threshold`: a NaN drift re-optimizes.
        !(drift <= self.drift_threshold)
    }

    /// Close a re-optimization that ended at `objective` with `live` live
    /// points: count it and reset the drift baseline.
    pub fn close_reopt(&mut self, objective: f64, live: usize) {
        self.reopts += 1;
        self.rebase(objective, live);
    }

    /// Set the objective and, when anything is live, the drift baseline.
    pub(crate) fn rebase(&mut self, objective: f64, live: usize) {
        self.objective = objective;
        if live > 0 {
            self.baseline_per_point = objective / live as f64;
        }
    }

    /// Validate an eviction request before anything mutates: duplicates
    /// first (reporting the smallest duplicated slot), then liveness in
    /// the given order. Dead, out-of-range and duplicated slots are
    /// [`FairKmError::StaleSlot`].
    pub fn check_evict(
        slots: &[usize],
        is_live: impl Fn(usize) -> bool,
    ) -> Result<(), FairKmError> {
        let mut seen = slots.to_vec();
        seen.sort_unstable();
        let duplicate = seen.windows(2).find(|p| p[0] == p[1]).map(|p| p[0]);
        match duplicate.or_else(|| slots.iter().copied().find(|&s| !is_live(s))) {
            Some(slot) => Err(FairKmError::StaleSlot(slot)),
            None => Ok(()),
        }
    }

    /// The eviction cursor: every slot below it is dead, so oldest-first
    /// evictions scan from here.
    pub fn oldest(&self) -> usize {
        self.oldest_hint
    }

    /// Move the eviction cursor to `cursor`, the first live slot (or the
    /// slot count). Everything below it stays dead: arbitrary evicts only
    /// kill more slots, ingest appends at the end, and compaction resets
    /// the cursor.
    pub(crate) fn set_oldest(&mut self, cursor: usize) {
        self.oldest_hint = cursor;
    }

    /// Check a decoded ledger against the `n_slots` slots it was stored
    /// with: the eviction cursor lies within them and every slot below it
    /// is dead. Otherwise an oldest-first eviction would skip live points
    /// or evict out of order.
    pub fn check_cursor(
        &self,
        n_slots: usize,
        is_live: impl Fn(usize) -> bool,
    ) -> Result<(), WireError> {
        if self.oldest_hint > n_slots || (0..self.oldest_hint).any(is_live) {
            return Err(WireError::Invalid {
                what: "eviction cursor",
            });
        }
        Ok(())
    }

    /// Append the wire form.
    pub fn put(&self, out: &mut Vec<u8>) {
        wire::put_f64(out, self.lambda);
        match self.window {
            None => out.push(0),
            Some(w) => {
                out.push(1);
                wire::put_usize(out, w);
            }
        }
        out.push(match self.engine {
            DeltaEngine::Incremental => 0,
            DeltaEngine::Literal => 1,
        });
        wire::put_f64(out, self.drift_threshold);
        wire::put_usize(out, self.reopt_passes);
        wire::put_f64(out, self.objective);
        wire::put_f64(out, self.baseline_per_point);
        wire::put_usize(out, self.oldest_hint);
        wire::put_f64s(out, &self.trace);
        wire::put_usize(out, self.inserted);
        wire::put_usize(out, self.evicted);
        wire::put_usize(out, self.reopts);
    }

    /// Decode [`Self::put`]. A negative or non-finite λ is
    /// [`WireError::Invalid`], as bootstrap rejects it. The eviction cursor
    /// still has to pass [`Self::check_cursor`] against the decoded slots.
    pub fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let lambda = r.get_f64()?;
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(WireError::Invalid { what: "λ" });
        }
        let window = match r.take(1)?[0] {
            0 => None,
            1 => match r.get_usize()? {
                // A zero-width window would never advance a pass.
                0 => {
                    return Err(WireError::Invalid {
                        what: "scan window",
                    })
                }
                w => Some(w),
            },
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
        Ok(Self {
            lambda,
            window,
            engine,
            drift_threshold: r.get_f64()?,
            reopt_passes: r.get_usize()?,
            objective: r.get_f64()?,
            baseline_per_point: r.get_f64()?,
            oldest_hint: r.get_usize()?,
            trace: r.get_f64s()?,
            inserted: r.get_usize()?,
            evicted: r.get_usize()?,
            reopts: r.get_usize()?,
        })
    }
}

/// A stream's whole state in its one wire form, `FKSTRM03`: the format
/// tag, the [`RowCodec`], the [`DriverLedger`], the fallback count, the
/// [`ClusterModel`] and the [`SlotTable`]. Both hosts write it with
/// [`Self::put`] and read it with [`Self::get`], so at an operation
/// boundary their payloads are equal byte for byte. It is also the
/// hand-off a sharded deployment starts from.
#[derive(Debug)]
pub struct StreamPayload {
    /// The frozen row front-end.
    pub codec: Arc<RowCodec>,
    /// The driver's parameters and bookkeeping.
    pub ledger: DriverLedger,
    /// Windows that fell back to the sequential scan.
    pub fallbacks: usize,
    /// The aggregate engine, caches refreshed.
    pub model: ClusterModel,
    /// Every slot, tombstones included.
    pub table: SlotTable<'static>,
}

impl StreamPayload {
    /// Append the payload. The buffer is sized once for the slot table:
    /// one grown by doubling holds two allocations while it copies, a
    /// serving process's peak memory at n=100k. A power-of-two capacity
    /// leaves room to grow.
    pub fn put(
        out: &mut Vec<u8>,
        codec: &RowCodec,
        ledger: &DriverLedger,
        fallbacks: usize,
        model: &ClusterModel,
        table: &SlotTable<'_>,
    ) {
        debug_assert!(model.cache_is_fresh(), "restore would refresh stale caches");
        wire::put_u64(out, SNAPSHOT_FORMAT);
        codec.put(out);
        ledger.put(out);
        wire::put_usize(out, fallbacks);
        out.extend(model.to_bytes());
        let len = table.encoded_len();
        if out.capacity() - out.len() < len {
            out.reserve_exact((out.len() + len).next_power_of_two() - out.len());
        }
        table.put(out);
    }

    /// Decode [`Self::put`] and check the whole: a payload that does not
    /// start with this build's format tag is
    /// [`WireError::UnsupportedVersion`]; the codec must feed the model
    /// ([`RowCodec::check`]), the slots must fit it and match its counts
    /// ([`SlotTable::get`], [`SlotTable::check_counts`]), and the ledger's
    /// eviction cursor must fit the slots. Malformed input is a typed
    /// [`WireError`], never a panic.
    pub fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let found = r.get_u64()?;
        if found != SNAPSHOT_FORMAT {
            return Err(WireError::UnsupportedVersion {
                found,
                expected: SNAPSHOT_FORMAT,
            });
        }
        let codec = Arc::new(RowCodec::get(r)?);
        let ledger = DriverLedger::get(r)?;
        let fallbacks = r.get_usize()?;
        let model = ClusterModel::from_reader(r)?;
        codec.check(&model)?;
        let table = SlotTable::get(r, &model)?;
        table.check_counts(&model)?;
        ledger.check_cursor(table.n_slots(), |s| table.live(s).is_some())?;
        Ok(Self {
            codec,
            ledger,
            fallbacks,
            model,
            table,
        })
    }
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
    codec: Arc<RowCodec>,
    state: State<'static>,
    ledger: DriverLedger,
}

// `Debug` for State is intentionally absent (it holds only derived data);
// keep the driver debuggable without dumping megabytes of aggregates.
impl std::fmt::Debug for State<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("n", &self.n())
            .field("live", &self.model.live())
            .field("k", &self.model.k())
            .field("dim", &self.model.dim())
            .finish_non_exhaustive()
    }
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
        let state = State::with_norm(
            std::borrow::Cow::Owned(matrix),
            &space,
            &weights,
            k,
            assignment,
            base.fairness_norm,
            base.objective,
            threads,
        );
        let objective = state.model.objective_cached(lambda);
        let ledger = DriverLedger {
            lambda,
            window: match base.schedule {
                UpdateSchedule::MiniBatch(batch) => Some(batch),
                UpdateSchedule::PerMove => None,
            },
            engine: base.delta_engine,
            drift_threshold: config.drift_threshold,
            reopt_passes: config.reopt_passes,
            objective,
            baseline_per_point: 0.0,
            oldest_hint: 0,
            trace: vec![objective],
            inserted: 0,
            evicted: 0,
            reopts: 0,
        };
        let mut stream = Self {
            codec: Arc::new(RowCodec::new(dataset.schema().clone(), encoder)),
            state,
            ledger,
        };
        let host = stream.host();
        Local::run(&host, Machine::bootstrap(&host, base.max_iters));
        drop(host);
        Ok(stream)
    }

    /// Serve an assignment for a row **without ingesting it**: validate and
    /// encode through the frozen transforms, then score against the cached
    /// prototypes and Eq. 7 insertion deltas. Read-only and O(k·(dim +
    /// Σ|Values(S)|)) — the low-latency path.
    pub fn assign_frozen(&self, row: &[Value]) -> Result<usize, FairKmError> {
        let r = self.codec.encode(row, self.state.n())?;
        let model = &self.state.model;
        Ok(model
            .score_insertion(&r.row, &r.cat, &r.num, self.ledger.lambda)
            .0)
    }

    /// Capture an immutable, owned snapshot of the frozen serving path —
    /// everything [`Self::assign_frozen`] needs, detached from the live
    /// engine. A serving layer publishes one behind an `Arc` after each
    /// mutation so reads never block behind writes; [`ServingView::assign`]
    /// reproduces `assign_frozen`'s result bitwise for the state at capture
    /// time. The view shares the engine's [`RowCodec`] and clones its
    /// aggregates, caches and frozen reference: O(k·(dim +
    /// Σ|Values(S)|)), independent of the number of points.
    pub fn serving_view(&self) -> ServingView {
        debug_assert!(self.state.model.cache_is_fresh());
        ServingView {
            codec: Arc::clone(&self.codec),
            model: self.state.model.clone(),
            lambda: self.ledger.lambda,
            n_slots: self.state.n(),
            objective: self.ledger.objective,
        }
    }

    /// Ingest a batch of rows: validate against the frozen schema (atomic —
    /// a bad row rejects the whole batch before anything mutates), assign
    /// every row against the caches frozen at batch start (scored in
    /// parallel, deterministically), apply the insertions as aggregate
    /// deltas in arrival order, then run the drift check.
    pub fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<IngestReport, FairKmError> {
        let rows = self.codec.encode_all(rows, self.state.n())?;
        let host = self.host();
        Ok(Local::run(&host, Machine::ingest(&host, rows)))
    }

    /// Evict the given live slots (stale points leaving the stream),
    /// applying the inverse insertion deltas, then run the drift check.
    /// Rejects dead, out-of-range, or duplicated slots before mutating
    /// anything, so a failed call leaves the clustering unchanged.
    pub fn evict(&mut self, slots: &[usize]) -> Result<EvictReport, FairKmError> {
        let host = self.host();
        let machine = Machine::evict(&host, slots.to_vec())?;
        Ok(Local::run(&host, machine))
    }

    /// Evict the `count` oldest live points (lowest slot indices) — the
    /// sliding-window retention policy. The scan starts at a maintained
    /// oldest-live cursor (every slot below it is known dead), so repeated
    /// per-batch calls cost O(count + dead-since-last-call), not O(total
    /// slots ever ingested).
    pub fn evict_oldest(&mut self, count: usize) -> Result<EvictReport, FairKmError> {
        let host = self.host();
        Ok(Local::run(&host, Machine::evict_oldest(&host, count)))
    }

    /// Run windowed re-optimization passes over the live partition until no
    /// pass moves a point or [`StreamingConfig::reopt_passes`] is reached
    /// (0 passes = re-optimization disabled; drift tracking still resets
    /// its baseline), then reset the drift baseline. Returns the number of
    /// moves.
    pub fn reoptimize(&mut self) -> usize {
        let host = self.host();
        Local::run(&host, Machine::reoptimize(&host))
    }

    /// The engine as the host of a [`Machine`]: its state, answering every
    /// request locally, with its ledger.
    pub(crate) fn host(&mut self) -> Host<Local<'_, 'static>> {
        Rc::new(RefCell::new(Local {
            state: &mut self.state,
            lambda: self.ledger.lambda,
            engine: self.ledger.engine,
            ledger: Some(&mut self.ledger),
            memo: WindowMemo::default(),
        }))
    }

    /// Drop every tombstoned slot from the backing store, renumbering the
    /// survivors. Returns the old slot index each new slot held (so
    /// external slot bookkeeping can be renumbered). Invalidates previously
    /// returned slot ids.
    pub fn compact(&mut self) -> Result<Vec<usize>, FairKmError> {
        let kept = self.state.compact();
        self.ledger.reread(&mut self.state.model);
        self.ledger.oldest_hint = 0;
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
        let table = self.state.table.select(&slots);
        let dim = self.state.model.dim();
        let codec = &self.codec;
        let mut cat = Vec::with_capacity(codec.sens_cat_ids.len());
        for (a, &id) in codec.sens_cat_ids.iter().enumerate() {
            let attr = codec.schema.attr(id)?;
            let AttrKind::Categorical { values: labels } = &attr.kind else {
                unreachable!("categorical sensitive ids name categorical attributes");
            };
            let codes = (0..slots.len()).map(|x| table.cat(x)[a]).collect();
            cat.push(SensitiveCat::new(
                id,
                attr.name.clone(),
                labels.clone(),
                codes,
            ));
        }
        let mut num = Vec::with_capacity(codec.sens_num_ids.len());
        for (a, &id) in codec.sens_num_ids.iter().enumerate() {
            let values = (0..slots.len()).map(|x| table.num(x)[a]).collect();
            num.push(SensitiveNum::new(
                id,
                codec.schema.attr(id)?.name.clone(),
                values,
            ));
        }
        let space = SensitiveSpace::new(slots.len(), cat, num);
        let partition = Partition::new(table.clusters, self.state.model.k())?;
        let names = vec![String::new(); dim];
        let matrix = NumericMatrix::from_parts(table.rows.into_owned(), slots.len(), dim, names);
        Ok((matrix, space, partition, slots))
    }

    /// Number of live (assigned) points.
    pub fn live(&self) -> usize {
        self.state.model.live()
    }

    /// Total backing-store slots, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.state.n()
    }

    /// Whether a slot currently holds a live point.
    pub fn is_live(&self, slot: usize) -> bool {
        self.assignment_of(slot).is_some()
    }

    /// Cluster of a slot, `None` for tombstones and out-of-range slots.
    pub fn assignment_of(&self, slot: usize) -> Option<usize> {
        self.state.table.live(slot)
    }

    /// Live slot ids in ascending (arrival) order.
    pub fn live_slots(&self) -> Vec<usize> {
        self.state.table.live_slots()
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.state.model.k()
    }

    /// The frozen λ of the stream (resolved once at bootstrap).
    pub fn lambda(&self) -> f64 {
        self.ledger.lambda
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
        self.ledger.objective
    }

    /// Objective trace: seeded after bootstrap initialization, then one
    /// entry per bootstrap pass, per ingest/evict batch, and per
    /// re-optimization pass — the golden-trace corpus pins this sequence.
    /// Bounded: past `MAX_TRACE` (8192) entries the oldest half is dropped,
    /// so a long-lived stream retains a recent-history window rather than
    /// growing without bound.
    pub fn trace(&self) -> &[f64] {
        &self.ledger.trace
    }

    /// Re-optimizations run so far (drift-triggered plus explicit).
    pub fn reopts(&self) -> usize {
        self.ledger.reopts
    }

    /// Points ingested after bootstrap.
    pub fn inserted(&self) -> usize {
        self.ledger.inserted
    }

    /// Points evicted.
    pub fn evicted(&self) -> usize {
        self.ledger.evicted
    }

    /// Exact aggregate rebuilds this engine has installed: the bootstrap's
    /// initial one, then one after each optimizer pass that moved a point.
    /// Not persisted: a restored engine counts from zero.
    pub fn rebuilds(&self) -> usize {
        self.state.rebuilds
    }

    /// Windows whose simultaneous moves failed monotone acceptance and
    /// were descended one move at a time. Persisted with the stream.
    pub fn fallbacks(&self) -> usize {
        self.state.fallbacks
    }

    /// Live slots the per-move descent scored with the exact kernel;
    /// slots a window memo proved cannot move are not counted. Not
    /// persisted: a restored engine counts from zero.
    pub fn descent_scored(&self) -> usize {
        self.state.descent_scored
    }

    /// Current cluster prototypes (means), zeros for empty clusters —
    /// see [`ClusterModel::prototypes`].
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        self.state.model.prototypes()
    }

    /// Decompose the engine into its [`StreamPayload`], caches refreshed:
    /// the hand-off a sharded coordinator resumes from, bitwise where the
    /// single-node engine left off.
    pub fn into_payload(mut self) -> StreamPayload {
        self.state.model.refresh_cache();
        StreamPayload {
            codec: self.codec,
            ledger: self.ledger,
            fallbacks: self.state.fallbacks,
            model: self.state.model,
            table: self.state.table,
        }
    }

    /// Serialize the entire driver into one byte blob, its
    /// [`StreamPayload`], with the delta-maintained aggregates and slot
    /// rows **verbatim**. Restoring through [`Self::from_snapshot_bytes`]
    /// reproduces the uninterrupted run bitwise: every float travels as
    /// its exact IEEE-754 bits, and the scoring caches and row norms are
    /// re-derived on decode by the same pure computations that produced
    /// them. A sharded coordinator at the same operation boundary embeds
    /// the same bytes.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot_bytes(&mut out);
        out
    }

    /// Append [`Self::to_snapshot_bytes`] to `out`.
    pub(crate) fn write_snapshot_bytes(&self, out: &mut Vec<u8>) {
        let (s, ledger) = (&self.state, &self.ledger);
        StreamPayload::put(out, &self.codec, ledger, s.fallbacks, &s.model, &s.table);
    }

    /// Decode a driver serialized by [`Self::to_snapshot_bytes`]: the
    /// checks are [`StreamPayload::get`]'s.
    ///
    /// `threads` is the *restoring* configuration's worker-pool request
    /// (`None` = environment/auto, exactly like
    /// [`crate::FairKmConfig::with_threads`] absent): the thread count never
    /// changes result bits, so a snapshot taken on one machine restores on
    /// another. A payload that does not start with this build's format tag
    /// (one written by an older fairkm) is
    /// [`WireError::UnsupportedVersion`].
    pub fn from_snapshot_bytes(bytes: &[u8], threads: Option<usize>) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let p = StreamPayload::get(&mut r)?;
        r.expect_empty()?;
        let state = State {
            model: p.model,
            table: p.table,
            threads: fairkm_parallel::resolve_threads(threads),
            rebuilds: 0,
            fallbacks: p.fallbacks,
            descent_scored: 0,
        };
        Ok(Self {
            codec: p.codec,
            state,
            ledger: p.ledger,
        })
    }
}

#[cfg(test)]
impl StreamingFairKm {
    /// The engine's row codec.
    pub(crate) fn codec(&self) -> &RowCodec {
        &self.codec
    }
}

/// An immutable snapshot of the frozen serving path, captured by
/// [`StreamingFairKm::serving_view`]: the engine's shared [`RowCodec`], a
/// clone of its [`ClusterModel`] carrying the exact aggregate and cache
/// bits, and the frozen λ. [`Self::assign`] reproduces
/// [`StreamingFairKm::assign_frozen`] bitwise for the captured state
/// without touching the live engine — the read path a server swaps behind
/// an `Arc` on every successful mutation.
#[derive(Debug, Clone)]
pub struct ServingView {
    codec: Arc<RowCodec>,
    model: ClusterModel,
    lambda: f64,
    n_slots: usize,
    objective: f64,
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
        let r = self.codec.encode(row, self.n_slots)?;
        Ok(self
            .model
            .score_insertion(&r.row, &r.cat, &r.num, self.lambda))
    }

    /// The frozen schema rows are validated against.
    pub fn schema(&self) -> &Schema {
        &self.codec.schema
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
    fn snapshot_decode_rejects_a_zero_window_and_an_overflowing_norm() {
        let config = StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(3)
                .with_schedule(UpdateSchedule::MiniBatch(8))
                .with_threads(1),
        );
        let s = StreamingFairKm::bootstrap(blobs(10), config).unwrap();
        let bytes = s.to_snapshot_bytes();
        let invalid = |b: &[u8]| match StreamingFairKm::from_snapshot_bytes(b, Some(1)) {
            Err(WireError::Invalid { what }) => what,
            other => panic!("expected an invalid payload, got {other:?}"),
        };
        // Tag, codec, λ, then the window's option byte.
        let mut codec = Vec::new();
        s.codec.put(&mut codec);
        let window = 8 + codec.len() + 8 + 1;
        assert_eq!(bytes[window..window + 8], 8u64.to_le_bytes());
        let mut zero = bytes.clone();
        zero[window..window + 8].fill(0);
        assert_eq!(invalid(&zero), "scan window");
        // The first slot's first task value opens the slot table's
        // columns, which end the payload.
        let m = &s.state.model;
        let per_slot = 8 * (m.dim() + m.n_num() + 1) + 4 * m.cat_ts().len();
        let first = bytes.len() - per_slot * s.n_slots();
        let mut huge = bytes;
        huge[first..first + 8].copy_from_slice(&1e300f64.to_le_bytes());
        assert_eq!(invalid(&huge), "slot norm");
    }

    #[test]
    fn snapshot_decode_rejects_a_bad_lambda_and_eviction_cursor() {
        let config = StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(3)
                .with_schedule(UpdateSchedule::MiniBatch(8))
                .with_threads(1),
        );
        let mut s = StreamingFairKm::bootstrap(blobs(10), config).unwrap();
        s.evict_oldest(2).unwrap();
        assert_eq!(s.ledger.oldest(), 2);
        let bytes = s.to_snapshot_bytes();
        let decode = |at: usize, field: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(field);
            StreamingFairKm::from_snapshot_bytes(&b, Some(1)).map(drop)
        };
        let invalid = |what| Err(WireError::Invalid { what });
        // Tag and codec precede the ledger: λ, the window (option byte and
        // width), the δ engine, the drift threshold, the pass cap, the
        // objective and the baseline precede the cursor.
        let mut codec = Vec::new();
        s.codec.put(&mut codec);
        let lambda = 8 + codec.len();
        let cursor = lambda + 8 + 9 + 1 + 4 * 8;
        assert_eq!(bytes[cursor..cursor + 8], 2u64.to_le_bytes());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(decode(lambda, &bad.to_le_bytes()), invalid("λ"), "{bad}");
        }
        // Slot 0 is dead, so a cursor of 1 holds; slot 2 is live, and a
        // cursor past the slots would make eviction skip every point.
        assert_eq!(decode(cursor, &1u64.to_le_bytes()), Ok(()));
        for bad in [3, s.n_slots() as u64 + 5] {
            let at = decode(cursor, &bad.to_le_bytes());
            assert_eq!(at, invalid("eviction cursor"), "cursor {bad}");
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
