//! The aggregate engine and the optimization state built on it.
//!
//! The FairKM objective is a function of additive per-cluster aggregates
//! alone: cluster sizes, the component-wise sums of the members' task
//! vectors (prototype = sum / size), per-value member counts of every
//! categorical sensitive attribute (the Eqs. 20–21 fraction updates),
//! per-cluster value sums of every numeric one, and `Σ‖x‖²`. Bera et al.
//! (*Fair Algorithms for Clustering*) build on the same split. That is
//! what this module says, in one place:
//!
//! * [`ClusterModel`] holds the k-indexed aggregates, the scoring caches,
//!   the frozen per-attribute fairness reference (no per-point columns)
//!   and the active [`Objective`]. Every operation — refresh, dirty-set
//!   tracking, insert/remove/move deltas, insertion scoring and the
//!   incremental move proposal — takes the affected point's row inline.
//!   It is the single implementation of that arithmetic: the batch and
//!   streaming engine, every serving view, the shard coordinator and every
//!   shard replica run this same code.
//! * `State` is a `ClusterModel` plus the [`SlotTable`] it is fed from:
//!   per slot the task row, the sensitive codes and numeric values, the
//!   cluster and `‖x‖²`. The table's kernels resolve a slot to its row
//!   slices and call the model, the same code the shard coordinator and
//!   every shard run. All of Eqs. 7, 11–19 and 22 are evaluated against the
//!   model's running aggregates; a full `State::rebuild` recomputes them
//!   from the slot clusters.
//!
//! ## Scoring caches and invalidation
//!
//! On top of the running aggregates the model materializes a **scoring
//! cache** so the per-point per-cluster scan (Eqs. 1, 7, 22) does no
//! per-pair division and no redundant fairness recomputation:
//!
//! * `proto` — the `k×dim` prototypes (`centroid_sum / size`);
//! * `proto_sqnorm` — per-cluster `‖μ_c‖²`;
//! * `member_sqnorm` — per-cluster `Σ_{i∈c} ‖x_i‖²`, delta-maintained by
//!   the row mutators, which together with `‖μ_c‖²` yields the cluster SSE
//!   in O(1) via `SSE_c = Σ‖x‖² − |c|·‖μ_c‖²`;
//! * `fair_cache` — per-cluster fairness contributions (the Eq. 7
//!   summands plus the Eq. 22 numeric terms);
//! * `tables` — per cluster, the scalars every move candidate would
//!   otherwise divide out: the Hartigan–Wong factors `s/(s+1)` and
//!   `s/(s−1)`, and per sign the new size's `1/new` and cluster weight
//!   `(new/|X|)²`, each computed with its reader's own expression so the
//!   bits are the same; then the `dev_in` / `dev_out` move tables: under
//!   an objective that tabulates (representativity and bounded
//!   representation), per categorical attribute `S` and value `v`, `S`'s
//!   weighted deviation term as if one point with value `v` joined or
//!   left the cluster. Every value a move candidate's adjusted
//!   contribution can take is then a sum of one lookup per weighted
//!   attribute (at offsets found once per scored point) plus the Eq. 22
//!   numeric terms, taken in the objective's own order, so
//!   [`ClusterModel::propose_move_row`] costs O(attributes) per candidate
//!   instead of O(Σ_S |Values(S)|) and still returns, bit for bit, what
//!   `contrib_adjusted` computes. The utilitarian and egalitarian
//!   objectives fold across attributes and keep the direct call. The
//!   tables are derived state: never serialized, re-derived on decode.
//!
//! [`ClusterModel::sq_dist_row_cached`] evaluates the point-to-prototype
//! distance in the vectorizable dot-product form `‖x‖² − 2·x·μ + ‖μ‖²`.
//! [`ClusterModel::move_row`] and its insert/remove siblings update every
//! running aggregate in O(dim + Σ|Values(S)|) and mark only the clusters
//! the objective's dirty-set rules name; [`ClusterModel::refresh_cache`]
//! re-derives the cache entries of dirty clusters and leaves every other
//! cluster's entries untouched. The move tables cost
//! O(Σ_S |Values(S)|²) per dirty cluster and sign, and a move dirties two
//! clusters. An insert or remove dirties only the cluster whose counts
//! changed; its change of `|X|` re-derives, for every cluster, only what
//! reads `|X|` — the two cluster weights and (under the objective's
//! dirty-set rule) the fairness contribution — not the table rows or the
//! prototype. `State::debug_validate_cache` (debug builds) cross-checks
//! the delta-maintained aggregates against a from-scratch recomputation,
//! and every clean cluster's `tables` block against a fresh fill.
//!
//! A [`WindowMemo`] keeps what a window's proposal scan learned about its
//! slots' distances, so that the per-move descent of a failed window
//! scores exactly only the slots that might still move (see
//! [`memo`](self::memo)).
//!
//! Aggregate recomputation (`State::rebuild`) and the K-Means term
//! (`State::kmeans_term`) run on the `fairkm-parallel` engine: fixed
//! chunks of rows build partial aggregates that are merged in chunk order,
//! so the result is bitwise-identical for any thread count.

use crate::agg::{decode_kind, encode_kind, AggregateDelta, SlotTable, TOMBSTONE};
use crate::config::{FairnessNorm, ObjectiveKind};
use crate::machine::{Entry, LogEntry};
use crate::objective::{FairView, Objective, PointRef};
use crate::wire::{self, Reader, WireError};
use fairkm_data::{sq_euclidean, NumericMatrix, SensitiveSpace};
use std::borrow::Cow;

mod memo;
pub use memo::{Descent, WindowMemo};

/// One categorical sensitive attribute's frozen fairness reference.
#[derive(Clone, Debug)]
pub(crate) struct CatAttr {
    /// Domain cardinality `|Values(S)|`.
    pub t: usize,
    /// Dataset-level fractional representation `Fr_X^S`.
    pub dist: Vec<f64>,
    /// Per-value weight of the squared deviation. The paper's Eq. 4 uses
    /// the uniform `1/t`; the skew-aware variant weighs by inverse
    /// indicator variance (weights always sum to 1).
    pub value_scale: Vec<f64>,
    /// Fairness weight `w_S` (Eq. 23).
    pub weight: f64,
}

/// Per-value deviation weights under the chosen normalization.
fn value_scales(dist: &[f64], n: usize, norm: FairnessNorm) -> Vec<f64> {
    let t = dist.len();
    match norm {
        FairnessNorm::DomainCardinality => vec![1.0 / t as f64; t],
        FairnessNorm::SkewAware => {
            let floor = 1.0 / (n.max(1) as f64);
            let raw: Vec<f64> = dist
                .iter()
                .map(|&p| 1.0 / (p * (1.0 - p) + floor))
                .collect();
            let total: f64 = raw.iter().sum();
            raw.into_iter().map(|w| w / total).collect()
        }
    }
}

/// One numeric sensitive attribute's frozen fairness reference (Eq. 22).
#[derive(Clone, Debug)]
pub(crate) struct NumAttr {
    /// Dataset mean `X̄.S`.
    pub mean: f64,
    /// Fairness weight `w_S` (Eq. 23).
    pub weight: f64,
}

/// The aggregate engine: the per-cluster aggregates, the frozen fairness
/// reference (dataset distributions, value scales, means, weights), the
/// active objective and the scoring caches — but no point storage. Every
/// operation takes the affected point's row and sensitive values inline.
///
/// This is the only implementation of the cached FairKM arithmetic. The
/// single-node engine feeds it slot rows, a serving view is a clone of it,
/// and a shard replica feeds it the rows carried in protocol messages. A
/// replica that applies the same ordered operation log therefore holds the
/// same aggregates, caches and objective values bit for bit.
#[derive(Clone, Debug)]
pub struct ClusterModel {
    k: usize,
    dim: usize,
    /// Live (assigned) points — the `|X|` of the fairness term (Eq. 7).
    live: usize,
    /// The running per-cluster aggregates: member counts `|C|`, flat k×dim
    /// prototype sums, per-attribute k×t categorical counts, per-cluster
    /// numeric value sums and `Σ_{i∈c} ‖x_i‖²`.
    pub(crate) agg: AggregateDelta,
    /// Frozen categorical reference.
    pub(crate) cat: Vec<CatAttr>,
    /// Frozen numeric reference.
    pub(crate) num: Vec<NumAttr>,
    /// The fairness objective every contribution/delta evaluation routes
    /// through (enum-dispatched, monomorphized — see [`crate::objective`]).
    objective: Objective,
    /// The configured objective, retained for serialization: the objective
    /// is re-instantiated from it against the frozen reference on decode.
    pub(crate) kind: ObjectiveKind,
    /// Scoring cache: flat k×dim materialized prototypes (zeros for empty
    /// clusters). Valid for clusters not marked dirty.
    proto: Vec<f64>,
    /// Scoring cache: per-cluster `‖μ_c‖²` (0 for empty clusters).
    proto_sqnorm: Vec<f64>,
    /// Cached per-cluster fairness contribution (Eq. 7 summand + Eq. 22
    /// terms). Valid for clusters not marked dirty.
    pub(crate) fair_cache: Vec<f64>,
    /// Scoring cache: per cluster `c`, one block of [`TABLE_HEAD`]
    /// per-cluster scalars (`s/(s+1)`, `s/(s−1)`; `s = |C|`) then a
    /// `dev_in` and a `dev_out` half. Each half opens with two scalars of
    /// the cluster's size after the move, `new = |C| ± 1` — `1/new` and
    /// the cluster weight `(new/|X|)²` (both 0 where `new ≤ 0`) — followed,
    /// under a tabulating objective, by its move-table row: attribute-
    /// major, one entry per value `v`, the objective's term of attribute
    /// `S` as if one point with value `v` joined (`dev_in`) or left
    /// (`dev_out`, zeros where `c` would be empty) the cluster. One
    /// allocation of k × ([`TABLE_HEAD`] + 2 × (2 + Σ_S |Values(S)|)).
    /// The cluster weights are valid when `live_stale` is clear; the rest
    /// for clusters not marked dirty.
    tables: Vec<f64>,
    /// Entries per table row: Σ_S |Values(S)| under a tabulating
    /// objective, else 0.
    table_width: usize,
    /// Clusters whose `proto` / `proto_sqnorm` / `fair_cache` entries and
    /// `tables` block are stale relative to the running aggregates.
    dirty: Vec<bool>,
    /// Insertion-ordered list of the dirty clusters (mirrors `dirty`).
    dirty_list: Vec<usize>,
    /// Whether `|X|` changed since the last refresh: every cluster's
    /// weights in `tables` (and, under the objective's rule, its
    /// `fair_cache` entry) are stale, but none of its table rows or its
    /// prototype.
    live_stale: bool,
}

/// Per-cluster scalars at the head of each cluster's `tables` block, then
/// at the head of each of its halves.
const TABLE_HEAD: usize = 2;
/// `s/(s+1)`: the Hartigan–Wong factor of joining a cluster of size `s`.
const JOIN_RATIO: usize = 0;
/// `s/(s−1)`: the factor of leaving it.
const LEAVE_RATIO: usize = 1;
/// `1/new`, then the cluster weight `(new/|X|)²`, ahead of a half's row.
const HALF_HEAD: usize = 2;

/// Weighted categorical attributes a point's [`Cells`] hold; a point of a
/// model with more is scored by the direct contribution.
const MAX_CELLS: usize = 15;

/// A point's move-table entries: per positively weighted categorical
/// attribute, in attribute order, the offset of the point's value in a
/// table row. Small enough to stay in registers.
struct Cells {
    len: u32,
    at: [u32; MAX_CELLS],
}

impl ClusterModel {
    /// Assemble a model from the frozen reference, the objective kind and
    /// an aggregate snapshot, deriving every cache entry by a full refresh.
    /// Every decoder goes through here: shapes that disagree with each
    /// other (a corruption the checksums missed, or a foreign buffer) are
    /// a [`WireError::Invalid`], never a panic in the refresh.
    pub(crate) fn new(
        k: usize,
        dim: usize,
        cat: Vec<CatAttr>,
        num: Vec<NumAttr>,
        kind: ObjectiveKind,
        agg: AggregateDelta,
    ) -> Result<Self, WireError> {
        let invalid = |what: &'static str| Err(WireError::Invalid { what });
        if agg.size.len() != k
            || Some(agg.centroid_sum.len()) != k.checked_mul(dim)
            || agg.member_sqnorm.len() != k
        {
            return invalid("aggregate shape");
        }
        if agg.cat_counts.len() != cat.len() || agg.num_sums.len() != num.len() {
            return invalid("sensitive attribute count");
        }
        for (attr, counts) in cat.iter().zip(&agg.cat_counts) {
            if attr.dist.len() != attr.t || attr.value_scale.len() != attr.t {
                return invalid("categorical attribute shape");
            }
            if Some(counts.len()) != k.checked_mul(attr.t) {
                return invalid("categorical count shape");
            }
        }
        if agg.num_sums.iter().any(|sums| sums.len() != k) {
            return invalid("numeric attribute shape");
        }
        let Some(live) = agg
            .size
            .iter()
            .try_fold(0usize, |total, &s| total.checked_add(s))
        else {
            return invalid("cluster sizes");
        };
        let objective = Objective::from_kind(kind, &cat, &num);
        let table_width = match objective.tabulates() {
            true => cat.iter().map(|a| a.t).sum::<usize>(),
            false => 0,
        };
        let mut model = Self {
            k,
            dim,
            live,
            agg,
            objective,
            cat,
            num,
            kind,
            proto: vec![0.0; k * dim],
            proto_sqnorm: vec![0.0; k],
            fair_cache: vec![0.0; k],
            tables: vec![0.0; k * (TABLE_HEAD + 2 * (HALF_HEAD + table_width))],
            table_width,
            dirty: vec![false; k],
            dirty_list: Vec::with_capacity(k),
            live_stale: false,
        };
        model.mark_all_dirty();
        model.refresh_cache();
        Ok(model)
    }

    /// The configured fairness objective.
    pub(crate) fn kind(&self) -> ObjectiveKind {
        self.kind
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Task-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live (assigned) point count `|X|`.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Per-cluster member counts.
    pub fn size(&self) -> &[usize] {
        &self.agg.size
    }

    /// Cached per-cluster fairness contributions (requires a fresh cache).
    pub fn fairness_contribs(&self) -> &[f64] {
        debug_assert!(self.cache_is_fresh());
        &self.fair_cache
    }

    /// Per-attribute categorical cardinalities (shape of the aggregates).
    pub fn cat_ts(&self) -> Vec<usize> {
        self.cat.iter().map(|a| a.t).collect()
    }

    /// Number of numeric sensitive attributes.
    pub fn n_num(&self) -> usize {
        self.num.len()
    }

    /// A zeroed [`AggregateDelta`] shaped like this model's aggregates.
    pub fn zeroed_delta(&self) -> AggregateDelta {
        AggregateDelta::zeroed(self.k, self.dim, &self.cat_ts(), self.num.len())
    }

    /// Overwrite this copy's aggregates and caches with `source`'s,
    /// reusing its buffers. Both must be copies of one model: the frozen
    /// reference and the objective are not copied.
    pub(crate) fn copy_state_from(&mut self, source: &Self) {
        debug_assert_eq!((self.k, self.dim), (source.k, source.dim));
        self.live = source.live;
        let (agg, from) = (&mut self.agg, &source.agg);
        agg.size.clone_from(&from.size);
        agg.centroid_sum.clone_from(&from.centroid_sum);
        agg.cat_counts.clone_from(&from.cat_counts);
        agg.num_sums.clone_from(&from.num_sums);
        agg.member_sqnorm.clone_from(&from.member_sqnorm);
        self.proto.clone_from(&source.proto);
        self.proto_sqnorm.clone_from(&source.proto_sqnorm);
        self.fair_cache.clone_from(&source.fair_cache);
        self.tables.clone_from(&source.tables);
        self.dirty.clone_from(&source.dirty);
        self.dirty_list.clone_from(&source.dirty_list);
        self.live_stale = source.live_stale;
    }

    /// Replace the aggregates wholesale and re-derive every cache entry —
    /// the install-and-refresh tail of a rebuild. Installing the delta an
    /// ordered chunked rebuild produced makes a replica bitwise-identical
    /// to a rebuilt single-node engine.
    pub fn install(&mut self, agg: AggregateDelta) {
        debug_assert_eq!(agg.size.len(), self.k);
        debug_assert_eq!(agg.centroid_sum.len(), self.k * self.dim);
        self.live = agg.size.iter().sum();
        self.agg = agg;
        self.mark_all_dirty();
        self.refresh_cache();
    }

    /// The aggregate view the pluggable objective evaluates against.
    #[inline]
    fn fair_view(&self) -> FairView<'_> {
        FairView {
            size: &self.agg.size,
            live: self.live,
            cat: &self.cat,
            cat_counts: &self.agg.cat_counts,
            num: &self.num,
            num_sums: &self.agg.num_sums,
        }
    }

    /// Cluster `c`'s fairness contribution evaluated as if point `p` were
    /// added to (`delta = +1`) or removed from (`delta = -1`) it; pass
    /// `PointRef::None, 0` for the unadjusted value.
    ///
    /// This realizes Eqs. 16–18 by exact local recomputation in
    /// O(Σ_S |Values(S)|) — the same asymptotic cost as the paper's
    /// expanded algebraic forms, with no room for sign errors. The actual
    /// arithmetic lives in the active [`Objective`]; dispatch is one
    /// predicted branch, with each arm monomorphized.
    #[inline]
    pub(crate) fn contrib_adjusted(&self, c: usize, p: PointRef<'_>, delta: i64) -> f64 {
        self.objective
            .contrib_adjusted(&self.fair_view(), c, p, delta)
    }

    /// Where a point's categorical values sit in a move-table row, or
    /// `None` when scoring it reads no table: the objective does not
    /// tabulate, or more than [`MAX_CELLS`] of its attributes are weighted.
    /// Found once per scored point, not once per candidate.
    #[inline]
    fn cells(&self, cat_vals: &[u32]) -> Option<Cells> {
        if !self.objective.tabulates() {
            return None;
        }
        let mut cells = Cells {
            len: 0,
            at: [0; MAX_CELLS],
        };
        let mut base = 0;
        for (attr, &value) in self.cat.iter().zip(cat_vals) {
            if attr.weight != 0.0 {
                *cells.at.get_mut(cells.len as usize)? = base + value;
                cells.len += 1;
            }
            base += attr.t as u32;
        }
        Some(cells)
    }

    /// Cluster `c`'s adjusted fairness contribution for a point with the
    /// given sensitive values joining (`delta = 1`) or leaving
    /// (`delta = -1`) it: with the point's [`Self::cells`], one move-table
    /// lookup per weighted attribute plus the Eq. 22 numeric terms, bit for
    /// bit what [`Self::contrib_adjusted`] computes, which it calls
    /// otherwise. O(attributes) instead of O(Σ_S |Values(S)|).
    #[inline(always)]
    fn cell_contrib(
        &self,
        c: usize,
        cells: Option<&Cells>,
        cat_vals: &[u32],
        num_vals: &[f64],
        delta: i64,
    ) -> f64 {
        let Some(cells) = cells else {
            return self.direct_contrib(c, cat_vals, num_vals, delta);
        };
        if self.agg.size[c] as i64 + delta <= 0 {
            return 0.0;
        }
        let half = &self.tables[self.table_half(c, delta)];
        let (inv_size, cluster_weight) = (half[0], half[1]);
        let terms = &half[HALF_HEAD..];
        let mut dev = 0.0;
        for &at in &cells.at[..cells.len as usize] {
            dev += terms[at as usize];
        }
        for ((attr, sums), &value) in self.num.iter().zip(&self.agg.num_sums).zip(num_vals) {
            if attr.weight == 0.0 {
                continue;
            }
            let diff = (sums[c] + delta as f64 * value) * inv_size - attr.mean;
            dev += attr.weight * diff * diff;
        }
        cluster_weight * dev
    }

    /// [`Self::contrib_adjusted`] for a point's row, kept out of line so
    /// the tabulated path stays small enough to inline.
    #[inline(never)]
    fn direct_contrib(&self, c: usize, cat_vals: &[u32], num_vals: &[f64], delta: i64) -> f64 {
        self.contrib_adjusted(c, PointRef::Row(cat_vals, num_vals), delta)
    }

    /// [`Self::cell_contrib`] with the point's cells found here.
    #[cfg(test)]
    fn move_contrib(&self, c: usize, cat_vals: &[u32], num_vals: &[f64], delta: i64) -> f64 {
        self.cell_contrib(c, self.cells(cat_vals).as_ref(), cat_vals, num_vals, delta)
    }

    /// Entries of one cluster's block in `tables`.
    #[inline]
    fn table_stride(&self) -> usize {
        TABLE_HEAD + 2 * (HALF_HEAD + self.table_width)
    }

    /// Where cluster `c`'s `dev_in` (`delta = 1`) or `dev_out`
    /// (`delta = -1`) half — its two scalars, then its row — sits in
    /// `tables`.
    #[inline]
    fn table_half(&self, c: usize, delta: i64) -> std::ops::Range<usize> {
        let half = HALF_HEAD + self.table_width;
        let start = c * self.table_stride() + TABLE_HEAD + usize::from(delta < 0) * half;
        start..start + half
    }

    /// Cluster `c`'s hoisted `s/(s+1)` ([`JOIN_RATIO`]) or `s/(s−1)`
    /// ([`LEAVE_RATIO`]).
    #[inline]
    fn ratio(&self, c: usize, which: usize) -> f64 {
        self.tables[c * self.table_stride() + which]
    }

    /// Fill cluster `c`'s `tables` block from `view`: the ratios, each
    /// half's `1/new` and weight, and — under a tabulating objective — each
    /// half's row through the objective, attribute by attribute:
    /// O(Σ_S |Values(S)|²). Every scalar is the expression its reader
    /// would otherwise evaluate, so the bits are the same.
    fn fill_block(objective: &Objective, view: &FairView<'_>, c: usize, block: &mut [f64]) {
        let s = view.size[c] as f64;
        block[JOIN_RATIO] = s / (s + 1.0);
        block[LEAVE_RATIO] = s / (s - 1.0);
        let width = (block.len() - TABLE_HEAD) / 2 - HALF_HEAD;
        let (dev_in, dev_out) = block[TABLE_HEAD..].split_at_mut(HALF_HEAD + width);
        for (half, delta) in [(dev_in, 1), (dev_out, -1)] {
            let new_size = (view.size[c] as i64 + delta) as f64;
            half[0] = if new_size > 0.0 { 1.0 / new_size } else { 0.0 };
            let row = &mut half[HALF_HEAD..];
            if new_size <= 0.0 {
                row.fill(0.0);
                continue;
            }
            let cells = view
                .cat
                .iter()
                .enumerate()
                .flat_map(|(a, attr)| (0..attr.t).map(move |v| (a, v)));
            for (term, (a, v)) in row.iter_mut().zip(cells) {
                *term = objective.cat_term(view, c, a, v, delta);
            }
        }
        Self::fill_weights(view, c, block);
    }

    /// Write cluster `c`'s two cluster weights `(new/|X|)²` into its
    /// `tables` block — the only entries that read `|X|`.
    fn fill_weights(view: &FairView<'_>, c: usize, block: &mut [f64]) {
        let half = (block.len() - TABLE_HEAD) / 2;
        for (at, delta) in [(TABLE_HEAD + 1, 1), (TABLE_HEAD + half + 1, -1)] {
            let new_size = (view.size[c] as i64 + delta) as f64;
            let frac = new_size / view.live as f64;
            block[at] = if new_size > 0.0 { frac * frac } else { 0.0 };
        }
    }

    /// Fairness contribution of cluster `c` (one summand of Eq. 7 plus the
    /// Eq. 22 numeric terms, with Eq. 23 weights):
    /// `(|C|/|X|)² · [ Σ_S w_S Σ_s (Fr_C(s) − Fr_X(s))²/|Values(S)|
    ///               + Σ_S w_S (C.S̄ − X.S̄)² ]`,
    /// recomputed from the aggregates (never read from the cache).
    pub(crate) fn fairness_contrib(&self, c: usize) -> f64 {
        self.contrib_adjusted(c, PointRef::None, 0)
    }

    /// The full fairness term `deviation_S(C, X)` (Eq. 7 / 22 / 23),
    /// assembled from freshly computed per-cluster contributions by the
    /// active objective.
    pub(crate) fn fairness_term(&self) -> f64 {
        let contribs: Vec<f64> = (0..self.k).map(|c| self.fairness_contrib(c)).collect();
        self.objective.assemble(&contribs)
    }

    /// Mark cluster `c`'s cache entries stale (idempotent).
    fn mark_dirty(&mut self, c: usize) {
        if !self.dirty[c] {
            self.dirty[c] = true;
            self.dirty_list.push(c);
        }
    }

    /// Mark every cluster's cache entry stale (a new or installed model).
    fn mark_all_dirty(&mut self) {
        for c in 0..self.k {
            self.mark_dirty(c);
        }
    }

    /// Mark what an insert/remove at `c` invalidates: cluster `c`'s
    /// entries, and every cluster's weights — the live count `|X|` enters
    /// every cluster's Eq. 7 weight `(|C|/|X|)²` — plus, under the
    /// objective's declared rule, every cluster's fairness contribution.
    /// No other cluster's prototype or table rows read `|X|`.
    fn mark_live_change(&mut self, c: usize) {
        self.mark_dirty(c);
        self.live_stale = true;
    }

    /// Whether every cache entry is current.
    pub fn cache_is_fresh(&self) -> bool {
        self.dirty_list.is_empty() && !self.live_stale
    }

    /// Re-derive the cache entries (prototype, `‖μ‖²`, fairness
    /// contribution, `tables` block) of every dirty cluster from the
    /// running aggregates, and after a live-count change every clean
    /// cluster's weights (and contribution, under the objective's rule).
    /// O(dirty · (dim + Σ_S |Values(S)|²) + k · Σ_S |Values(S)|).
    pub fn refresh_cache(&mut self) {
        let stride = self.table_stride();
        let view = FairView {
            size: &self.agg.size,
            live: self.live,
            cat: &self.cat,
            cat_counts: &self.agg.cat_counts,
            num: &self.num,
            num_sums: &self.agg.num_sums,
        };
        if std::mem::take(&mut self.live_stale) {
            let contribs = self.objective.dirties_all_on_live_change();
            for c in (0..self.k).filter(|&c| !self.dirty[c]) {
                let block = &mut self.tables[c * stride..(c + 1) * stride];
                Self::fill_weights(&view, c, block);
                if contribs {
                    self.fair_cache[c] =
                        self.objective.contrib_adjusted(&view, c, PointRef::None, 0);
                }
            }
        }
        while let Some(c) = self.dirty_list.pop() {
            self.dirty[c] = false;
            self.fair_cache[c] = self.objective.contrib_adjusted(&view, c, PointRef::None, 0);
            let block = &mut self.tables[c * stride..(c + 1) * stride];
            Self::fill_block(&self.objective, &view, c, block);
            let span = c * self.dim..(c + 1) * self.dim;
            if self.agg.size[c] == 0 {
                self.proto[span].fill(0.0);
                self.proto_sqnorm[c] = 0.0;
            } else {
                let inv = 1.0 / self.agg.size[c] as f64;
                let mut sqnorm = 0.0;
                for (p, s) in self.proto[span.clone()]
                    .iter_mut()
                    .zip(&self.agg.centroid_sum[span])
                {
                    let v = s * inv;
                    *p = v;
                    sqnorm += v * v;
                }
                self.proto_sqnorm[c] = sqnorm;
            }
        }
    }

    /// Debug builds: every clean cluster's `tables` block equals, bit for
    /// bit, a fresh fill from the current aggregates (its weights once no
    /// live-count change is pending).
    #[cfg(debug_assertions)]
    fn debug_check_tables(&self) {
        let stride = self.table_stride();
        let mut fresh = vec![0.0; stride];
        for c in (0..self.k).filter(|&c| !self.dirty[c]) {
            let ours = &self.tables[c * stride..(c + 1) * stride];
            Self::fill_block(&self.objective, &self.fair_view(), c, &mut fresh);
            if self.live_stale {
                let half = HALF_HEAD + self.table_width;
                for at in [TABLE_HEAD + 1, TABLE_HEAD + half + 1] {
                    fresh[at] = ours[at];
                }
            }
            assert!(
                ours.iter()
                    .zip(&fresh)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "cluster {c}'s tables block is stale"
            );
        }
    }

    /// Insert a point into cluster `c`, delta-updating every running
    /// aggregate in O(dim + Σ|Values(S)|) with the rebuild's own per-row
    /// fold. The live count changes: cluster `c` is marked dirty and every
    /// cluster's weights stale.
    pub fn insert_row(
        &mut self,
        c: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
    ) {
        self.agg.add_row(c, row, cat_vals, num_vals, sqnorm);
        self.live += 1;
        self.mark_live_change(c);
    }

    /// Remove a point from cluster `c` (inverse of [`Self::insert_row`]).
    pub fn remove_row(
        &mut self,
        c: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
    ) {
        debug_assert!(self.agg.size[c] > 0);
        self.agg.size[c] -= 1;
        self.live -= 1;
        let dst = &mut self.agg.centroid_sum[c * self.dim..(c + 1) * self.dim];
        for (d, v) in dst.iter_mut().zip(row) {
            *d -= v;
        }
        for ((attr, counts), &v) in self.cat.iter().zip(&mut self.agg.cat_counts).zip(cat_vals) {
            counts[c * attr.t + v as usize] -= 1;
        }
        for (sums, &v) in self.agg.num_sums.iter_mut().zip(num_vals) {
            sums[c] -= v;
        }
        self.agg.member_sqnorm[c] -= sqnorm;
        self.mark_live_change(c);
    }

    /// Move a point `from → to` (steps 6–7 of Algorithm 1; Eqs. 20–21 for
    /// the fractions) with one fused `-=`/`+=` pair per centroid component.
    /// The objective declares the dirty set: every shipped one confines it
    /// to the two touched clusters (`live` is unchanged).
    pub fn move_row(
        &mut self,
        from: usize,
        to: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
    ) {
        debug_assert_ne!(from, to);
        debug_assert!(self.agg.size[from] > 0);
        self.agg.size[from] -= 1;
        self.agg.size[to] += 1;
        {
            let (lo, hi, from_first) = if from < to {
                (from, to, true)
            } else {
                (to, from, false)
            };
            let (head, tail) = self.agg.centroid_sum.split_at_mut(hi * self.dim);
            let lo_slice = &mut head[lo * self.dim..(lo + 1) * self.dim];
            let hi_slice = &mut tail[..self.dim];
            let (from_slice, to_slice) = if from_first {
                (lo_slice, hi_slice)
            } else {
                (hi_slice, lo_slice)
            };
            for ((f, t), v) in from_slice.iter_mut().zip(to_slice).zip(row) {
                *f -= v;
                *t += v;
            }
        }
        for ((attr, counts), &val) in self.cat.iter().zip(&mut self.agg.cat_counts).zip(cat_vals) {
            let v = val as usize;
            counts[from * attr.t + v] -= 1;
            counts[to * attr.t + v] += 1;
        }
        for (sums, &v) in self.agg.num_sums.iter_mut().zip(num_vals) {
            sums[from] -= v;
            sums[to] += v;
        }
        self.agg.member_sqnorm[from] -= sqnorm;
        self.agg.member_sqnorm[to] += sqnorm;
        if self.objective.dirties_all_on_move() {
            self.mark_all_dirty();
        } else {
            self.mark_dirty(from);
            self.mark_dirty(to);
        }
    }

    /// Squared distance from a row to cluster `c`'s prototype in the
    /// cached dot-product form `‖x‖² − 2·x·μ_c + ‖μ_c‖²`: one fused
    /// multiply-add pass over the row, no per-pair division, both norms
    /// read from the cache. Clamped at 0 (the expansion can go marginally
    /// negative under cancellation); `f64::INFINITY` for an empty cluster.
    ///
    /// Requires cluster `c`'s cache entry to be fresh (debug-asserted).
    #[inline]
    pub fn sq_dist_row_cached(&self, row: &[f64], sqnorm: f64, c: usize) -> f64 {
        debug_assert!(!self.dirty[c], "scoring against a stale prototype cache");
        if self.agg.size[c] == 0 {
            return f64::INFINITY;
        }
        self.sq_dist_to_cached(row, sqnorm, c)
    }

    /// [`Self::sq_dist_row_cached`] without the empty-cluster case: the
    /// distance to the cached prototype row, zeros for an empty cluster.
    #[inline]
    fn sq_dist_to_cached(&self, row: &[f64], sqnorm: f64, c: usize) -> f64 {
        let proto = &self.proto[c * self.dim..(c + 1) * self.dim];
        let mut dot = 0.0;
        for (v, p) in row.iter().zip(proto) {
            dot += v * p;
        }
        (sqnorm - 2.0 * dot + self.proto_sqnorm[c]).max(0.0)
    }

    /// The K-Means term from the cache in O(k), via the identity
    /// `SSE_c = Σ_{i∈c} ‖x_i‖² − |c|·‖μ_c‖²` (clamped at 0 per cluster
    /// against cancellation). Requires a fresh cache.
    pub fn kmeans_term_cached(&self) -> f64 {
        debug_assert!(self.cache_is_fresh(), "cached K-Means term needs a refresh");
        (0..self.k)
            .map(|c| {
                (self.agg.member_sqnorm[c] - self.agg.size[c] as f64 * self.proto_sqnorm[c])
                    .max(0.0)
            })
            .sum()
    }

    /// The fairness term from the cache in O(k), assembled by the active
    /// objective. Requires a fresh cache; each cached entry is
    /// bitwise-identical to a fresh contribution (the refresh runs the
    /// very same computation).
    pub fn fairness_term_cached(&self) -> f64 {
        debug_assert!(
            self.cache_is_fresh(),
            "cached fairness term needs a refresh"
        );
        self.objective.assemble(&self.fair_cache)
    }

    /// Full objective `kmeans + λ·fairness` from the cache in O(k).
    pub fn objective_cached(&self, lambda: f64) -> f64 {
        self.kmeans_term_cached() + lambda * self.fairness_term_cached()
    }

    /// Every cluster's prototype (mean), zeros for empty clusters —
    /// computed from the running aggregates with the engine's exact
    /// arithmetic, so it is directly comparable bitwise across single-node
    /// and sharded runs.
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        (0..self.k)
            .map(|c| {
                let mut out = vec![0.0; self.dim];
                self.prototype_into(c, &mut out);
                out
            })
            .collect()
    }

    /// Write cluster `c`'s prototype (mean) into `out`; zeros if empty.
    pub fn prototype_into(&self, c: usize, out: &mut [f64]) {
        let src = &self.agg.centroid_sum[c * self.dim..(c + 1) * self.dim];
        if self.agg.size[c] == 0 {
            out.fill(0.0);
            return;
        }
        let inv = 1.0 / self.agg.size[c] as f64;
        for (o, s) in out.iter_mut().zip(src) {
            *o = s * inv;
        }
    }

    /// Exact objective change of inserting an external point (task row +
    /// sensitive values) into cluster `c`, against the current caches:
    ///
    /// * K-Means side: the Hartigan–Wong insertion form
    ///   `|C|/(|C|+1)·‖x−μ_C‖²` over the cached dot-product kernel (zero
    ///   for an empty cluster — a singleton has no SSE);
    /// * fairness side: cluster `c`'s contribution recomputed with the
    ///   point added and `|X|+1` live points, **plus** every other
    ///   cluster's cached contribution rescaled by `(|X|/(|X|+1))²` — the
    ///   global re-weighting an insertion causes — minus the current total.
    ///
    /// Requires a fresh cache. O(dim + Σ|Values(S)| + k).
    ///
    /// The serve path ([`Self::score_insertion`]) uses the `_with_total`
    /// form with the fairness total hoisted out of the candidate loop; this
    /// uncomposed form is the reference the brute-force proptests exercise.
    #[cfg(test)]
    pub(crate) fn insertion_delta(
        &self,
        c: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        lambda: f64,
    ) -> f64 {
        let fair_total: f64 = self.fair_cache.iter().sum();
        self.insertion_delta_with_total(c, row, cat_vals, num_vals, lambda, fair_total)
    }

    /// `insertion_delta` with the current fairness total passed in, so a
    /// full [`Self::score_insertion`] scan sums `fair_cache` once instead
    /// of once per candidate.
    fn insertion_delta_with_total(
        &self,
        c: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        lambda: f64,
        fair_total: f64,
    ) -> f64 {
        debug_assert!(
            self.cache_is_fresh(),
            "insertion scoring needs a fresh cache"
        );
        let s = self.agg.size[c];
        let d_km = if s > 0 {
            let proto = &self.proto[c * self.dim..(c + 1) * self.dim];
            let mut dot = 0.0;
            let mut row_sqnorm = 0.0;
            for (v, p) in row.iter().zip(proto) {
                dot += v * p;
                row_sqnorm += v * v;
            }
            let d = (row_sqnorm - 2.0 * dot + self.proto_sqnorm[c]).max(0.0);
            self.ratio(c, JOIN_RATIO) * d
        } else {
            0.0
        };
        let live = self.live as f64;
        let shrink = self.objective.insertion_rescale(live);
        let new_fair = self
            .objective
            .insertion_contrib(&self.fair_view(), c, cat_vals, num_vals)
            + (fair_total - self.fair_cache[c]) * shrink;
        d_km + lambda * (new_fair - fair_total)
    }

    /// Frozen-prototype assignment of an external point: the cluster
    /// minimizing the exact insertion delta (fairness total hoisted once,
    /// strict-improvement candidate loop, ties to the lowest index), plus
    /// that delta. Read-only, so batches of arrivals can be scored
    /// concurrently against caches frozen at batch start.
    pub fn score_insertion(
        &self,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        lambda: f64,
    ) -> (usize, f64) {
        let fair_total: f64 = self.fair_cache.iter().sum();
        let mut best = 0usize;
        let mut best_delta = f64::INFINITY;
        for c in 0..self.k {
            let delta =
                self.insertion_delta_with_total(c, row, cat_vals, num_vals, lambda, fair_total);
            if delta < best_delta {
                best_delta = delta;
                best = c;
            }
        }
        (best, best_delta)
    }

    /// Best move for a live point currently in `from`: the candidate target
    /// minimizing δO = δKM + λ·δfair (Algorithm 1, steps 3–5). Returns
    /// `(best_to, best_delta)`; `best_to == from` when no candidate
    /// improves the objective.
    ///
    /// Everything that depends only on the origin cluster is hoisted out of
    /// the candidate loop — the outbound Hartigan–Wong K-Means delta (one
    /// cached distance instead of one per candidate), the origin's adjusted
    /// fairness contribution, and both "old" contributions, which come
    /// straight from `fair_cache`. The remaining per-candidate work is one
    /// cached dot-product distance plus one adjusted fairness contribution
    /// (read from the move tables when the objective tabulates), associated
    /// exactly like the unhoisted reference forms
    /// (`State::delta_kmeans_incremental` + `State::delta_fairness`).
    ///
    /// Read-only, so windows of proposals can be evaluated concurrently
    /// with results identical to a sequential scan.
    pub fn propose_move_row(
        &self,
        from: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
        lambda: f64,
    ) -> (usize, f64) {
        let dist = |c| self.sq_dist_row_cached(row, sqnorm, c);
        self.propose_with(from, dist, cat_vals, num_vals, lambda)
    }

    /// [`Self::propose_move_row`] that also writes into `reach`, per
    /// cluster, a lower bound on the row's distance to the cluster's cached
    /// prototype (zeros for an empty cluster) — what a [`WindowMemo`]
    /// records — and proposes nothing for a [`TOMBSTONE`] `from`. Same
    /// bits.
    #[allow(clippy::too_many_arguments)]
    pub fn propose_recording(
        &self,
        from: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
        lambda: f64,
        reach: &mut [f64],
    ) -> (usize, f64) {
        for (c, d) in reach.iter_mut().enumerate() {
            *d = self.sq_dist_to_cached(row, sqnorm, c);
        }
        let best = match from {
            TOMBSTONE => (from, 0.0),
            _ => self.propose_with(from, |c| reach[c], cat_vals, num_vals, lambda),
        };
        memo::reach_from(reach, sqnorm, &self.proto_sqnorm, self.dim);
        best
    }

    /// The candidate loop of [`Self::propose_move_row`], with `dist(c)`
    /// the cached distance to cluster `c`'s prototype, read only where the
    /// cluster is non-empty.
    #[inline(always)]
    fn propose_with(
        &self,
        from: usize,
        dist: impl Fn(usize) -> f64,
        cat_vals: &[u32],
        num_vals: &[f64],
        lambda: f64,
    ) -> (usize, f64) {
        let mut best_to = from;
        let mut best_delta = 0.0f64;
        let d_out = if self.agg.size[from] > 1 {
            -self.ratio(from, LEAVE_RATIO) * dist(from)
        } else {
            // removing the last member: that cluster's SSE was 0
            0.0
        };
        let cells = self.cells(cat_vals);
        let out_new = self.cell_contrib(from, cells.as_ref(), cat_vals, num_vals, -1);
        let out_old = self.fair_cache[from];
        for to in 0..self.k {
            if to == from {
                continue;
            }
            let d_in = if self.agg.size[to] > 0 {
                self.ratio(to, JOIN_RATIO) * dist(to)
            } else {
                0.0 // singleton in an empty cluster has SSE 0
            };
            let d_km = d_out + d_in;
            let in_new = self.cell_contrib(to, cells.as_ref(), cat_vals, num_vals, 1);
            let in_old = self.fair_cache[to];
            let d_fair = (out_new + in_new) - (out_old + in_old);
            let delta = d_km + lambda * d_fair;
            if delta < best_delta {
                best_delta = delta;
                best_to = to;
            }
        }
        (best_to, best_delta)
    }

    /// Serialize the full model: frozen reference, objective kind, and
    /// aggregates. Caches are derived state and are re-derived bitwise on
    /// decode (a refreshed cache is a pure function of the aggregates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_usize(&mut out, self.k);
        wire::put_usize(&mut out, self.dim);
        wire::put_usize(&mut out, self.cat.len());
        for attr in &self.cat {
            wire::put_usize(&mut out, attr.t);
            wire::put_f64s(&mut out, &attr.dist);
            wire::put_f64s(&mut out, &attr.value_scale);
            wire::put_f64(&mut out, attr.weight);
        }
        wire::put_usize(&mut out, self.num.len());
        for attr in &self.num {
            wire::put_f64(&mut out, attr.mean);
            wire::put_f64(&mut out, attr.weight);
        }
        encode_kind(&mut out, self.kind);
        self.agg.to_bytes(&mut out);
        out
    }

    /// Decode a model serialized by [`Self::to_bytes`] from a sequential
    /// reader (every snapshot embeds one); a typed error on truncated, malformed or
    /// inconsistently shaped bytes.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let k = r.get_usize()?;
        let dim = r.get_usize()?;
        let n_cat = r.get_len(8)?;
        let mut cat = Vec::with_capacity(n_cat);
        for _ in 0..n_cat {
            cat.push(CatAttr {
                t: r.get_usize()?,
                dist: r.get_f64s()?,
                value_scale: r.get_f64s()?,
                weight: r.get_f64()?,
            });
        }
        let n_num = r.get_len(8)?;
        let mut num = Vec::with_capacity(n_num);
        for _ in 0..n_num {
            num.push(NumAttr {
                mean: r.get_f64()?,
                weight: r.get_f64()?,
            });
        }
        let kind = decode_kind(r)?;
        let agg = AggregateDelta::from_reader(r)?;
        Self::new(k, dim, cat, num, kind, agg)
    }
}

/// `‖x‖²` of a task row, summed in index order — the one formula every
/// slot's cached norm comes from.
pub(crate) fn sqnorm(row: &[f64]) -> f64 {
    row.iter().map(|v| v * v).sum::<f64>()
}

/// The mutable fit state: a [`ClusterModel`] plus the [`SlotTable`] it is
/// fed from. Batch fits borrow the task matrix's values; the streaming
/// driver owns them, so rows can be appended ([`SlotTable::push`]).
#[derive(Clone)]
pub(crate) struct State<'a> {
    /// The aggregate engine every mutation and score runs through.
    pub model: ClusterModel,
    /// Every slot's row and cluster; [`TOMBSTONE`] marks slots outside the
    /// clustering (never ingested into a cluster, or already evicted).
    /// Every scan skips such slots; streaming insert/remove toggles slots
    /// between live and tombstoned.
    pub table: SlotTable<'a>,
    /// Worker threads for rebuild / K-Means-term evaluation (≥ 1). The
    /// chunk layout is independent of this, so it never changes results.
    pub threads: usize,
    /// Number of full [`State::rebuild`] calls and committed installs
    /// (including the constructor's rebuild). Diagnostic: a windowed pass
    /// is rebuild-free, accepted and failed windows alike, and the
    /// regression tests pin that down through this counter. It is not
    /// persisted — the stream payload is shared with the sharded
    /// coordinator, which counts no rebuilds — so a restored state counts
    /// from zero.
    pub rebuilds: usize,
    /// Number of windows that failed monotone acceptance and were
    /// descended one move at a time from the unchanged window-start
    /// aggregates (no rebuild).
    pub fallbacks: usize,
    /// Live slots the per-move descent scored with the exact kernel
    /// ([`SlotTable::first_improving`]); slots a [`WindowMemo`] proved
    /// cannot move are not counted. Diagnostic and not persisted, like
    /// [`Self::rebuilds`].
    pub descent_scored: usize,
}

impl<'a> State<'a> {
    /// Build from views and an initial assignment with the paper's Eq. 4
    /// weighting (test convenience; the driver passes the configured norm
    /// through [`Self::with_norm`]).
    #[cfg(test)]
    pub fn new(
        matrix: &'a NumericMatrix,
        space: &SensitiveSpace,
        weights: &[f64],
        k: usize,
        assignment: Vec<usize>,
    ) -> Self {
        Self::with_norm(
            Cow::Borrowed(matrix),
            space,
            weights,
            k,
            assignment,
            FairnessNorm::DomainCardinality,
            ObjectiveKind::Representativity,
            1,
        )
    }

    /// Like [`Self::new`] with an explicit deviation normalization,
    /// fairness objective, and worker-thread count. Batch fits borrow the
    /// task matrix; the streaming driver hands over an owned one
    /// (`'a = 'static`) so the state can outlive its construction site and
    /// grow.
    #[allow(clippy::too_many_arguments)]
    pub fn with_norm(
        matrix: Cow<'a, NumericMatrix>,
        space: &SensitiveSpace,
        weights: &[f64],
        k: usize,
        assignment: Vec<usize>,
        norm: FairnessNorm,
        objective: ObjectiveKind,
        threads: usize,
    ) -> Self {
        let n = matrix.rows();
        let dim = matrix.cols();
        debug_assert_eq!(assignment.len(), n);
        debug_assert_eq!(weights.len(), space.n_attrs());
        let cat: Vec<CatAttr> = space
            .categorical()
            .iter()
            .zip(weights)
            .map(|(a, &w)| CatAttr {
                t: a.cardinality(),
                dist: a.dataset_dist().to_vec(),
                value_scale: value_scales(a.dataset_dist(), n, norm),
                weight: w,
            })
            .collect();
        let num: Vec<NumAttr> = space
            .numeric()
            .iter()
            .zip(&weights[space.categorical().len()..])
            .map(|(a, &w)| NumAttr {
                mean: a.dataset_mean(),
                weight: w,
            })
            .collect();
        let codes = (0..n)
            .flat_map(|i| space.categorical().iter().map(move |a| a.value(i)))
            .collect();
        let values = (0..n)
            .flat_map(|i| space.numeric().iter().map(move |a| a.value(i)))
            .collect();
        let threads = threads.max(1);
        // Point norms never change, so they are computed exactly once.
        // Per-point sums are sequential within the point, so the values are
        // independent of the thread count.
        let sqnorms = fairkm_parallel::map_indexed(threads, 0..n, |i| sqnorm(matrix.row(i)));
        let cat_ts: Vec<usize> = cat.iter().map(|a| a.t).collect();
        let zeroed = AggregateDelta::zeroed(k, dim, &cat_ts, num.len());
        // The objective is instantiated against the frozen sensitive
        // reference (dataset distributions/means inside the attributes).
        let model = ClusterModel::new(k, dim, cat, num, objective, zeroed)
            .expect("zeroed aggregates are shaped like the model");
        let table = SlotTable {
            rows: match matrix {
                Cow::Borrowed(m) => Cow::Borrowed(m.as_slice()),
                Cow::Owned(m) => Cow::Owned(m.into_data()),
            },
            codes,
            values,
            clusters: assignment,
            sqnorms,
            widths: [dim, model.cat.len(), model.num.len()],
        };
        let mut state = Self {
            model,
            table,
            threads,
            rebuilds: 0,
            fallbacks: 0,
            descent_scored: 0,
        };
        state.rebuild();
        state
    }

    /// Backing-store slots, including unassigned ones.
    #[inline]
    pub fn n(&self) -> usize {
        self.table.n_slots()
    }

    /// Recompute every running aggregate from the slot clusters, then
    /// refresh the scoring cache of every cluster.
    ///
    /// Chunks of rows are aggregated in parallel ([`SlotTable::fold`]) and
    /// merged in chunk order, so the sums are bitwise-identical for any
    /// [`Self::threads`] value.
    pub fn rebuild(&mut self) {
        let total = fairkm_parallel::fold_chunks(
            self.threads,
            self.n(),
            self.model.zeroed_delta(),
            |range| self.table.fold(self.model.zeroed_delta(), range),
            AggregateDelta::merge,
        );
        self.model.install(total);
        self.rebuilds += 1;
    }

    /// Apply committed log entries in order, then refresh the scoring
    /// cache — the single-node side of [`crate::machine::Replica::commit`].
    /// An install counts as a rebuild.
    pub fn commit(&mut self, entries: &mut Vec<Entry>) {
        for entry in entries.drain(..) {
            if let LogEntry::Install { .. } = entry {
                self.rebuilds += 1;
            }
            self.table.apply(&mut self.model, entry);
        }
        self.model.refresh_cache();
    }

    /// Squared distance from point `x` to cluster `c`'s prototype;
    /// `f64::INFINITY` for an empty cluster (no prototype exists).
    ///
    /// This is the literal per-pair form (derive the prototype from the
    /// running sum, subtract, square): it reads only the aggregates, so it
    /// never depends on cache freshness. The hot loop uses
    /// [`ClusterModel::sq_dist_row_cached`] instead; this form remains the
    /// reference kernel for [`Self::kmeans_term`], the `scoring_cache`
    /// bench baseline, and the kernel-equivalence tests.
    #[inline]
    pub fn sq_dist_to_prototype(&self, x: usize, c: usize) -> f64 {
        let s = self.model.agg.size[c];
        if s == 0 {
            return f64::INFINITY;
        }
        let inv = 1.0 / s as f64;
        let dim = self.model.dim;
        let sums = &self.model.agg.centroid_sum[c * dim..(c + 1) * dim];
        let row = self.table.row(x);
        let mut acc = 0.0;
        for (v, sum) in row.iter().zip(sums) {
            let d = v - sum * inv;
            acc += d * d;
        }
        acc
    }

    /// The K-Means term of the objective (Eq. 1, left): total
    /// within-cluster SSE against the current prototypes. Chunk-parallel
    /// with ordered reduction — bitwise-stable across thread counts.
    pub fn kmeans_term(&self) -> f64 {
        fairkm_parallel::sum_chunks(self.threads, self.n(), |range| {
            let mut total = 0.0;
            for i in range {
                let c = self.table.cluster(i);
                if c != TOMBSTONE && self.model.agg.size[c] > 0 {
                    total += self.sq_dist_to_prototype(i, c);
                }
            }
            total
        })
    }

    /// Change in the fairness term if `x` moved `from → to` (Eq. 19),
    /// with every contribution recomputed from the aggregates.
    pub fn delta_fairness(&self, x: usize, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let p = PointRef::Row(self.table.cat(x), self.table.num(x));
        let out_new = self.model.contrib_adjusted(from, p, -1);
        let in_new = self.model.contrib_adjusted(to, p, 1);
        let out_old = self.model.fairness_contrib(from);
        let in_old = self.model.fairness_contrib(to);
        (out_new + in_new) - (out_old + in_old)
    }

    /// Change in the K-Means term if `x` moved `from → to`, via the
    /// Hartigan–Wong closed form over the cached distance kernel.
    /// `μ_from` includes `x`; `μ_to` does not. Requires a fresh cache for
    /// both clusters.
    ///
    /// The hot loop ([`ClusterModel::propose_move_row`]) inlines this
    /// arithmetic with the origin terms hoisted; this form is the
    /// uncomposed reference the δ-equivalence tests exercise.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn delta_kmeans_incremental(&self, x: usize, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let (row, sqnorm) = (self.table.row(x), self.table.sqnorms[x]);
        let s_from = self.model.agg.size[from];
        let d_out = if s_from > 1 {
            let d = self.model.sq_dist_row_cached(row, sqnorm, from);
            -(s_from as f64 / (s_from as f64 - 1.0)) * d
        } else {
            0.0 // removing the last member: that cluster's SSE was 0
        };
        let s_to = self.model.agg.size[to];
        let d_in = if s_to > 0 {
            let d = self.model.sq_dist_row_cached(row, sqnorm, to);
            (s_to as f64 / (s_to as f64 + 1.0)) * d
        } else {
            0.0 // singleton in an empty cluster has SSE 0
        };
        d_out + d_in
    }

    /// Change in the K-Means term via the paper's literal Eqs. 11–14:
    /// recompute both affected clusters' SSE around the shifted prototypes
    /// by iterating over the whole dataset. O(|X|·|N|) per call.
    pub fn delta_kmeans_literal(&self, x: usize, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let dim = self.model.dim;
        let mut mu_from_old = vec![0.0; dim];
        let mut mu_to_old = vec![0.0; dim];
        self.model.prototype_into(from, &mut mu_from_old);
        self.model.prototype_into(to, &mut mu_to_old);
        let row_x = self.table.row(x);

        // Eq. 11: the origin prototype after excluding x.
        let s_from = self.model.agg.size[from] as f64;
        let mu_from_new: Vec<f64> = if self.model.agg.size[from] > 1 {
            mu_from_old
                .iter()
                .zip(row_x)
                .map(|(&m, &v)| (m - v / s_from) * (s_from / (s_from - 1.0)))
                .collect()
        } else {
            vec![0.0; dim] // cluster empties out; no members remain
        };
        // Eq. 13: the target prototype after including x.
        let s_to = self.model.agg.size[to] as f64;
        let mu_to_new: Vec<f64> = mu_to_old
            .iter()
            .zip(row_x)
            .map(|(&m, &v)| m * (s_to / (s_to + 1.0)) + v / (s_to + 1.0))
            .collect();

        // Eq. 12: δXout = Σ_{x'∈from, x'≠x} ‖x'−μ_new‖² −
        //                 [Σ_{x'∈from, x'≠x} ‖x'−μ_old‖² + ‖x−μ_old‖²]
        let mut d_out = -sq_euclidean(row_x, &mu_from_old);
        // Eq. 14: δXin  = [Σ_{x'∈to} ‖x'−μ_new‖² + ‖x−μ_new‖²] −
        //                 Σ_{x'∈to} ‖x'−μ_old‖²
        let mut d_in = sq_euclidean(row_x, &mu_to_new);
        for i in 0..self.n() {
            if i == x {
                continue;
            }
            let c = self.table.cluster(i);
            if c == from {
                let row = self.table.row(i);
                d_out += sq_euclidean(row, &mu_from_new) - sq_euclidean(row, &mu_from_old);
            } else if c == to {
                let row = self.table.row(i);
                d_in += sq_euclidean(row, &mu_to_new) - sq_euclidean(row, &mu_to_old);
            }
        }
        d_out + d_in
    }

    /// Drop every tombstoned slot from the backing store, renumbering the
    /// survivors. Returns the old slot indices that were kept, in order
    /// (new slot `i` held old slot `kept[i]`) so callers can renumber
    /// parallel stores.
    ///
    /// The model — aggregates, caches and frozen reference — is preserved
    /// **verbatim**: it is cluster-indexed and references no slot ids, so
    /// renumbering the points cannot change it. Re-deriving the aggregates
    /// here (a `rebuild`) would sum the same members in a different op
    /// order than the incremental add/remove history and perturb the low
    /// bits — breaking the contract that compaction is bitwise transparent
    /// to the stream (pinned by `tests/compact_regression.rs`).
    pub fn compact(&mut self) -> Vec<usize> {
        let kept: Vec<usize> = (0..self.n())
            .filter(|&i| self.table.cluster(i) != TOMBSTONE)
            .collect();
        if kept.len() == self.n() {
            return kept;
        }
        self.table = self.table.select(&kept);
        debug_assert_eq!(self.model.live, self.n(), "every surviving slot is live");
        kept
    }

    /// Debug-build cross-check of the delta-maintained state against a
    /// from-scratch recomputation: integer aggregates must agree exactly,
    /// float aggregates and the cached objective within a tight relative
    /// tolerance (exact bitwise agreement is unattainable for float sums —
    /// `(s − v) + v` does not round-trip in IEEE 754). No-op in release
    /// builds.
    pub fn debug_validate_cache(&self, lambda: f64) {
        #[cfg(debug_assertions)]
        {
            let m = &self.model;
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
            let fresh = self.table.fold(m.zeroed_delta(), 0..self.n());
            assert_eq!(m.agg.size, fresh.size, "delta-maintained sizes diverged");
            assert_eq!(
                m.live,
                fresh.size.iter().sum::<usize>(),
                "delta-maintained live count diverged"
            );
            assert_eq!(
                m.agg.cat_counts, fresh.cat_counts,
                "delta-maintained categorical counts diverged"
            );
            for (a, b) in m.agg.centroid_sum.iter().zip(&fresh.centroid_sum) {
                assert!(close(*a, *b), "centroid sum diverged: {a} vs {b}");
            }
            for (ours, theirs) in m.agg.num_sums.iter().zip(&fresh.num_sums) {
                for (a, b) in ours.iter().zip(theirs) {
                    assert!(close(*a, *b), "numeric sum diverged: {a} vs {b}");
                }
            }
            for (a, b) in m.agg.member_sqnorm.iter().zip(&fresh.member_sqnorm) {
                assert!(close(*a, *b), "member ‖x‖² sum diverged: {a} vs {b}");
            }
            m.debug_check_tables();
            if m.cache_is_fresh() {
                let cached = m.objective_cached(lambda);
                let scanned = self.kmeans_term() + lambda * m.fairness_term();
                assert!(
                    close(cached, scanned),
                    "cached objective diverged: {cached} vs {scanned}"
                );
            }
        }
        let _ = lambda;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairkm_data::{row, DatasetBuilder, NumericMatrix, Role};

    fn fixture() -> (NumericMatrix, SensitiveSpace) {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b", "c"])
            .unwrap();
        b.numeric("age", Role::Sensitive).unwrap();
        let rows = [
            (0.0, 0.1, "a", 20.0),
            (0.2, 0.0, "b", 30.0),
            (5.0, 5.1, "a", 40.0),
            (5.2, 5.0, "c", 50.0),
            (0.1, 0.2, "c", 25.0),
            (5.1, 5.2, "b", 45.0),
        ];
        for (x, y, g, age) in rows {
            b.push_row(row![x, y, g, age]).unwrap();
        }
        let d = b.build().unwrap();
        let m = d.task_matrix(fairkm_data::Normalization::None).unwrap();
        let s = d.sensitive_space().unwrap();
        (m, s)
    }

    fn state<'a>(m: &'a NumericMatrix, s: &SensitiveSpace, assignment: Vec<usize>) -> State<'a> {
        State::new(m, s, &[1.0, 1.0], 2, assignment)
    }

    /// Brute-force objective recomputation used as ground truth.
    fn objective_brute(st: &State<'_>, lambda: f64) -> f64 {
        st.kmeans_term() + lambda * st.model.fairness_term()
    }

    #[test]
    fn rebuild_matches_incremental_updates() {
        let (m, s) = fixture();
        let mut st = state(&m, &s, vec![0, 0, 1, 1, 0, 1]);
        st.table.move_slot(&mut st.model, 0, 0, 1);
        st.table.move_slot(&mut st.model, 3, 1, 0);
        let sizes = st.model.agg.size.clone();
        let sums = st.model.agg.centroid_sum.clone();
        let cats = st.model.agg.cat_counts.clone();
        let nums = st.model.agg.num_sums.clone();
        st.rebuild();
        assert_eq!(st.model.agg.size, sizes);
        for (a, b) in st.model.agg.centroid_sum.iter().zip(&sums) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(st.model.agg.cat_counts, cats);
        for (av, bv) in st.model.agg.num_sums.iter().zip(&nums) {
            for (a, b) in av.iter().zip(bv) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn incremental_delta_equals_literal_delta() {
        let (m, s) = fixture();
        let st = state(&m, &s, vec![0, 0, 1, 1, 0, 1]);
        for x in 0..6 {
            let from = st.table.cluster(x);
            let to = 1 - from;
            let inc = st.delta_kmeans_incremental(x, from, to);
            let lit = st.delta_kmeans_literal(x, from, to);
            assert!(
                (inc - lit).abs() < 1e-9,
                "x={x}: incremental {inc} vs literal {lit}"
            );
        }
    }

    #[test]
    fn deltas_equal_true_objective_change() {
        let (m, s) = fixture();
        let lambda = 3.5;
        for x in 0..6 {
            let mut st = state(&m, &s, vec![0, 0, 1, 1, 0, 1]);
            let from = st.table.cluster(x);
            let to = 1 - from;
            let before = objective_brute(&st, lambda);
            let predicted =
                st.delta_kmeans_incremental(x, from, to) + lambda * st.delta_fairness(x, from, to);
            st.table.move_slot(&mut st.model, x, from, to);
            let after = objective_brute(&st, lambda);
            assert!(
                (after - before - predicted).abs() < 1e-9,
                "x={x}: predicted {predicted}, actual {}",
                after - before
            );
        }
    }

    #[test]
    fn emptying_a_cluster_is_handled() {
        let (m, s) = fixture();
        let mut st = state(&m, &s, vec![0, 1, 1, 1, 1, 1]);
        // moving object 0 out of cluster 0 empties it
        let delta_km = st.delta_kmeans_incremental(0, 0, 1);
        let delta_fair = st.delta_fairness(0, 0, 1);
        assert!(delta_km.is_finite());
        assert!(delta_fair.is_finite());
        st.table.move_slot(&mut st.model, 0, 0, 1);
        assert_eq!(st.model.agg.size[0], 0);
        assert_eq!(st.model.fairness_contrib(0), 0.0);
        assert!(st.kmeans_term().is_finite());
    }

    #[test]
    fn fairness_term_zero_when_clusters_mirror_dataset() {
        // 4 points, 2 per group, split so each cluster has one of each.
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        b.push_row(row![0.0, "a"]).unwrap();
        b.push_row(row![1.0, "b"]).unwrap();
        b.push_row(row![2.0, "a"]).unwrap();
        b.push_row(row![3.0, "b"]).unwrap();
        let d = b.build().unwrap();
        let m = d.task_matrix(fairkm_data::Normalization::None).unwrap();
        let s = d.sensitive_space().unwrap();
        let st = State::new(&m, &s, &[1.0], 2, vec![0, 0, 1, 1]);
        assert!(st.model.fairness_term().abs() < 1e-15);
        let st2 = State::new(&m, &s, &[1.0], 2, vec![0, 1, 0, 1]);
        assert!(st2.model.fairness_term() > 0.01);
    }

    #[test]
    fn zero_weight_removes_attribute_from_deviation() {
        let (m, s) = fixture();
        let assignment = vec![0, 1, 0, 1, 0, 1];
        let full = State::new(&m, &s, &[1.0, 1.0], 2, assignment.clone());
        let cat_only = State::new(&m, &s, &[1.0, 0.0], 2, assignment.clone());
        let none = State::new(&m, &s, &[0.0, 0.0], 2, assignment);
        assert!(full.model.fairness_term() > cat_only.model.fairness_term());
        assert_eq!(none.model.fairness_term(), 0.0);
    }

    #[test]
    fn heavier_weight_amplifies_that_attributes_deviation() {
        let (m, s) = fixture();
        let assignment = vec![0, 1, 0, 1, 0, 1];
        let base = State::new(&m, &s, &[1.0, 0.0], 2, assignment.clone());
        let heavy = State::new(&m, &s, &[3.0, 0.0], 2, assignment);
        assert!((heavy.model.fairness_term() - 3.0 * base.model.fairness_term()).abs() < 1e-12);
    }

    #[test]
    fn cluster_weighting_uses_squared_fractional_cardinality() {
        // One cluster holding everything: weight (6/6)² = 1; its deviation
        // is 0 because its distribution IS the dataset distribution.
        let (m, s) = fixture();
        let st = state(&m, &s, vec![0; 6]);
        assert!(st.model.fairness_contrib(0).abs() < 1e-15);
        assert_eq!(st.model.fairness_contrib(1), 0.0);
    }

    #[test]
    fn slot_table_len_is_the_encoded_length() {
        let (m, s) = fixture();
        let mut st = State::with_norm(
            Cow::Owned(m),
            &s,
            &[1.0, 1.0],
            2,
            vec![0, 0, 1, 1, 0, 1],
            FairnessNorm::DomainCardinality,
            ObjectiveKind::bounded(),
            1,
        );
        st.table.remove(&mut st.model, 2);
        let mut out = Vec::new();
        st.table.put(&mut out);
        assert_eq!(out.len(), st.table.encoded_len());
    }

    #[test]
    fn inconsistent_replica_bytes_are_typed_errors() {
        // Well-framed model bytes whose shapes disagree must decode to a
        // typed error, not panic in the cache refresh.
        let (m, s) = fixture();
        let st = state(&m, &s, vec![0, 0, 1, 1, 0, 1]);
        let bytes = st.model.to_bytes();
        let back = ClusterModel::from_reader(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        let bumped = |offset: usize| {
            let mut b = bytes.clone();
            let v = u64::from_le_bytes(b[offset..offset + 8].try_into().unwrap());
            b[offset..offset + 8].copy_from_slice(&(v + 1).to_le_bytes());
            ClusterModel::from_reader(&mut Reader::new(&b))
        };
        // Layout: k, dim, the categorical attribute count, then the first
        // categorical attribute's cardinality t.
        assert!(
            matches!(bumped(0), Err(WireError::Invalid { .. })),
            "k bumped by one"
        );
        assert!(
            matches!(bumped(24), Err(WireError::Invalid { .. })),
            "wrong t"
        );
    }
}

#[cfg(test)]
mod proptests {
    //! The central correctness property of the whole algorithm: every δ
    //! computation must equal the brute-force objective difference, on
    //! arbitrary data, assignments and moves.

    use super::*;
    use crate::machine::improving;
    use fairkm_data::{AttrId, SensitiveCat, SensitiveNum, SensitiveSpace};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Instance {
        n: usize,
        k: usize,
        dim: usize,
        points: Vec<f64>,
        cat_values: Vec<u32>,
        cat_t: usize,
        num_values: Vec<f64>,
        assignment: Vec<usize>,
        x: usize,
        to: usize,
        lambda: f64,
    }

    fn instance() -> impl Strategy<Value = Instance> {
        (3usize..=12, 2usize..=4, 1usize..=3, 2usize..=4).prop_flat_map(|(n, k, dim, t)| {
            (
                proptest::collection::vec(-10.0f64..10.0, n * dim),
                proptest::collection::vec(0u32..t as u32, n),
                proptest::collection::vec(-5.0f64..5.0, n),
                proptest::collection::vec(0usize..k, n),
                0usize..n,
                0usize..k,
                0.0f64..100.0,
            )
                .prop_map(
                    move |(points, cat_values, num_values, assignment, x, to, lambda)| Instance {
                        n,
                        k,
                        dim,
                        points,
                        cat_values,
                        cat_t: t,
                        num_values,
                        assignment,
                        x,
                        to,
                        lambda,
                    },
                )
        })
    }

    fn build(inst: &Instance) -> (NumericMatrix, SensitiveSpace) {
        let names = (0..inst.dim).map(|i| format!("c{i}")).collect();
        let matrix = NumericMatrix::from_parts(inst.points.clone(), inst.n, inst.dim, names);
        let labels: Vec<String> = (0..inst.cat_t).map(|v| format!("v{v}")).collect();
        let cat = SensitiveCat::new(AttrId(0), "g".into(), labels, inst.cat_values.clone());
        let num = SensitiveNum::new(AttrId(1), "z".into(), inst.num_values.clone());
        let space = SensitiveSpace::new(inst.n, vec![cat], vec![num]);
        (matrix, space)
    }

    /// The candidate loop of [`ClusterModel::propose_move_row`] with both
    /// adjusted contributions computed by `contrib_adjusted`: the reference
    /// the move tables must reproduce bit for bit.
    fn propose_direct(st: &State<'_>, x: usize, lambda: f64) -> (usize, f64) {
        let (m, from) = (&st.model, st.table.cluster(x));
        let (row, sqnorm) = (st.table.row(x), st.table.sqnorms[x]);
        let p = PointRef::Row(st.table.cat(x), st.table.num(x));
        let s_from = m.agg.size[from];
        let d_out = if s_from > 1 {
            -(s_from as f64 / (s_from as f64 - 1.0)) * m.sq_dist_row_cached(row, sqnorm, from)
        } else {
            0.0
        };
        let out_new = m.contrib_adjusted(from, p, -1);
        let mut best = (from, 0.0f64);
        for to in (0..m.k).filter(|&to| to != from) {
            let s_to = m.agg.size[to];
            let d_in = if s_to > 0 {
                (s_to as f64 / (s_to as f64 + 1.0)) * m.sq_dist_row_cached(row, sqnorm, to)
            } else {
                0.0
            };
            let in_new = m.contrib_adjusted(to, p, 1);
            let d_fair = (out_new + in_new) - (m.fair_cache[from] + m.fair_cache[to]);
            let delta = (d_out + d_in) + lambda * d_fair;
            if delta < best.1 {
                best = (to, delta);
            }
        }
        best
    }

    /// Every live slot's proposal, and its adjusted contribution for every
    /// cluster it could join or the one it would leave, equal the direct
    /// computation bit for bit.
    fn check_tables(st: &State<'_>, lambda: f64) {
        for x in (0..st.n()).filter(|&x| st.table.cluster(x) != TOMBSTONE) {
            let from = st.table.cluster(x);
            let (cat, num) = (st.table.cat(x), st.table.num(x));
            for c in 0..st.model.k {
                let deltas: &[i64] = if c == from { &[-1] } else { &[1] };
                for &delta in deltas {
                    let tabulated = st.model.move_contrib(c, cat, num, delta);
                    let direct = st.model.contrib_adjusted(c, PointRef::Row(cat, num), delta);
                    prop_assert_eq!(
                        tabulated.to_bits(),
                        direct.to_bits(),
                        "slot {} cluster {} delta {}: {} vs {}",
                        x,
                        c,
                        delta,
                        tabulated,
                        direct
                    );
                }
            }
            let row = st.table.row(x);
            let got = st
                .model
                .propose_move_row(from, row, cat, num, st.table.sqnorms[x], lambda);
            let want = propose_direct(st, x, lambda);
            prop_assert_eq!(got.0, want.0, "slot {}", x);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "slot {}", x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn deltas_match_brute_force_objective_difference(inst in instance()) {
            let (matrix, space) = build(&inst);
            let mut st = State::new(&matrix, &space, &[1.0, 1.0], inst.k, inst.assignment.clone());
            let from = st.table.cluster(inst.x);
            prop_assume!(from != inst.to);

            let before = st.kmeans_term() + inst.lambda * st.model.fairness_term();
            let d_inc = st.delta_kmeans_incremental(inst.x, from, inst.to);
            let d_lit = st.delta_kmeans_literal(inst.x, from, inst.to);
            let d_fair = st.delta_fairness(inst.x, from, inst.to);

            // Engines agree with each other...
            prop_assert!((d_inc - d_lit).abs() < 1e-6,
                "incremental {d_inc} vs literal {d_lit}");

            st.table.move_slot(&mut st.model, inst.x, from, inst.to);
            st.rebuild(); // brute-force ground truth uses fresh aggregates
            let after = st.kmeans_term() + inst.lambda * st.model.fairness_term();

            // ...and with the true objective change.
            let predicted = d_inc + inst.lambda * d_fair;
            let actual = after - before;
            let tol = 1e-6 * (1.0 + before.abs() + after.abs());
            prop_assert!((predicted - actual).abs() < tol,
                "predicted {predicted} vs actual {actual}");
        }

        #[test]
        fn tabulated_proposals_equal_the_direct_candidate_loop(inst in instance()) {
            // A 41-valued second attribute, zero and non-unit weights, a
            // numeric attribute, a singleton origin (cluster k holds only
            // point x) and an empty target (cluster k + 1).
            let (k, x) = (inst.k + 2, inst.x);
            let (matrix, base) = build(&inst);
            let wide: Vec<u32> = (0..inst.n as u32)
                .map(|i| (i * 17 + inst.cat_values[i as usize] * 5) % 41)
                .collect();
            let labels = (0..41).map(|v| format!("w{v}")).collect();
            let wide = SensitiveCat::new(AttrId(2), "w".into(), labels, wide);
            let cat = vec![base.categorical()[0].clone(), wide];
            let space = SensitiveSpace::new(inst.n, cat, base.numeric().to_vec());
            let mut assignment = inst.assignment.clone();
            assignment[x] = inst.k;
            let kinds = [ObjectiveKind::Representativity, ObjectiveKind::bounded()];
            let weights = [[1.0, 1.0, 1.0], [0.0, 2.5, 1.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]];
            for (kind, norm) in kinds.into_iter().flat_map(|kind| {
                [FairnessNorm::DomainCardinality, FairnessNorm::SkewAware].map(|n| (kind, n))
            }) {
                for w in &weights {
                    let mut st = State::with_norm(
                        Cow::Borrowed(&matrix), &space, w, k, assignment.clone(), norm, kind, 1,
                    );
                    check_tables(&st, inst.lambda);
                    // Emptied origin, singleton target, then a live change.
                    st.table.move_slot(&mut st.model, x, inst.k, inst.k + 1);
                    st.model.refresh_cache();
                    check_tables(&st, inst.lambda);
                    st.table.remove(&mut st.model, (x + 1) % inst.n);
                    st.model.refresh_cache();
                    check_tables(&st, inst.lambda);
                }
            }
        }

        #[test]
        fn memo_backed_descent_steps_equal_the_plain_scan(
            inst in instance(),
            window in (0usize..64, 0usize..64),
            ops in proptest::collection::vec((0usize..64, 0usize..8, 0usize..6), 0..16),
            ranges in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
        ) {
            // The setup of `tabulated_proposals_equal_the_direct_candidate_
            // loop`, under every objective: record a window, change the
            // clustering under it (moves, removals, re-insertions, an
            // install), then every descent step over a subrange of the
            // window finds what the plain scan finds.
            let (k, x, n) = (inst.k + 2, inst.x, inst.n);
            let (matrix, base) = build(&inst);
            let wide: Vec<u32> = (0..n as u32)
                .map(|i| (i * 17 + inst.cat_values[i as usize] * 5) % 41)
                .collect();
            let labels = (0..41).map(|v| format!("w{v}")).collect();
            let wide = SensitiveCat::new(AttrId(2), "w".into(), labels, wide);
            let cat = vec![base.categorical()[0].clone(), wide];
            let space = SensitiveSpace::new(n, cat, base.numeric().to_vec());
            let mut assignment = inst.assignment.clone();
            assignment[x] = inst.k;
            let (lo, hi) = (window.0 % (n + 1), window.1 % (n + 1));
            let window = lo.min(hi)..lo.max(hi);
            let kinds = [
                ObjectiveKind::Representativity,
                ObjectiveKind::bounded(),
                ObjectiveKind::Utilitarian,
                ObjectiveKind::Egalitarian,
            ];
            let weights = [[1.0, 1.0, 1.0], [0.0, 2.5, 1.0], [1.0, 0.0, 0.0]];
            for (kind, w) in kinds.into_iter().flat_map(|kind| weights.iter().map(move |w| (kind, w))) {
                let mut st = State::with_norm(
                    Cow::Owned(matrix.clone()), &space, w, k, assignment.clone(),
                    FairnessNorm::DomainCardinality, kind, 1,
                );
                let mut memo = WindowMemo::default();
                st.table.propose_window(&st.model, &mut memo, window.clone(), inst.lambda, 1);
                for &(xi, ti, op) in &ops {
                    let (y, to) = (xi % n, ti % k);
                    let from = st.table.cluster(y);
                    match op {
                        0..=2 if from != TOMBSTONE && from != to => st.table.move_slot(&mut st.model, y, from, to),
                        3 if from != TOMBSTONE => drop(st.table.remove(&mut st.model, y)),
                        4 if from == TOMBSTONE => st.table.insert(&mut st.model, y, to),
                        5 => st.rebuild(),
                        _ => {}
                    }
                }
                st.model.refresh_cache();
                for &(a, b) in &ranges {
                    let (a, b) = (window.start + a % (window.len() + 1), window.start + b % (window.len() + 1));
                    let range = a.min(b)..a.max(b);
                    let plain = range.clone().find_map(|y| {
                        let from = st.table.cluster(y);
                        if from == TOMBSTONE {
                            return None;
                        }
                        let (row, sqnorm) = (st.table.row(y), st.table.sqnorms[y]);
                        let best = st.model.propose_move_row(
                            from, row, st.table.cat(y), st.table.num(y), sqnorm, inst.lambda,
                        );
                        Some((y, improving(from, best)?))
                    });
                    let (memo_backed, _) = st.table.first_improving(
                        &st.model, Some(&mut memo), range.clone(), inst.lambda,
                        |y| st.table.propose(&st.model, y, inst.lambda),
                    );
                    prop_assert_eq!(memo_backed, plain, "{:?} weights {:?} range {:?}", kind, w, range);
                }
            }
        }

        #[test]
        fn fractional_representations_stay_consistent(inst in instance()) {
            // Running counts (Eqs. 20–21 analogue) must equal a recount
            // after an arbitrary accepted move.
            let (matrix, space) = build(&inst);
            let mut st = State::new(&matrix, &space, &[1.0, 1.0], inst.k, inst.assignment.clone());
            let from = st.table.cluster(inst.x);
            prop_assume!(from != inst.to);
            st.table.move_slot(&mut st.model, inst.x, from, inst.to);

            let counts = st.model.agg.cat_counts[0].clone();
            let sums = st.model.agg.num_sums[0].clone();
            st.rebuild();
            prop_assert_eq!(&counts, &st.model.agg.cat_counts[0]);
            for (a, b) in sums.iter().zip(&st.model.agg.num_sums[0]) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn move_sequences_match_from_scratch_rebuild(
            inst in instance(),
            ops in proptest::collection::vec((0usize..64, 0usize..8, 0usize..3), 1..24),
        ) {
            // Random interleavings of moves and their inverses must leave
            // every running aggregate and cache entry equal to a state
            // built from scratch over the final assignment: integer
            // aggregates exactly, float sums and the cached objective
            // within one-rounding-step tolerance (see
            // `State::debug_validate_cache` for why bitwise float
            // agreement is unattainable).
            let (matrix, space) = build(&inst);
            let mut st = State::new(&matrix, &space, &[1.0, 1.0], inst.k, inst.assignment.clone());
            let mut undo: Vec<(usize, usize, usize)> = Vec::new();
            for (xi, ti, kind) in ops {
                if kind == 2 {
                    if let Some((x, from, to)) = undo.pop() {
                        st.table.move_slot(&mut st.model, x, to, from);
                    }
                    continue;
                }
                let x = xi % inst.n;
                let from = st.table.cluster(x);
                let to = ti % inst.k;
                if to != from {
                    st.table.move_slot(&mut st.model, x, from, to);
                    undo.push((x, from, to));
                }
            }
            st.model.refresh_cache();
            st.debug_validate_cache(inst.lambda);

            let fresh = State::new(&matrix, &space, &[1.0, 1.0], inst.k, st.table.clusters.clone());
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
            prop_assert_eq!(&st.model.agg.size, &fresh.model.agg.size);
            for (ours, theirs) in st.model.agg.cat_counts.iter().zip(&fresh.model.agg.cat_counts) {
                prop_assert_eq!(ours, theirs);
            }
            for (a, b) in st.model.agg.centroid_sum.iter().zip(&fresh.model.agg.centroid_sum) {
                prop_assert!(close(*a, *b), "centroid sum {a} vs {b}");
            }
            for (ours, theirs) in st.model.agg.num_sums.iter().zip(&fresh.model.agg.num_sums) {
                for (a, b) in ours.iter().zip(theirs) {
                    prop_assert!(close(*a, *b), "numeric sum {a} vs {b}");
                }
            }
            for (a, b) in st.model.agg.member_sqnorm.iter().zip(&fresh.model.agg.member_sqnorm) {
                prop_assert!(close(*a, *b), "member sqnorm {a} vs {b}");
            }
            let cached = st.model.objective_cached(inst.lambda);
            let scanned = fresh.kmeans_term() + inst.lambda * fresh.model.fairness_term();
            prop_assert!(close(cached, scanned),
                "cached objective {cached} vs from-scratch {scanned}");
        }

        #[test]
        fn insert_remove_move_sequences_match_from_scratch_rebuild(
            inst in instance(),
            ops in proptest::collection::vec((0usize..64, 0usize..8, 0usize..5), 1..32),
        ) {
            // Random interleavings of the three delta mutators — a move,
            // a removal (eviction), an insert (re-ingestion) — must
            // leave every running aggregate, the live count, and the cache
            // equal to a state rebuilt from scratch over the final
            // assignment (TOMBSTONE tombstones included): integers
            // exactly, float sums within rounding tolerance. This is the
            // streaming analogue of
            // `move_sequences_match_from_scratch_rebuild`.
            let (matrix, space) = build(&inst);
            let mut st = State::with_norm(
                Cow::Owned(matrix.clone()),
                &space,
                &[1.0, 1.0],
                inst.k,
                inst.assignment.clone(),
                FairnessNorm::DomainCardinality,
                ObjectiveKind::Representativity,
                1,
            );
            for (xi, ti, kind) in ops {
                let x = xi % inst.n;
                let to = ti % inst.k;
                match kind {
                    // moves (2 in 5) on live points
                    0 | 1 => {
                        let from = st.table.cluster(x);
                        if from != TOMBSTONE && from != to {
                            st.table.move_slot(&mut st.model, x, from, to);
                        }
                    }
                    // eviction (2 in 5) of live points
                    2 | 3 => {
                        if st.table.cluster(x) != TOMBSTONE {
                            st.table.remove(&mut st.model, x);
                        }
                    }
                    // re-insertion of tombstoned points
                    _ => {
                        if st.table.cluster(x) == TOMBSTONE {
                            st.table.insert(&mut st.model, x, to);
                        }
                    }
                }
            }
            st.model.refresh_cache();
            st.debug_validate_cache(inst.lambda);

            let fresh = State::new(&matrix, &space, &[1.0, 1.0], inst.k, st.table.clusters.clone());
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
            prop_assert_eq!(&st.model.agg.size, &fresh.model.agg.size);
            prop_assert_eq!(st.model.live, fresh.model.live);
            prop_assert_eq!(st.model.live, st.model.agg.size.iter().sum::<usize>());
            for (ours, theirs) in st.model.agg.cat_counts.iter().zip(&fresh.model.agg.cat_counts) {
                prop_assert_eq!(ours, theirs);
            }
            for (a, b) in st.model.agg.centroid_sum.iter().zip(&fresh.model.agg.centroid_sum) {
                prop_assert!(close(*a, *b), "centroid sum {} vs {}", a, b);
            }
            for (ours, theirs) in st.model.agg.num_sums.iter().zip(&fresh.model.agg.num_sums) {
                for (a, b) in ours.iter().zip(theirs) {
                    prop_assert!(close(*a, *b), "numeric sum {} vs {}", a, b);
                }
            }
            for (a, b) in st.model.agg.member_sqnorm.iter().zip(&fresh.model.agg.member_sqnorm) {
                prop_assert!(close(*a, *b), "member sqnorm {} vs {}", a, b);
            }
            let cached = st.model.objective_cached(inst.lambda);
            let scanned = fresh.kmeans_term() + inst.lambda * fresh.model.fairness_term();
            prop_assert!(close(cached, scanned),
                "cached objective {} vs from-scratch {}", cached, scanned);
        }

        #[test]
        fn insertion_delta_matches_brute_force_objective_change(inst in instance()) {
            // Evict a point, then: the frozen-prototype insertion delta of
            // putting it back into ANY cluster must equal the brute-force
            // objective difference (rebuild + full scan before vs after).
            let (matrix, space) = build(&inst);
            let mut st = State::with_norm(
                Cow::Owned(matrix.clone()),
                &space,
                &[1.0, 1.0],
                inst.k,
                inst.assignment.clone(),
                FairnessNorm::DomainCardinality,
                ObjectiveKind::Representativity,
                1,
            );
            let x = inst.x;
            st.table.remove(&mut st.model, x);
            st.model.refresh_cache();
            let before = st.kmeans_term() + inst.lambda * st.model.fairness_term();
            let row = st.table.row(x).to_vec();
            let cat_vals = [inst.cat_values[x]];
            let num_vals = [inst.num_values[x]];
            let (best, best_delta) =
                st.model.score_insertion(&row, &cat_vals, &num_vals, inst.lambda);
            // All predictions against the same frozen caches (the later
            // insert/rebuild cycles perturb float sums in the last bits).
            let deltas: Vec<f64> = (0..inst.k)
                .map(|c| st.model.insertion_delta(c, &row, &cat_vals, &num_vals, inst.lambda))
                .collect();
            for (c, &predicted) in deltas.iter().enumerate() {
                st.table.insert(&mut st.model, x, c);
                st.rebuild();
                let after = st.kmeans_term() + inst.lambda * st.model.fairness_term();
                st.table.remove(&mut st.model, x);
                st.rebuild();
                let actual = after - before;
                let tol = 1e-6 * (1.0 + before.abs() + after.abs());
                prop_assert!((predicted - actual).abs() < tol,
                    "cluster {}: predicted {} vs actual {}", c, predicted, actual);
            }
            // score_insertion picks the argmin with lowest-index ties.
            let min = deltas.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(best_delta, min);
            prop_assert!(deltas[best] == min);
        }

        #[test]
        fn new_objective_interleavings_match_from_scratch_rebuild(
            inst in instance(),
            ops in proptest::collection::vec((0usize..64, 0usize..8, 0usize..5), 1..32),
        ) {
            // Rebuild parity for every non-default objective: random
            // apply/remove/insert interleavings must leave the cached
            // per-cluster contributions and the cached objective equal to
            // a from-scratch state over the final assignment — the same
            // contract `insert_remove_move_sequences_match_from_scratch_rebuild`
            // pins for Eq. 7, replayed through the pluggable dispatch.
            for kind in [
                ObjectiveKind::bounded(),
                ObjectiveKind::BoundedRepresentation { lower: 0.5, upper: 2.0 },
                ObjectiveKind::Utilitarian,
                ObjectiveKind::Egalitarian,
            ] {
                let (matrix, space) = build(&inst);
                let mut st = State::with_norm(
                    Cow::Owned(matrix.clone()),
                    &space,
                    &[1.0, 1.0],
                    inst.k,
                    inst.assignment.clone(),
                    FairnessNorm::DomainCardinality,
                    kind,
                    1,
                );
                for &(xi, ti, op) in &ops {
                    let x = xi % inst.n;
                    let to = ti % inst.k;
                    match op {
                        0 | 1 => {
                            let from = st.table.cluster(x);
                            if from != TOMBSTONE && from != to {
                                st.table.move_slot(&mut st.model, x, from, to);
                            }
                        }
                        2 | 3 => {
                            if st.table.cluster(x) != TOMBSTONE {
                                st.table.remove(&mut st.model, x);
                            }
                        }
                        _ => {
                            if st.table.cluster(x) == TOMBSTONE {
                                st.table.insert(&mut st.model, x, to);
                            }
                        }
                    }
                }
                st.model.refresh_cache();
                st.debug_validate_cache(inst.lambda);

                let fresh = State::with_norm(
                    Cow::Borrowed(&matrix),
                    &space,
                    &[1.0, 1.0],
                    inst.k,
                    st.table.clusters.clone(),
                    FairnessNorm::DomainCardinality,
                    kind,
                    1,
                );
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
                prop_assert_eq!(&st.model.agg.size, &fresh.model.agg.size);
                prop_assert_eq!(st.model.live, fresh.model.live);
                for (ours, theirs) in st.model.agg.cat_counts.iter().zip(&fresh.model.agg.cat_counts) {
                    prop_assert_eq!(ours, theirs);
                }
                for (c, (a, b)) in st.model.fair_cache.iter().zip(&fresh.model.fair_cache).enumerate() {
                    prop_assert!(close(*a, *b),
                        "{:?} cluster {} contribution {} vs from-scratch {}", kind, c, a, b);
                }
                let cached = st.model.objective_cached(inst.lambda);
                let scanned = fresh.kmeans_term() + inst.lambda * fresh.model.fairness_term();
                prop_assert!(close(cached, scanned),
                    "{:?} cached objective {} vs from-scratch {}", kind, cached, scanned);
            }
        }

        #[test]
        fn new_objective_insertion_deltas_match_brute_force(inst in instance()) {
            // The frozen-cache insertion delta (insertion_contrib + the
            // rescale of untouched contributions) must equal the
            // brute-force objective difference for every non-default
            // objective — the rescale shortcut is exact whenever a
            // contribution factors as (|C|/|X|)²·dev(aggregates), which
            // each shipped objective guarantees.
            for kind in [
                ObjectiveKind::bounded(),
                ObjectiveKind::Utilitarian,
                ObjectiveKind::Egalitarian,
            ] {
                let (matrix, space) = build(&inst);
                let mut st = State::with_norm(
                    Cow::Owned(matrix.clone()),
                    &space,
                    &[1.0, 1.0],
                    inst.k,
                    inst.assignment.clone(),
                    FairnessNorm::DomainCardinality,
                    kind,
                    1,
                );
                let x = inst.x;
                st.table.remove(&mut st.model, x);
                st.model.refresh_cache();
                let before = st.kmeans_term() + inst.lambda * st.model.fairness_term();
                let row = st.table.row(x).to_vec();
                let cat_vals = [inst.cat_values[x]];
                let num_vals = [inst.num_values[x]];
                let deltas: Vec<f64> = (0..inst.k)
                    .map(|c| st.model.insertion_delta(c, &row, &cat_vals, &num_vals, inst.lambda))
                    .collect();
                for (c, &predicted) in deltas.iter().enumerate() {
                    st.table.insert(&mut st.model, x, c);
                    st.rebuild();
                    let after = st.kmeans_term() + inst.lambda * st.model.fairness_term();
                    st.table.remove(&mut st.model, x);
                    st.rebuild();
                    let actual = after - before;
                    let tol = 1e-6 * (1.0 + before.abs() + after.abs());
                    prop_assert!((predicted - actual).abs() < tol,
                        "{:?} cluster {}: predicted {} vs actual {}", kind, c, predicted, actual);
                }
            }
        }

        #[test]
        fn bounded_penalty_is_zero_inside_the_band(inst in instance()) {
            // With the widest-open band (lower 0, upper well past any
            // share) no categorical violation exists, so the bounded
            // objective reduces to the numeric Eq. 22 terms only; and the
            // penalty is never negative.
            let (matrix, space) = build(&inst);
            let wide = State::with_norm(
                Cow::Borrowed(&matrix),
                &space,
                &[1.0, 0.0], // numeric attr muted: pure categorical view
                inst.k,
                inst.assignment.clone(),
                FairnessNorm::DomainCardinality,
                ObjectiveKind::BoundedRepresentation { lower: 0.0, upper: 1.0 / f64::EPSILON },
                1,
            );
            prop_assert!(wide.model.fairness_term().abs() == 0.0,
                "wide-open band must cost nothing, got {}", wide.model.fairness_term());

            let tight = State::with_norm(
                Cow::Borrowed(&matrix),
                &space,
                &[1.0, 1.0],
                inst.k,
                inst.assignment.clone(),
                FairnessNorm::DomainCardinality,
                ObjectiveKind::BoundedRepresentation { lower: 1.0, upper: 1.0 },
                1,
            );
            prop_assert!(tight.model.fairness_term() >= 0.0);
        }

        #[test]
        fn fairness_term_is_nonnegative_and_zero_only_at_parity(inst in instance()) {
            let (matrix, space) = build(&inst);
            let st = State::new(&matrix, &space, &[1.0, 1.0], inst.k, inst.assignment.clone());
            let dev = st.model.fairness_term();
            prop_assert!(dev >= 0.0);
            // Single-cluster configurations mirror the dataset exactly.
            let st_one = State::new(&matrix, &space, &[1.0, 1.0], inst.k, vec![0; inst.n]);
            prop_assert!(st_one.model.fairness_term().abs() < 1e-12);
        }
    }
}
