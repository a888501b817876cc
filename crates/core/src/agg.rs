//! The row store and the shard-support primitives: additive per-cluster
//! aggregate deltas, the per-slot payloads the shard protocol moves around,
//! the one slot table every host keeps its rows in (and its wire form), and
//! the wire encoding of the objective kind.
//!
//! The FairKM objective is a function of purely additive per-cluster
//! aggregates — `Σx`, `Σ‖x‖²`, per-group member counts, numeric value sums
//! — which is what makes a sharded optimizer possible at all. Correctness
//! of the sharded engine, however, is **bitwise**: the workspace-wide
//! determinism contract says thread counts and shard counts may change
//! wall-clock time, never a single bit of the clustering. [`AggregateDelta`]
//! is the exact per-chunk partial the single-node rebuild folds: deltas
//! built row-by-row in slot order and merged in **chunk-index order from a
//! zeroed identity** reproduce the single-node aggregate floats bit for
//! bit, because `fairkm_parallel::fold_chunks` uses a thread-independent
//! chunk decomposition and a left-fold merge. A distributed rebuild that
//! chains each chunk's fold through the shards owning its slots (in slot
//! order) and merges completed chunks in chunk order is therefore
//! indistinguishable from the single-node rebuild.
//!
//! Shard replicas run the single-node aggregate engine itself
//! ([`crate::ClusterModel`]), fed the [`SlotRow`]s carried inline in
//! protocol messages, so a replica that applied the same ordered operation
//! log holds the same bits. A shard that fell behind adopts the state of a
//! newer log version instead (an in-memory transfer). Every host holds its
//! slot rows in one [`SlotTable`], and every durable layout stores them in
//! its bit-exact little-endian encoding (see [`crate::wire`]).

use crate::config::ObjectiveKind;
use crate::machine::{improving, LogEntry};
use crate::state::{sqnorm, ClusterModel, WindowMemo};
use crate::wire::{self, Reader, WireError};
use std::borrow::Cow;
use std::ops::Range;

/// Acceptance threshold shared by every optimizer path: a staged move (or
/// a whole window) must lower the objective by more than this to be kept
/// (see [`crate::improving`], the one staging filter).
pub const MOVE_EPS: f64 = 1e-10;

/// Cluster sentinel for a backing-store slot that is not part of the
/// clustering (never ingested or already evicted). Every scan — rebuild,
/// scoring, the K-Means term — skips such slots.
pub const TOMBSTONE: usize = usize::MAX;

/// One backing-store slot's full payload: task row, sensitive values
/// (categorical then numeric, in attribute order), the cached `‖x‖²`, and
/// the current cluster ([`TOMBSTONE`] when evicted). This is what a shard
/// stores for the slots it owns, and what protocol messages carry so
/// replicas can evaluate deltas for non-owned points.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotRow {
    /// Task-matrix row.
    pub row: Vec<f64>,
    /// Categorical sensitive values, by attribute position.
    pub cat: Vec<u32>,
    /// Numeric sensitive values, by attribute position.
    pub num: Vec<f64>,
    /// Cached `‖x‖²` — computed once at ingest, exactly like the
    /// single-node engine computes `point_sqnorm`.
    pub sqnorm: f64,
    /// Current cluster, or [`TOMBSTONE`].
    pub cluster: usize,
}

impl SlotRow {
    /// Serialize (bit-exact) — the journal's form of one row.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        wire::put_f64s(out, &self.row);
        wire::put_u32s(out, &self.cat);
        wire::put_f64s(out, &self.num);
        wire::put_f64(out, self.sqnorm);
        wire::put_usize(out, self.cluster);
    }

    /// Decode one slot row; a typed error on truncated or malformed
    /// bytes.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            row: r.get_f64s()?,
            cat: r.get_u32s()?,
            num: r.get_f64s()?,
            sqnorm: r.get_f64()?,
            cluster: r.get_usize()?,
        })
    }
}

/// The one store of slot rows, in memory and on the wire. Every host keeps
/// its rows in one: the single-node [`crate::StreamingFairKm`] and a batch
/// fit hold every slot, the shard coordinator too, and a shard the slots it
/// owns, in ascending slot order beside a column of their ids. A position
/// `x` is a slot id everywhere but on a shard.
///
/// The columns are the wire order of [`Self::put`], shared by the stream
/// payload of both hosts and a shard's snapshot: the slot count `n`, then
/// the task values, the categorical codes, the numeric values and the
/// clusters, column by column and slot by slot within a column. Column
/// widths are the model's, which every layout writes first. `‖x‖²` is not
/// stored: [`Self::get`] recomputes it.
///
/// The per-row kernels are its methods, so every host runs the same code:
/// the mutations ([`Self::push`], [`Self::insert`], [`Self::remove`],
/// [`Self::move_slot`], and [`Self::apply`] for a log entry), the chunk
/// fold ([`Self::fold`]), the memo-recording window scan
/// ([`Self::propose_window`]) and the memo-backed descent step
/// ([`Self::first_improving`]).
#[derive(Clone, Debug)]
pub struct SlotTable<'a> {
    /// `n × dim` task values. A batch fit borrows its task matrix's.
    pub(crate) rows: Cow<'a, [f64]>,
    /// `n × n_cat` categorical codes.
    pub(crate) codes: Vec<u32>,
    /// `n × n_num` numeric sensitive values.
    pub(crate) values: Vec<f64>,
    /// Cluster per slot, [`TOMBSTONE`] for dead slots.
    pub(crate) clusters: Vec<usize>,
    /// `‖x‖²` per slot.
    pub(crate) sqnorms: Vec<f64>,
    /// Task values, categorical codes and numeric values per slot.
    pub(crate) widths: [usize; 3],
}

impl SlotTable<'static> {
    /// An empty table of `model`'s slots.
    pub fn new(model: &ClusterModel) -> Self {
        Self {
            rows: Cow::Owned(Vec::new()),
            codes: Vec::new(),
            values: Vec::new(),
            clusters: Vec::new(),
            sqnorms: Vec::new(),
            widths: [model.dim(), model.cat.len(), model.n_num()],
        }
    }

    /// Decode [`Self::put`] for `model`'s slots and check every slot, so
    /// no later fold, score or move can index out of range or sum a
    /// non-finite norm: codes below their cardinalities, clusters below
    /// `k` or [`TOMBSTONE`], and a finite recomputed `‖x‖²`, as
    /// [`crate::RowCodec::encode`] requires of an arrival. A violation is
    /// [`WireError::Invalid`]. A caller holding every slot also runs
    /// [`Self::check_counts`].
    pub fn get(r: &mut Reader<'_>, model: &ClusterModel) -> Result<Self, WireError> {
        let n = r.get_usize()?;
        let mut table = Self::new(model);
        let [dim, n_cat, n_num] = table.widths;
        table.rows = Cow::Owned(column(r, n, dim)?.map(f64::from_le_bytes).collect());
        table.codes = column(r, n, n_cat)?.map(u32::from_le_bytes).collect();
        table.values = column(r, n, n_num)?.map(f64::from_le_bytes).collect();
        // A cluster past `usize` maps to one past `k`, and is rejected.
        table.clusters = column(r, n, 1)?
            .map(|b| usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX - 1))
            .collect();
        table.sqnorms = Vec::with_capacity(n);
        for x in 0..n {
            let norm = slot_norm(model, table.row(x), table.cat(x), table.clusters[x])?;
            table.sqnorms.push(norm);
        }
        Ok(table)
    }
}

impl<'a> SlotTable<'a> {
    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.clusters.len()
    }

    /// Slot `x`'s task row.
    #[inline]
    pub fn row(&self, x: usize) -> &[f64] {
        span(&self.rows, self.widths[0], x)
    }

    /// Slot `x`'s categorical codes, by attribute position.
    #[inline]
    pub fn cat(&self, x: usize) -> &[u32] {
        span(&self.codes, self.widths[1], x)
    }

    /// Slot `x`'s numeric sensitive values, by attribute position.
    #[inline]
    pub fn num(&self, x: usize) -> &[f64] {
        span(&self.values, self.widths[2], x)
    }

    /// Slot `x`'s cluster, [`TOMBSTONE`] if dead.
    #[inline]
    pub fn cluster(&self, x: usize) -> usize {
        self.clusters[x]
    }

    /// Slot `x`'s cluster if it holds a live point: `None` for a
    /// tombstone or a slot past the table.
    pub fn live(&self, x: usize) -> Option<usize> {
        self.clusters.get(x).copied().filter(|&c| c != TOMBSTONE)
    }

    /// The live slots, in order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.n_slots())
            .filter(|&x| self.live(x).is_some())
            .collect()
    }

    /// Slot `x` as a [`SlotRow`], the form a log entry carries.
    pub fn slot_row(&self, x: usize) -> SlotRow {
        SlotRow {
            row: self.row(x).to_vec(),
            cat: self.cat(x).to_vec(),
            num: self.num(x).to_vec(),
            sqnorm: self.sqnorms[x],
            cluster: self.clusters[x],
        }
    }

    /// A table of the slots `xs`, in that order.
    pub fn select(&self, xs: &[usize]) -> SlotTable<'static> {
        SlotTable {
            rows: Cow::Owned(xs.iter().flat_map(|&x| self.row(x)).copied().collect()),
            codes: xs.iter().flat_map(|&x| self.cat(x)).copied().collect(),
            values: xs.iter().flat_map(|&x| self.num(x)).copied().collect(),
            clusters: xs.iter().map(|&x| self.clusters[x]).collect(),
            sqnorms: xs.iter().map(|&x| self.sqnorms[x]).collect(),
            widths: self.widths,
        }
    }

    /// Append `d`'s row (task values, codes, numeric values, `‖x‖²`) as a
    /// new [`TOMBSTONE`] slot and return its position. Activate it with
    /// [`Self::insert`] or [`Self::set_cluster`].
    pub fn push(&mut self, d: &SlotRow) -> usize {
        debug_assert_eq!([d.row.len(), d.cat.len(), d.num.len()], self.widths);
        let x = self.n_slots();
        self.rows.to_mut().extend_from_slice(&d.row);
        self.codes.extend_from_slice(&d.cat);
        self.values.extend_from_slice(&d.num);
        self.sqnorms.push(d.sqnorm);
        self.clusters.push(TOMBSTONE);
        x
    }

    /// Set slot `x`'s cluster, touching no aggregate: a shard tracks the
    /// clusters of its rows while its replica applies the log's rows.
    pub fn set_cluster(&mut self, x: usize, c: usize) {
        self.clusters[x] = c;
    }

    /// Insert the tombstoned slot `x` into cluster `c` of `model`
    /// ([`ClusterModel::insert_row`]).
    pub fn insert(&mut self, model: &mut ClusterModel, x: usize, c: usize) {
        debug_assert_eq!(self.clusters[x], TOMBSTONE, "inserting a live point");
        self.clusters[x] = c;
        model.insert_row(c, self.row(x), self.cat(x), self.num(x), self.sqnorms[x]);
    }

    /// Remove the live slot `x` from its cluster of `model`
    /// ([`ClusterModel::remove_row`]); the slot stays as a tombstone.
    /// Returns the cluster it left.
    pub fn remove(&mut self, model: &mut ClusterModel, x: usize) -> usize {
        let c = self.clusters[x];
        debug_assert_ne!(c, TOMBSTONE, "removing an unassigned point");
        self.clusters[x] = TOMBSTONE;
        model.remove_row(c, self.row(x), self.cat(x), self.num(x), self.sqnorms[x]);
        c
    }

    /// Apply the move of slot `x`'s row `from → to` to `model` alone
    /// ([`ClusterModel::move_row`]); the table keeps its cluster. A
    /// window's trial runs on a scratch model this way.
    pub fn move_row(&self, model: &mut ClusterModel, x: usize, from: usize, to: usize) {
        let (row, sqnorm) = (self.row(x), self.sqnorms[x]);
        model.move_row(from, to, row, self.cat(x), self.num(x), sqnorm);
    }

    /// Move slot `x` `from → to`, in the table and in `model`.
    pub fn move_slot(&mut self, model: &mut ClusterModel, x: usize, from: usize, to: usize) {
        self.clusters[x] = to;
        self.move_row(model, x, from, to);
    }

    /// Apply one log entry to `model` and the table, where positions are
    /// slot ids: an insert appends its row as the next slot.
    pub fn apply<D>(&mut self, model: &mut ClusterModel, entry: LogEntry<D>) {
        match entry {
            LogEntry::Insert { data, .. } => {
                let x = self.push(&data);
                self.insert(model, x, data.cluster);
            }
            LogEntry::Remove { slot, .. } => {
                self.remove(model, slot);
            }
            LogEntry::Move { slot, from, to, .. } => self.move_slot(model, slot, from, to),
            LogEntry::Install { agg } => model.install(agg),
        }
    }

    /// Fold the live slots of `range` into `acc` in order: one chunk of a
    /// rebuild, or a shard's hop of a distributed one. Folded into a
    /// zeroed delta and merged in chunk order, the chunks reproduce the
    /// single-node aggregates bit for bit (module docs).
    pub fn fold(&self, mut acc: AggregateDelta, range: Range<usize>) -> AggregateDelta {
        for x in range {
            let c = self.clusters[x];
            if c != TOMBSTONE {
                acc.add_row(c, self.row(x), self.cat(x), self.num(x), self.sqnorms[x]);
            }
        }
        acc
    }

    /// The best move of slot `x`'s point by the incremental kernel
    /// ([`ClusterModel::propose_move_row`]); `(TOMBSTONE, 0.0)` for a
    /// dead slot.
    pub fn propose(&self, model: &ClusterModel, x: usize, lambda: f64) -> (usize, f64) {
        let from = self.clusters[x];
        if from == TOMBSTONE {
            return (from, 0.0);
        }
        let (row, sqnorm) = (self.row(x), self.sqnorms[x]);
        model.propose_move_row(from, row, self.cat(x), self.num(x), sqnorm, lambda)
    }

    /// The improving moves `(x, to)` of the live slots in `range`, in
    /// order, scored in parallel by the incremental kernel against
    /// `model`'s fresh caches, with every slot's distances recorded in
    /// `memo` for the descent that may follow.
    pub fn propose_window(
        &self,
        model: &ClusterModel,
        memo: &mut WindowMemo,
        range: Range<usize>,
        lambda: f64,
        threads: usize,
    ) -> Vec<(usize, usize)> {
        let (start, len, k) = (range.start, range.len(), model.k());
        let reach = memo.record(model, range);
        let parts = fairkm_parallel::map_chunks_into(threads, len, reach, k, |r, out| {
            let slots = r.map(|i| start + i).zip(out.chunks_exact_mut(k));
            let proposals = slots.filter_map(|(x, reach)| {
                let from = self.clusters[x];
                let (row, sqnorm) = (self.row(x), self.sqnorms[x]);
                let (cat, num) = (self.cat(x), self.num(x));
                let best = model.propose_recording(from, row, cat, num, sqnorm, lambda, reach);
                Some((x, improving(from, best)?))
            });
            proposals.collect::<Vec<_>>()
        });
        parts.concat()
    }

    /// The first live slot of `range`, in order, whose move by `score`
    /// improves, and that move — one step of the per-move descent — plus
    /// the number of slots scored. With a `memo` covering `range`, slots
    /// it proves cannot move are skipped (same answer) and not counted.
    pub fn first_improving(
        &self,
        model: &ClusterModel,
        memo: Option<&mut WindowMemo>,
        range: Range<usize>,
        lambda: f64,
        score: impl Fn(usize) -> (usize, f64),
    ) -> (Option<(usize, usize)>, usize) {
        let descent = memo.and_then(|memo| memo.descent(model, range.clone(), lambda));
        let mut scored = 0;
        let found = range.into_iter().find_map(|x| {
            let from = self.clusters[x];
            if from == TOMBSTONE {
                return None;
            }
            let (cat, num, sqnorm) = (self.cat(x), self.num(x), self.sqnorms[x]);
            if descent
                .as_ref()
                .is_some_and(|d| !d.may_improve(x, from, cat, num, sqnorm))
            {
                return None;
            }
            scored += 1;
            Some((x, improving(from, score(x))?))
        });
        (found, scored)
    }

    /// Append the table in its wire form, each column straight from its
    /// contiguous array.
    pub fn put(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.n_slots());
        out.extend(self.rows.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(self.codes.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(self.values.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(self.clusters.iter().flat_map(|&c| (c as u64).to_le_bytes()));
    }

    /// The bytes [`Self::put`] appends.
    pub fn encoded_len(&self) -> usize {
        let [dim, n_cat, n_num] = self.widths;
        8 + self.n_slots() * (8 * (dim + n_num + 1) + 4 * n_cat)
    }

    /// Whether `d`, appended, would pass the checks [`Self::get`] runs on
    /// every slot, with its cached `‖x‖²` equal to the recomputed one.
    pub fn fits(&self, model: &ClusterModel, d: &SlotRow) -> bool {
        [d.row.len(), d.cat.len(), d.num.len()] == self.widths
            && slot_norm(model, &d.row, &d.cat, d.cluster)
                .is_ok_and(|norm| norm.to_bits() == d.sqnorm.to_bits())
    }

    /// Whether slot `x` holds `d`'s point, bit for bit (clusters aside).
    pub fn holds(&self, x: usize, d: &SlotRow) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        same(self.row(x), &d.row)
            && self.cat(x) == d.cat.as_slice()
            && same(self.num(x), &d.num)
            && self.sqnorms[x].to_bits() == d.sqnorm.to_bits()
    }

    /// Check that `model`'s member and categorical counts are exactly those
    /// of the live slots; the table must hold every slot. (Float sums have
    /// no exact check: delta-maintained ones differ from a rebuild.)
    pub fn check_counts(&self, model: &ClusterModel) -> Result<(), WireError> {
        let fresh = self.fold(model.zeroed_delta(), 0..self.n_slots());
        if fresh.size != model.agg.size || fresh.cat_counts != model.agg.cat_counts {
            return Err(WireError::Invalid {
                what: "aggregate counts vs slot table",
            });
        }
        Ok(())
    }
}

/// The slot range of `x` in a row-major array of `width` values per slot.
#[inline]
fn span<T>(values: &[T], width: usize, x: usize) -> &[T] {
    &values[x * width..(x + 1) * width]
}

/// The checks every slot of `model` passes: codes below their
/// cardinalities, a cluster below `k` or [`TOMBSTONE`], and a finite
/// `‖x‖²`, which is returned.
fn slot_norm(
    model: &ClusterModel,
    row: &[f64],
    cat: &[u32],
    cluster: usize,
) -> Result<f64, WireError> {
    let invalid = |what: &'static str| Err(WireError::Invalid { what });
    if cat
        .iter()
        .zip(&model.cat)
        .any(|(&v, attr)| v as usize >= attr.t)
    {
        return invalid("slot code");
    }
    if cluster >= model.k() && cluster != TOMBSTONE {
        return invalid("slot cluster");
    }
    let norm = sqnorm(row);
    if !norm.is_finite() {
        return invalid("slot norm");
    }
    Ok(norm)
}

/// The `n × width` values of one column, `N` bytes each, taken whole: a
/// buffer too short for them is an error before anything is allocated.
fn column<'b, const N: usize>(
    r: &mut Reader<'b>,
    n: usize,
    width: usize,
) -> Result<impl Iterator<Item = [u8; N]> + 'b, WireError> {
    let bytes = width.checked_mul(N).and_then(|w| w.checked_mul(n));
    let what = "slot table shape";
    let chunks = r
        .take(bytes.ok_or(WireError::Invalid { what })?)?
        .chunks_exact(N);
    Ok(chunks.map(|b| b.try_into().expect("chunks are N bytes")))
}

/// Additive per-cluster aggregates: member counts, prototype sums,
/// per-(attribute, value) member counts, numeric value sums, and member
/// `Σ‖x‖²`. This is both the *partial* of a chunked rebuild and the
/// *snapshot* of a replica's aggregate state (the live count is `Σ size`).
///
/// [`AggregateDelta::add_row`] is the per-row step of the single-node
/// rebuild, and [`AggregateDelta::merge`] is its
/// component-wise left-fold — folding rows in slot order within chunks and
/// chunks in chunk-index order from [`AggregateDelta::zeroed`] reproduces
/// the single-node aggregates bitwise (module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateDelta {
    /// Per-cluster member counts `|C|`.
    pub size: Vec<usize>,
    /// Flat k×dim prototype sums.
    pub centroid_sum: Vec<f64>,
    /// Per categorical attribute: flat k×t member counts.
    pub cat_counts: Vec<Vec<i64>>,
    /// Per numeric attribute: per-cluster value sums.
    pub num_sums: Vec<Vec<f64>>,
    /// Per-cluster `Σ_{i∈c} ‖x_i‖²`.
    pub member_sqnorm: Vec<f64>,
}

impl AggregateDelta {
    /// The zeroed identity for `k` clusters over a `dim`-dimensional task
    /// space with the given categorical cardinalities and numeric
    /// attribute count.
    pub fn zeroed(k: usize, dim: usize, cat_ts: &[usize], n_num: usize) -> Self {
        Self {
            size: vec![0; k],
            centroid_sum: vec![0.0; k * dim],
            cat_counts: cat_ts.iter().map(|&t| vec![0i64; k * t]).collect(),
            num_sums: (0..n_num).map(|_| vec![0.0; k]).collect(),
            member_sqnorm: vec![0.0; k],
        }
    }

    /// Fold one live row assigned to cluster `c` into the delta — the
    /// exact per-row operation sequence of the single-node rebuild (size,
    /// centroid components, categorical counts, numeric sums, `‖x‖²`).
    pub fn add_row(
        &mut self,
        c: usize,
        row: &[f64],
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
    ) {
        let k = self.size.len();
        self.size[c] += 1;
        let dim = row.len();
        let dst = &mut self.centroid_sum[c * dim..(c + 1) * dim];
        for (d, v) in dst.iter_mut().zip(row) {
            *d += v;
        }
        for (counts, &v) in self.cat_counts.iter_mut().zip(cat_vals) {
            let t = counts.len() / k;
            counts[c * t + v as usize] += 1;
        }
        for (sums, &v) in self.num_sums.iter_mut().zip(num_vals) {
            sums[c] += v;
        }
        self.member_sqnorm[c] += sqnorm;
    }

    /// Fold `other` into `self` component-wise. Chunk partials must be
    /// merged in chunk-index order — that ordering is what keeps the float
    /// sums identical at any thread or shard count.
    pub fn merge(mut self, other: Self) -> Self {
        for (total, add) in self.size.iter_mut().zip(&other.size) {
            *total += add;
        }
        for (total, add) in self.centroid_sum.iter_mut().zip(&other.centroid_sum) {
            *total += add;
        }
        for (totals, adds) in self.cat_counts.iter_mut().zip(&other.cat_counts) {
            for (total, add) in totals.iter_mut().zip(adds) {
                *total += add;
            }
        }
        for (totals, adds) in self.num_sums.iter_mut().zip(&other.num_sums) {
            for (total, add) in totals.iter_mut().zip(adds) {
                *total += add;
            }
        }
        for (total, add) in self.member_sqnorm.iter_mut().zip(&other.member_sqnorm) {
            *total += add;
        }
        self
    }

    /// Serialize (bit-exact).
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        wire::put_usizes(out, &self.size);
        wire::put_f64s(out, &self.centroid_sum);
        wire::put_usize(out, self.cat_counts.len());
        for counts in &self.cat_counts {
            wire::put_i64s(out, counts);
        }
        wire::put_usize(out, self.num_sums.len());
        for sums in &self.num_sums {
            wire::put_f64s(out, sums);
        }
        wire::put_f64s(out, &self.member_sqnorm);
    }

    /// Decode; a typed error on truncated or malformed bytes.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let size = r.get_usizes()?;
        let centroid_sum = r.get_f64s()?;
        let n_cat = r.get_len(8)?;
        let cat_counts = (0..n_cat).map(|_| r.get_i64s()).collect::<Result<_, _>>()?;
        let n_num = r.get_len(8)?;
        let num_sums = (0..n_num).map(|_| r.get_f64s()).collect::<Result<_, _>>()?;
        let member_sqnorm = r.get_f64s()?;
        Ok(Self {
            size,
            centroid_sum,
            cat_counts,
            num_sums,
            member_sqnorm,
        })
    }
}

pub(crate) fn encode_kind(out: &mut Vec<u8>, kind: ObjectiveKind) {
    match kind {
        ObjectiveKind::Representativity => wire::put_u32(out, 0),
        ObjectiveKind::BoundedRepresentation { lower, upper } => {
            wire::put_u32(out, 1);
            wire::put_f64(out, lower);
            wire::put_f64(out, upper);
        }
        ObjectiveKind::Utilitarian => wire::put_u32(out, 2),
        ObjectiveKind::Egalitarian => wire::put_u32(out, 3),
    }
}

pub(crate) fn decode_kind(r: &mut Reader<'_>) -> Result<ObjectiveKind, WireError> {
    Ok(match r.get_u32()? {
        0 => ObjectiveKind::Representativity,
        1 => ObjectiveKind::BoundedRepresentation {
            lower: r.get_f64()?,
            upper: r.get_f64()?,
        },
        2 => ObjectiveKind::Utilitarian,
        3 => ObjectiveKind::Egalitarian,
        tag => {
            return Err(WireError::UnknownTag {
                what: "objective kind",
                tag: tag as u64,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use fairkm_data::{row, DatasetBuilder, Normalization, Role};

    /// One `wire::put_*` call per element: the definition of the bytes
    /// [`SlotTable::put`] writes a column at a time.
    fn put_per_element(out: &mut Vec<u8>, table: &SlotTable) {
        wire::put_usize(out, table.n_slots());
        table.rows.iter().for_each(|&v| wire::put_f64(out, v));
        table.codes.iter().for_each(|&v| wire::put_u32(out, v));
        table.values.iter().for_each(|&v| wire::put_f64(out, v));
        table.clusters.iter().for_each(|&c| wire::put_usize(out, c));
    }

    /// A table of `n` seeded slots (two task columns, two categorical and
    /// one numeric sensitive attribute, `k = 3`) with every third slot
    /// tombstoned, and its model.
    fn seeded_table(seed: u64, n: usize) -> (ClusterModel, SlotTable<'static>) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b", "c"])
            .unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("h", Role::Sensitive, &["p", "q"]).unwrap();
        b.numeric("age", Role::Sensitive).unwrap();
        for _ in 0..n {
            let x = (next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0;
            let y = -((next() >> 20) as f64) * 1e-3;
            let g = ["a", "b", "c"][(next() % 3) as usize];
            let h = ["p", "q"][(next() % 2) as usize];
            let age = (next() % 90) as f64 + 0.25;
            b.push_row(row![x, g, y, h, age]).unwrap();
        }
        let data = b.build().unwrap();
        let matrix = data.task_matrix(Normalization::None).unwrap();
        let space = data.sensitive_space().unwrap();
        let assignment = (0..n).map(|x| x % 3).collect();
        let mut st = State::new(&matrix, &space, &[1.0, 1.0, 1.0], 3, assignment);
        (0..n).step_by(3).for_each(|x| {
            st.table.remove(&mut st.model, x);
        });
        let all: Vec<usize> = (0..n).collect();
        (st.model, st.table.select(&all))
    }

    #[test]
    fn column_put_equals_the_per_element_oracle() {
        for (seed, n) in [(1, 1), (2, 2), (3, 17), (4, 200)] {
            let (model, table) = seeded_table(seed, n);
            assert!(table.clusters.contains(&TOMBSTONE));
            let mut ours = Vec::new();
            table.put(&mut ours);
            let mut oracle = Vec::new();
            put_per_element(&mut oracle, &table);
            assert_eq!(ours, oracle, "seed {seed}, n {n}");
            assert_eq!(oracle.len(), table.encoded_len());
            // The decoded table holds the same bits, norms included.
            let back = SlotTable::get(&mut Reader::new(&oracle), &model).unwrap();
            let norms = |t: &SlotTable| t.sqnorms.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(norms(&back), norms(&table));
            let mut again = Vec::new();
            back.put(&mut again);
            assert_eq!(again, oracle);
            table.check_counts(&model).unwrap();
        }
    }
}
