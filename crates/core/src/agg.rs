//! Shard-support primitives: additive per-cluster aggregate deltas, the
//! per-slot payloads the shard protocol moves around, and the wire
//! encoding of the objective kind.
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
//! log holds the same bits. Snapshots ([`AggregateDelta::to_bytes`],
//! [`SlotRow::to_bytes`]) are bit-exact little-endian encodings (see
//! [`crate::wire`]): a shard that crashes and rejoins from a snapshot plus
//! a log suffix converges to the same bitwise state as one that never
//! crashed.

use crate::config::ObjectiveKind;
use crate::wire::{self, Reader, WireError};

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
    /// Serialize (bit-exact).
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
