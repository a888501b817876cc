//! Shard-support primitives: additive per-cluster aggregate deltas, the
//! per-slot payloads the shard protocol moves around, the one wire form of
//! a slot table, and the wire encoding of the objective kind.
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
//! newer log version instead (an in-memory transfer). Every durable layout
//! stores slot rows as one [`SlotTable`], a bit-exact little-endian
//! encoding (see [`crate::wire`]).

use crate::config::ObjectiveKind;
use crate::state::{slot_span, sqnorm, ClusterModel};
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

    /// Whether this row passes the checks [`SlotTable::get`] runs on every
    /// slot, with its cached `‖x‖²` equal to the recomputed one.
    pub fn fits(&self, model: &ClusterModel) -> bool {
        let one = SlotTable {
            rows: self.row.clone(),
            codes: self.cat.clone(),
            values: self.num.clone(),
            clusters: vec![self.cluster],
            sqnorms: Vec::new(),
        };
        let norm = self.sqnorm.to_bits();
        one.checked(model)
            .is_ok_and(|t| t.sqnorms[0].to_bits() == norm)
    }
}

/// The one wire form of slot rows, shared by the stream payload of both
/// hosts and a shard's snapshot: the slot count `n`, then the task
/// values, the categorical codes, the numeric values and the clusters,
/// column by column and slot by slot within a column. Column widths are
/// the model's, which every layout writes first. `‖x‖²` is not stored:
/// [`Self::get`] recomputes it.
#[derive(Debug)]
pub struct SlotTable {
    /// `n × dim` task values.
    pub(crate) rows: Vec<f64>,
    /// `n × n_cat` categorical codes.
    pub(crate) codes: Vec<u32>,
    /// `n × n_num` numeric sensitive values.
    pub(crate) values: Vec<f64>,
    /// Cluster per slot, [`TOMBSTONE`] for dead slots.
    pub(crate) clusters: Vec<usize>,
    /// `‖x‖²` per slot.
    pub(crate) sqnorms: Vec<f64>,
}

impl SlotTable {
    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.clusters.len()
    }

    /// Append `n` slots from their columns, each in slot order: the task
    /// values, the codes, the numeric values and the clusters. One pass
    /// per column, so a host keeping the columns contiguous writes each
    /// straight from its array.
    pub fn put<'a>(
        out: &mut Vec<u8>,
        n: usize,
        rows: impl IntoIterator<Item = &'a f64>,
        codes: impl IntoIterator<Item = &'a u32>,
        values: impl IntoIterator<Item = &'a f64>,
        clusters: impl IntoIterator<Item = &'a usize>,
    ) {
        wire::put_usize(out, n);
        out.extend(rows.into_iter().flat_map(|v| v.to_le_bytes()));
        out.extend(codes.into_iter().flat_map(|v| v.to_le_bytes()));
        out.extend(values.into_iter().flat_map(|v| v.to_le_bytes()));
        out.extend(clusters.into_iter().flat_map(|&c| (c as u64).to_le_bytes()));
    }

    /// [`Self::put`] for the slots `rows`, in slot order.
    pub fn put_rows<'a, I>(out: &mut Vec<u8>, rows: I)
    where
        I: ExactSizeIterator<Item = &'a SlotRow> + Clone,
    {
        Self::put(
            out,
            rows.len(),
            rows.clone().flat_map(|d| &d.row),
            rows.clone().flat_map(|d| &d.cat),
            rows.clone().flat_map(|d| &d.num),
            rows.map(|d| &d.cluster),
        );
    }

    /// The bytes [`Self::put`] appends for `n` slots of `model`.
    pub fn encoded_len(model: &ClusterModel, n: usize) -> usize {
        8 + n * (8 * (model.dim() + model.n_num() + 1) + 4 * model.cat.len())
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
        let table = Self {
            rows: column(r, n, model.dim())?.map(f64::from_le_bytes).collect(),
            codes: column(r, n, model.cat.len())?
                .map(u32::from_le_bytes)
                .collect(),
            values: column(r, n, model.n_num())?
                .map(f64::from_le_bytes)
                .collect(),
            // A cluster past `usize` maps to one past `k`, and is rejected.
            clusters: column(r, n, 1)?
                .map(|b| usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX - 1))
                .collect(),
            sqnorms: Vec::new(),
        };
        table.checked(model)
    }

    /// Check the columns' shapes, codes and clusters against `model`, and
    /// derive each slot's `‖x‖²`.
    fn checked(mut self, model: &ClusterModel) -> Result<Self, WireError> {
        let invalid = |what: &'static str| Err(WireError::Invalid { what });
        let (n, cat_ts) = (self.clusters.len(), model.cat_ts());
        if Some(self.rows.len()) != n.checked_mul(model.dim())
            || Some(self.codes.len()) != n.checked_mul(cat_ts.len())
            || Some(self.values.len()) != n.checked_mul(model.n_num())
        {
            return invalid("slot table shape");
        }
        let mut codes = self.codes.iter().zip(cat_ts.iter().cycle());
        if codes.any(|(&v, &t)| v as usize >= t) {
            return invalid("slot code");
        }
        if self
            .clusters
            .iter()
            .any(|&c| c >= model.k() && c != TOMBSTONE)
        {
            return invalid("slot cluster");
        }
        self.sqnorms = (0..n).map(|x| sqnorm(self.spans(model, x).0)).collect();
        if self.sqnorms.iter().any(|v| !v.is_finite()) {
            return invalid("slot norm");
        }
        Ok(self)
    }

    /// Check that `model`'s member and categorical counts are exactly those
    /// of the live slots; the table must hold every slot. (Float sums have
    /// no exact check: delta-maintained ones differ from a rebuild.)
    pub fn check_counts(&self, model: &ClusterModel) -> Result<(), WireError> {
        let mut fresh = model.zeroed_delta();
        for (x, &c) in self.clusters.iter().enumerate() {
            if c != TOMBSTONE {
                let (row, cat, num) = self.spans(model, x);
                fresh.add_row(c, row, cat, num, self.sqnorms[x]);
            }
        }
        if fresh.size != model.agg.size || fresh.cat_counts != model.agg.cat_counts {
            return Err(WireError::Invalid {
                what: "aggregate counts vs slot table",
            });
        }
        Ok(())
    }

    /// The slots as [`SlotRow`]s of `model`, the model they were decoded
    /// against, in order.
    pub fn into_rows(self, model: &ClusterModel) -> Vec<SlotRow> {
        (0..self.clusters.len())
            .map(|x| {
                let (row, cat, num) = self.spans(model, x);
                SlotRow {
                    row: row.to_vec(),
                    cat: cat.to_vec(),
                    num: num.to_vec(),
                    sqnorm: self.sqnorms[x],
                    cluster: self.clusters[x],
                }
            })
            .collect()
    }

    /// Slot `x`'s task row, codes and values.
    fn spans(&self, model: &ClusterModel, x: usize) -> (&[f64], &[u32], &[f64]) {
        (
            slot_span(&self.rows, model.dim(), x),
            slot_span(&self.codes, model.cat.len(), x),
            slot_span(&self.values, model.n_num(), x),
        )
    }
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

    /// A state of `n` seeded slots (two task columns, two categorical and
    /// one numeric sensitive attribute, `k = 3`) with every third slot
    /// tombstoned.
    fn seeded_state(seed: u64, n: usize) -> State<'static> {
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
            st.remove_point(x);
        });
        let (model, table) = st.into_table();
        State::from_table(model, table, 1, 0)
    }

    #[test]
    fn column_put_equals_the_per_element_oracle() {
        for (seed, n) in [(1, 1), (2, 2), (3, 17), (4, 200)] {
            let st = seeded_state(seed, n);
            let mut via_table = Vec::new();
            st.put_table(&mut via_table);
            let (model, table) = st.into_table();
            assert!(table.clusters.contains(&TOMBSTONE));
            let mut oracle = Vec::new();
            put_per_element(&mut oracle, &table);
            assert_eq!(via_table, oracle, "put_table, seed {seed}, n {n}");
            assert_eq!(oracle.len(), SlotTable::encoded_len(&model, n));
            let rows = table.into_rows(&model);
            let mut via_rows = Vec::new();
            SlotTable::put_rows(&mut via_rows, rows.iter());
            assert_eq!(via_rows, oracle, "put_rows, seed {seed}, n {n}");
        }
    }
}
