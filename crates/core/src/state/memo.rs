//! The window memo: what a window's proposal scan learned about the
//! distances of its slots, kept so that the per-move descent of a window
//! that failed monotone acceptance scores exactly only the slots that
//! might still move.
//!
//! A window's scan computes every slot's squared distance `q_c` to each
//! window-start prototype `μ⁰_c`, and records `r_c`, a lower bound on
//! `‖x − μ⁰_c‖` (the square root of `q_c` less the kernel's rounding
//! slack). The descent then commits moves, and the prototypes drift. By
//! the triangle inequality the distance to the current prototype `μ_c`
//! satisfies `r_c − E_c ≤ ‖x − μ_c‖ ≤ ‖x − μ⁰_c‖ + E_c` with
//! `E_c = ‖μ_c − μ⁰_c‖`, computed once per descent step (Hamerly's bound,
//! *Making k-means even faster*, SDM 2010, confined to one window). A slot
//! is skipped only when, for every candidate, the move's δO is provably
//! not below `−MOVE_EPS` *as the kernel would compute it*:
//!
//! * the K-Means part is bounded below from `(r − E)²` for the target and
//!   `(r + 2√slack + E)²` for the origin, widened by the kernel's rounding
//!   slack, then scaled by the same hoisted size factors the kernel uses;
//! * the fairness part is recomputed exactly, in the kernel's own order,
//!   from the move tables;
//! * the two are combined in the kernel's order. Rounding is monotone, so
//!   a lower bound on each input is a lower bound on the kernel's result.
//!
//! Every other slot is scored by the unchanged kernel, so a memo-backed
//! descent step finds the same `(slot, to)` as a plain scan, bit for bit.
//! The bound holds whatever was committed between the scan and the step,
//! because slot rows are write-once between compactions: a host drops its
//! memo on anything that replaces rows (a transfer, a restore or a
//! compaction).
//!
//! ## Rounding
//!
//! The dot-form kernel `‖x‖² − 2·x·μ + ‖μ‖²` over `dim` components is
//! within `(dim + 2)·ε/2 · (‖x‖ + ‖μ‖)² ≤ (dim + 2)·ε · (‖x‖² + ‖μ‖²)` of
//! the true squared distance; [`slack`] is twice that and more. Each other
//! step is a handful of roundings of one relative `ε/2` each: differences
//! of two floats round relative to themselves, and the `SHRINK` / `GROW`
//! factors cover them with room to spare.

use super::{ClusterModel, JOIN_RATIO, LEAVE_RATIO};
use crate::agg::MOVE_EPS;
use std::ops::Range;

/// Scales a lower bound below the roundings of the few steps before it.
const SHRINK: f64 = 1.0 - 4.0 * f64::EPSILON;
/// Scales an upper bound above them.
const GROW: f64 = 1.0 + 16.0 * f64::EPSILON;

/// An upper bound on the dot-form kernel's error in a squared distance,
/// per unit of `‖x‖² + ‖μ‖²`.
fn slack(dim: usize) -> f64 {
    2.0 * (dim as f64 + 8.0) * f64::EPSILON
}

/// Turn a row's kernel distances `q_c` (its squared norm `sqnorm`) to the
/// prototypes whose squared norms are `proto_sqnorm` into lower bounds on
/// its true distances `‖x − μ_c‖`, in place.
pub(super) fn reach_from(q: &mut [f64], sqnorm: f64, proto_sqnorm: &[f64], dim: usize) {
    let slack = slack(dim);
    for (d, &p) in q.iter_mut().zip(proto_sqnorm) {
        *d = (*d - slack * (sqnorm + p)).max(0.0).sqrt() * SHRINK;
    }
}

/// The distance lower bounds one window's proposal scan recorded, and the
/// window-start prototypes they were measured to, backing a triangle-
/// inequality bound that lets a descent step skip slots that provably
/// cannot move. One buffer, reused across windows.
#[derive(Clone, Debug, Default)]
pub struct WindowMemo {
    /// Slots recorded; empty when nothing is.
    window: Range<usize>,
    /// Clusters per slot.
    k: usize,
    /// `k` lower bounds per slot of `window`, on the slot's distance to
    /// each window-start prototype.
    reach: Vec<f64>,
    /// The window-start prototypes, `k × dim`.
    proto: Vec<f64>,
    /// Their cached `‖μ⁰_c‖²`.
    proto_sqnorm: Vec<f64>,
    /// Per cluster, for the current descent step: an upper bound on the
    /// drift `E_c` since the window start.
    drift: Vec<f64>,
}

impl WindowMemo {
    /// Start recording the window `window` scored against `model`'s fresh
    /// caches: keep a copy of its prototypes and hand out the buffer for
    /// the window's distance bounds, `k` per slot
    /// ([`ClusterModel::propose_recording`] fills one slot's).
    pub fn record(&mut self, model: &ClusterModel, window: Range<usize>) -> &mut [f64] {
        debug_assert!(model.cache_is_fresh());
        self.k = model.k;
        self.proto.clone_from(&model.proto);
        self.proto_sqnorm.clone_from(&model.proto_sqnorm);
        self.reach.clear();
        self.reach.resize(window.len() * model.k, 0.0);
        self.window = window;
        &mut self.reach
    }

    /// Distance bounds recorded: `k` per slot of the last window.
    pub fn bounds(&self) -> usize {
        self.reach.len()
    }

    /// Forget the recorded window: the rows it covers were replaced.
    pub fn clear(&mut self) {
        self.window = 0..0;
    }

    /// One descent step over `range` against `model`'s fresh caches, or
    /// `None` unless the memo covers `range`. Computes each cluster's
    /// drift since the window start: O(k · dim).
    pub fn descent<'m>(
        &'m mut self,
        model: &'m ClusterModel,
        range: Range<usize>,
        lambda: f64,
    ) -> Option<Descent<'m>> {
        let covered = self.window.start <= range.start && range.end <= self.window.end;
        if !covered || self.k != model.k || self.proto.len() != model.proto.len() {
            return None;
        }
        debug_assert!(model.cache_is_fresh());
        let dim = model.dim;
        // The computed drift is within (dim + 2)·ε/2 of the true one.
        let grow = 1.0 + (dim as f64 + 4.0) * f64::EPSILON;
        self.drift.clear();
        for c in 0..self.k {
            let span = c * dim..(c + 1) * dim;
            let now = &model.proto[span.clone()];
            let drift2: f64 = now
                .iter()
                .zip(&self.proto[span])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            self.drift.push(drift2.sqrt() * grow);
        }
        Some(Descent {
            memo: self,
            model,
            lambda,
            slack: slack(dim),
        })
    }
}

/// One memo-backed descent step: which slots of the recorded window might
/// have an improving move under the model's current caches.
pub struct Descent<'m> {
    memo: &'m WindowMemo,
    model: &'m ClusterModel,
    lambda: f64,
    /// [`slack`] of the model's dimension.
    slack: f64,
}

impl Descent<'_> {
    /// Whether the live slot `slot` of the recorded window, now in cluster
    /// `from`, might have an improving move: `false` only when every
    /// candidate's δO, as [`ClusterModel::propose_move_row`] would compute
    /// it, is provably not below `−MOVE_EPS`.
    pub fn may_improve(
        &self,
        slot: usize,
        from: usize,
        cat_vals: &[u32],
        num_vals: &[f64],
        sqnorm: f64,
    ) -> bool {
        let (m, k) = (self.model, self.memo.k);
        let at = (slot - self.memo.window.start) * k;
        let reach = &self.memo.reach[at..at + k];
        let d_out = if m.agg.size[from] > 1 {
            -m.ratio(from, LEAVE_RATIO) * self.upper(reach[from], sqnorm, from)
        } else {
            0.0
        };
        let cells = m.cells(cat_vals);
        let out_new = m.cell_contrib(from, cells.as_ref(), cat_vals, num_vals, -1);
        let out_old = m.fair_cache[from];
        let row_slack = self.slack * sqnorm;
        for to in (0..k).filter(|&to| to != from) {
            // An empty cluster's `s/(s+1)` is 0: the kernel's exact 0.
            let d_in = m.ratio(to, JOIN_RATIO) * self.lower(reach[to], row_slack, to);
            let in_new = m.cell_contrib(to, cells.as_ref(), cat_vals, num_vals, 1);
            let d_fair = (out_new + in_new) - (out_old + m.fair_cache[to]);
            let bound = (d_out + d_in) + self.lambda * d_fair;
            // NaN proves nothing: the kernel decides.
            if bound.is_nan() || bound < -MOVE_EPS {
                return true;
            }
        }
        false
    }

    /// A lower bound on the kernel's distance from a row to cluster `c`'s
    /// current prototype, given the recorded lower bound `reach` on its
    /// distance to the window-start one and the row's share of the slack,
    /// `slack · ‖x‖²`.
    #[inline]
    fn lower(&self, reach: f64, row_slack: f64, c: usize) -> f64 {
        let now = row_slack + self.slack * self.model.proto_sqnorm[c];
        let b = (reach - self.memo.drift[c]).max(0.0);
        (b * b * SHRINK - now).max(0.0) * SHRINK
    }

    /// An upper bound on the kernel's distance from the row to cluster
    /// `c`'s current prototype: the recorded bound less the memo-time
    /// slack is within `2√slack` of the true distance then.
    #[inline]
    fn upper(&self, reach: f64, sqnorm: f64, c: usize) -> f64 {
        let then = self.slack * (sqnorm + self.memo.proto_sqnorm[c]);
        let now = self.slack * (sqnorm + self.model.proto_sqnorm[c]);
        let t = reach * GROW + 2.0 * then.sqrt() * GROW + self.memo.drift[c];
        (t * t + now) * GROW
    }
}
