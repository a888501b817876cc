//! Scoring-kernel harness for the `scoring_cache` benchmark group and the
//! kernel-equivalence tests: drives the cached dot-product scoring path and
//! the literal pre-cache scoring path over the same frozen state so the two
//! kernels can be timed and cross-checked in isolation, without running the
//! whole fit loop.
//!
//! Not part of the stable API — the module exists so the out-of-crate bench
//! harness (`fairkm-bench`) can reach the crate-private optimizer state.

use crate::config::{DeltaEngine, FairnessNorm, ObjectiveKind};
use crate::fairkm::propose_move;
use crate::state::State;
use fairkm_data::{NumericMatrix, SensitiveSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A frozen scoring problem: one `State` built from a seeded random
/// assignment, plus the λ the scan weights fairness with.
pub struct ScoringFixture<'a> {
    state: State<'a>,
    lambda: f64,
}

impl<'a> ScoringFixture<'a> {
    /// Build a fixture over pre-encoded views with a seeded uniform random
    /// assignment into `k` clusters (all attribute weights 1, the paper's
    /// Eq. 4 normalization, single-threaded state).
    pub fn new(
        matrix: &'a NumericMatrix,
        space: &SensitiveSpace,
        k: usize,
        lambda: f64,
        seed: u64,
    ) -> Self {
        Self::with_objective(
            matrix,
            space,
            k,
            lambda,
            seed,
            ObjectiveKind::Representativity,
        )
    }

    /// Same frozen problem, scored under an explicit [`ObjectiveKind`] —
    /// the harness behind the `objective_dispatch` benchmark group, which
    /// times the monomorphized trait dispatch per objective.
    pub fn with_objective(
        matrix: &'a NumericMatrix,
        space: &SensitiveSpace,
        k: usize,
        lambda: f64,
        seed: u64,
        objective: ObjectiveKind,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = (0..matrix.rows()).map(|_| rng.gen_range(0..k)).collect();
        let weights = vec![1.0; space.n_attrs()];
        let state = State::with_norm(
            Cow::Borrowed(matrix),
            space,
            &weights,
            k,
            assignment,
            FairnessNorm::DomainCardinality,
            objective,
            1,
        );
        Self { state, lambda }
    }

    /// The cached scoring scan: best-move δO for every object through the
    /// hot-path kernel (dot-product distances against materialized
    /// prototypes and norms, cached "old" fairness contributions, origin
    /// terms hoisted out of the candidate loop). Returns the sum of the
    /// best deltas so the whole scan stays observable to the optimizer.
    pub fn scan_cached(&self) -> f64 {
        (0..self.state.n())
            .map(|x| propose_move(&self.state, x, self.lambda, DeltaEngine::Incremental).1)
            .sum()
    }

    /// The literal scoring scan: the pre-cache per-pair work, kept as the
    /// benchmark baseline. For every candidate cluster it derives both
    /// prototypes from the running sums with a per-component division and
    /// recomputes all four fairness contributions (nothing hoisted, nothing
    /// cached) — exactly the per-unit work the scoring loop performed
    /// before the cache existed.
    pub fn scan_literal(&self) -> f64 {
        let state = &self.state;
        (0..state.n())
            .map(|x| {
                let from = state.table.cluster(x);
                let mut best = 0.0f64;
                for to in 0..state.model.k() {
                    if to == from {
                        continue;
                    }
                    let s_from = state.model.size()[from];
                    let d_out = if s_from > 1 {
                        let d = state.sq_dist_to_prototype(x, from);
                        -(s_from as f64 / (s_from as f64 - 1.0)) * d
                    } else {
                        0.0
                    };
                    let s_to = state.model.size()[to];
                    let d_in = if s_to > 0 {
                        let d = state.sq_dist_to_prototype(x, to);
                        (s_to as f64 / (s_to as f64 + 1.0)) * d
                    } else {
                        0.0
                    };
                    let d_fair = state.delta_fairness(x, from, to);
                    let delta = (d_out + d_in) + self.lambda * d_fair;
                    if delta < best {
                        best = delta;
                    }
                }
                best
            })
            .sum()
    }

    /// Number of objects scanned per call.
    pub fn n(&self) -> usize {
        self.state.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairkm_data::{row, DatasetBuilder, Role};

    #[test]
    fn cached_and_literal_scans_agree() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b", "c"])
            .unwrap();
        for i in 0..200 {
            let side = (i % 4) as f64 * 3.0;
            let g = ["a", "b", "c"][i % 3];
            b.push_row(row![side + (i % 7) as f64 * 0.1, (i % 5) as f64, g])
                .unwrap();
        }
        let data = b.build().unwrap();
        let matrix = data
            .task_matrix(fairkm_data::Normalization::ZScore)
            .unwrap();
        let space = data.sensitive_space().unwrap();
        for seed in [0u64, 9] {
            let fixture = ScoringFixture::new(&matrix, &space, 4, 50.0, seed);
            let cached = fixture.scan_cached();
            let literal = fixture.scan_literal();
            assert!(
                (cached - literal).abs() <= 1e-9 * (1.0 + literal.abs()),
                "seed {seed}: cached {cached} vs literal {literal}"
            );
        }
    }
}
