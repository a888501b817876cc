//! The work a serving-sized bootstrap does, read from the engine's own
//! counters rather than timed: a deterministic bound.

use fairkm::core::{FairKmConfig, Lambda, ObjectiveKind, StreamingConfig, StreamingFairKm};
use fairkm::synth::sampling::normal;
use fairkm_data::{Dataset, DatasetBuilder, Normalization, Role, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planted tenant of the `serve_100k` benchmark's shape: dim 16, 8
/// blobs with centers drawn at spread 12, unit-variance points, and 3
/// categorical sensitive attributes of cardinality 4 that follow the blob
/// with probability 0.9. Same seed and draw order as the benchmark's
/// tenant.
fn planted(rows: usize) -> Dataset {
    const DIM: usize = 16;
    const BLOBS: usize = 8;
    const ATTRS: usize = 3;
    const CARDINALITY: usize = 4;
    let mut rng = StdRng::seed_from_u64(0x9a_b10b);
    let centers: Vec<Vec<f64>> = (0..BLOBS)
        .map(|_| (0..DIM).map(|_| normal(&mut rng, 0.0, 12.0)).collect())
        .collect();
    let mut b = DatasetBuilder::new();
    for d in 0..DIM {
        b.numeric(&format!("x_{d}"), Role::NonSensitive).unwrap();
    }
    let values: Vec<String> = (0..CARDINALITY).map(|v| format!("v{v}")).collect();
    let values: Vec<&str> = values.iter().map(String::as_str).collect();
    for a in 0..ATTRS {
        b.categorical(&format!("s_{a}"), Role::Sensitive, &values)
            .unwrap();
    }
    for _ in 0..rows {
        let blob = rng.gen_range(0..BLOBS);
        let mut row: Vec<Value> = centers[blob]
            .iter()
            .map(|&c| Value::Num(normal(&mut rng, c, 1.0)))
            .collect();
        for _ in 0..ATTRS {
            let v = if rng.gen::<f64>() < 0.9 {
                blob % CARDINALITY
            } else {
                rng.gen_range(0..CARDINALITY)
            };
            row.push(Value::CatIndex(v as u32));
        }
        b.push_row(row).unwrap();
    }
    b.build().unwrap()
}

/// `fairkm serve --k 8` with every other flag at its default.
fn serve_config() -> StreamingConfig {
    let base = FairKmConfig::new(8)
        .with_lambda(Lambda::Heuristic)
        .with_seed(0)
        .with_normalization(Normalization::ZScore)
        .with_objective(ObjectiveKind::Representativity);
    StreamingConfig::from_base(base)
        .with_drift_threshold(0.05)
        .with_reopt_passes(5)
}

/// Windows of the 100k bootstrap below that fail monotone acceptance (of
/// 480: 30 passes of 16 windows).
const FALLBACKS: usize = 360;

/// Passes the 100k bootstrap below runs to convergence.
const PASSES: usize = 30;

/// Bits of its final objective.
const OBJECTIVE_BITS: u64 = 0x4130_71d3_c1a3_fe95;

/// Slots its per-move descents score with the exact kernel. Without the
/// window memo every slot of every failed window is scored: 360 × 6,250 =
/// 2,250,000. The memo proves all but these cannot move.
const DESCENT_SCORED: usize = 43_159;
const _: () = assert!(
    DESCENT_SCORED <= 2_250_000 / 20,
    "at most 5% of those slots"
);

/// A 100k-point bootstrap makes at most one exact rebuild per pass plus
/// the initial one, however many of its windows fall back to the per-move
/// descent: a failed window's trial ran on a scratch model, so it needs no
/// rebuild. The fallback count is pinned to the one the engine reached
/// when it still rebuilt before each fallback: dropping that rebuild
/// changed no decision. Its descents score at most 5% of their slots with
/// the exact kernel, and the passes and final objective bits are those of
/// the descent that scored every slot: the window memo skips only slots
/// that provably cannot move. Ignored by default for its size; CI runs it
/// in release with `--ignored`.
#[test]
#[ignore = "100k-point bootstrap; run in release with --ignored"]
fn a_100k_point_bootstrap_rebuilds_at_most_once_per_pass() {
    let stream = StreamingFairKm::bootstrap(planted(100_000), serve_config()).unwrap();
    // The trace is seeded at initialization, then gains one entry a pass.
    let passes = stream.trace().len() - 1;
    assert!(
        stream.rebuilds() <= 1 + passes,
        "{} rebuilds over {passes} passes ({} fallbacks)",
        stream.rebuilds(),
        stream.fallbacks()
    );
    assert_eq!(stream.fallbacks(), FALLBACKS, "over {passes} passes");
    assert_eq!(passes, PASSES);
    let objective = *stream.trace().last().unwrap();
    assert_eq!(
        objective.to_bits(),
        OBJECTIVE_BITS,
        "final objective {objective}"
    );
    assert_eq!(stream.descent_scored(), DESCENT_SCORED);
}
