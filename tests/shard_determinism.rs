//! Determinism matrix for the sharded engine: the same
//! bootstrap → ingest → evict → reopt lifecycle as
//! `tests/streaming_determinism.rs`, but executed through the
//! coordinator/shard protocol at S ∈ {1, 2, 4} shards. Every cell of the
//! S × threads × seed matrix must be **bitwise identical** to the
//! single-node golden run — assignments, objective, full trace, and
//! prototypes — and every shard replica must end at the coordinator's log
//! version with identical model bytes. The byte-level oracle runs at every
//! operation boundary: the coordinator's stream payload (codec, ledger,
//! fallback count, model and slot table) equals the single node's, byte
//! for byte. Run in release mode by CI next to the other matrices.

use fairkm::prelude::*;
use fairkm::shard::ShardedFairKm;
use fairkm::synth::planted::{PlantedConfig, PlantedGenerator};

const SEEDS: [u64; 2] = [5, 23];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn workload() -> Dataset {
    PlantedGenerator::new(PlantedConfig {
        n_rows: 900,
        n_blobs: 4,
        dim: 6,
        n_sensitive_attrs: 2,
        cardinality: 3,
        alignment: 0.8,
        separation: 5.0,
        spread: 1.0,
        seed: 99,
    })
    .generate()
    .dataset
}

/// Everything observable about a finished stream, floats as bit patterns,
/// and the stream payload after every operation.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    payloads: Vec<Vec<u8>>,
    slots: Vec<usize>,
    assignments: Vec<usize>,
    objective_bits: u64,
    trace_bits: Vec<u64>,
    prototype_bits: Vec<Vec<u64>>,
}

fn config(seed: u64, threads: usize) -> StreamingConfig {
    StreamingConfig::from_base(
        FairKmConfig::new(4)
            .with_seed(seed)
            .with_max_iters(6)
            .with_threads(threads),
    )
    .with_drift_threshold(0.03)
}

/// The shared lifecycle: ingest the tail in 64-row chunks with a 700-point
/// sliding window. A macro so the same body drives both engine types.
/// Returns `$payload`, the stream payload, after bootstrap and after every
/// operation.
macro_rules! drive {
    ($engine:expr, $arrivals:expr, $payload:expr) => {{
        let mut payloads = vec![$payload];
        for chunk in $arrivals.chunks(64) {
            $engine.ingest(chunk).unwrap();
            payloads.push($payload);
            if $engine.live() > 700 {
                $engine.evict_oldest($engine.live() - 700).unwrap();
                payloads.push($payload);
            }
        }
        payloads
    }};
}

macro_rules! fingerprint {
    ($engine:expr, $payloads:expr) => {{
        let slots = $engine.live_slots();
        let assignments = slots
            .iter()
            .map(|&s| $engine.assignment_of(s).unwrap())
            .collect();
        Fingerprint {
            payloads: $payloads,
            slots,
            assignments,
            objective_bits: $engine.objective().to_bits(),
            trace_bits: $engine.trace().iter().map(|v| v.to_bits()).collect(),
            prototype_bits: $engine
                .prototypes()
                .iter()
                .map(|p| p.iter().map(|v| v.to_bits()).collect())
                .collect(),
        }
    }};
}

fn run_single(data: &Dataset, seed: u64, threads: usize) -> Fingerprint {
    let boot_idx: Vec<usize> = (0..600).collect();
    let boot = data.select_rows(&boot_idx).unwrap();
    let mut stream = StreamingFairKm::bootstrap(boot, config(seed, threads)).unwrap();
    let arrivals: Vec<Vec<Value>> = (600..900).map(|r| data.row_values(r).unwrap()).collect();
    let payloads = drive!(stream, arrivals, stream.to_snapshot_bytes());
    fingerprint!(stream, payloads)
}

fn run_sharded(data: &Dataset, seed: u64, threads: usize, shards: usize) -> Fingerprint {
    let boot_idx: Vec<usize> = (0..600).collect();
    let boot = data.select_rows(&boot_idx).unwrap();
    let mut sharded = ShardedFairKm::bootstrap(boot, config(seed, threads), shards, 64).unwrap();
    let arrivals: Vec<Vec<Value>> = (600..900).map(|r| data.row_values(r).unwrap()).collect();
    let payloads = drive!(sharded, arrivals, sharded.coordinator().stream_payload());
    assert!(
        sharded.replicas_agree(),
        "replica drift: seed {seed}, {threads} threads, {shards} shards"
    );
    fingerprint!(sharded, payloads)
}

#[test]
fn sharded_lifecycle_matches_single_node_at_every_shard_count() {
    let data = workload();
    for seed in SEEDS {
        let golden = run_single(&data, seed, 1);
        for threads in [1usize, 8] {
            assert_eq!(
                run_single(&data, seed, threads),
                golden,
                "single-node thread variance: seed {seed}, {threads} threads"
            );
            for shards in SHARD_COUNTS {
                assert_eq!(
                    run_sharded(&data, seed, threads, shards),
                    golden,
                    "sharded divergence: seed {seed}, {threads} threads, {shards} shards"
                );
            }
        }
    }
}
