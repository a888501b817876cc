//! Golden-trace regression corpus: fixed-seed workloads whose assignments
//! and objective traces are committed under `tests/golden/` and diffed
//! bit-for-bit against live runs. Any change to the optimizer's arithmetic,
//! scan order, RNG consumption, or delta bookkeeping shows up here as a
//! trace drift — deliberate changes are re-blessed with
//!
//! ```text
//! FAIRKM_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! Bitwise comparison is sound because the engine guarantees
//! bitwise-identical results for any thread count (see
//! `tests/parallel_determinism.rs`); floats are stored as hex bit patterns
//! so the files are exact and diffable.

use fairkm::core::{StreamingConfig, StreamingFairKm};
use fairkm::prelude::*;
use fairkm::synth::census::{CensusConfig, CensusGenerator};
use fairkm::synth::planted::{PlantedConfig, PlantedGenerator};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One run to pin: live assignments (slot ids + clusters), the full
/// objective trace and, for single-node streaming runs, digests of the
/// on-disk snapshot bytes and the shard replica bytes. A run whose digests
/// are `None` leaves those fields unchecked (the sharded runs reuse the
/// single-node files and only verify them).
struct GoldenRun {
    name: &'static str,
    slots: Vec<usize>,
    assignments: Vec<usize>,
    trace: Vec<f64>,
    snapshot: Option<u64>,
    replica: Option<u64>,
}

/// 64-bit FNV-1a: a stable, dependency-free digest of wire bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn render(run: &GoldenRun) -> String {
    let mut s = String::new();
    writeln!(s, "# fairkm golden trace v1").unwrap();
    writeln!(
        s,
        "# regenerate: FAIRKM_BLESS=1 cargo test --test golden_trace"
    )
    .unwrap();
    writeln!(s, "workload {}", run.name).unwrap();
    let join = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(" ");
    writeln!(
        s,
        "slots {}",
        join(&mut run.slots.iter().map(|v| v.to_string()))
    )
    .unwrap();
    writeln!(
        s,
        "assignments {}",
        join(&mut run.assignments.iter().map(|v| v.to_string()))
    )
    .unwrap();
    writeln!(
        s,
        "trace {}",
        join(&mut run.trace.iter().map(|v| format!("{:016x}", v.to_bits())))
    )
    .unwrap();
    for (key, value) in [("snapshot", run.snapshot), ("replica", run.replica)] {
        if let Some(d) = value {
            writeln!(s, "{key} {d:016x}").unwrap();
        }
    }
    s
}

fn field<'a>(stored: &'a str, key: &str) -> &'a str {
    stored
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("golden file is missing the `{key}` field"))
}

fn check(run: GoldenRun) {
    let path = golden_dir().join(format!("{}.golden", run.name));
    if std::env::var("FAIRKM_BLESS").is_ok_and(|v| v == "1") {
        let pinned = std::fs::read_to_string(&path)
            .is_ok_and(|s| s.lines().any(|l| l.starts_with("snapshot ")));
        if run.snapshot.is_none() && pinned {
            // A sharded run must not drop the digests its single-node
            // counterpart blesses into the same file.
            return;
        }
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, render(&run)).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             FAIRKM_BLESS=1 cargo test --test golden_trace",
            path.display()
        )
    });
    let bless_hint = "trace drifted — if the change is deliberate, re-bless with \
                      FAIRKM_BLESS=1 cargo test --test golden_trace";

    let stored_slots: Vec<usize> = field(&stored, "slots")
        .split_whitespace()
        .map(|v| v.parse().unwrap())
        .collect();
    assert_eq!(
        run.slots, stored_slots,
        "{}: live slots; {bless_hint}",
        run.name
    );

    let stored_assignments: Vec<usize> = field(&stored, "assignments")
        .split_whitespace()
        .map(|v| v.parse().unwrap())
        .collect();
    assert_eq!(
        run.assignments.len(),
        stored_assignments.len(),
        "{}: assignment count; {bless_hint}",
        run.name
    );
    for (i, (live, gold)) in run.assignments.iter().zip(&stored_assignments).enumerate() {
        assert_eq!(
            live, gold,
            "{}: assignment of slot {} diverged; {bless_hint}",
            run.name, run.slots[i]
        );
    }

    let stored_trace: Vec<f64> = field(&stored, "trace")
        .split_whitespace()
        .map(|v| f64::from_bits(u64::from_str_radix(v, 16).unwrap()))
        .collect();
    assert_eq!(
        run.trace.len(),
        stored_trace.len(),
        "{}: trace length; {bless_hint}",
        run.name
    );
    for (i, (live, gold)) in run.trace.iter().zip(&stored_trace).enumerate() {
        assert_eq!(
            live.to_bits(),
            gold.to_bits(),
            "{}: trace[{i}] diverged ({live} vs {gold}); {bless_hint}",
            run.name
        );
    }

    for (key, value) in [("snapshot", run.snapshot), ("replica", run.replica)] {
        if let Some(live) = value {
            let gold = u64::from_str_radix(field(&stored, key), 16).unwrap();
            assert_eq!(
                live, gold,
                "{}: {key} bytes digest {live:016x} vs {gold:016x}; {bless_hint}",
                run.name
            );
        }
    }
}

fn planted(n: usize, seed: u64) -> Dataset {
    PlantedGenerator::new(PlantedConfig {
        n_rows: n,
        n_blobs: 3,
        dim: 4,
        n_sensitive_attrs: 2,
        cardinality: 3,
        alignment: 0.9,
        separation: 8.0,
        spread: 1.0,
        seed,
    })
    .generate()
    .dataset
}

fn batch_run(name: &'static str, data: &Dataset, k: usize, seed: u64) -> GoldenRun {
    batch_run_with(name, data, k, seed, ObjectiveKind::Representativity)
}

fn batch_run_with(
    name: &'static str,
    data: &Dataset,
    k: usize,
    seed: u64,
    objective: ObjectiveKind,
) -> GoldenRun {
    let model = FairKm::new(
        FairKmConfig::new(k)
            .with_seed(seed)
            .with_schedule(UpdateSchedule::MiniBatch(64))
            .with_threads(2)
            .with_objective(objective),
    )
    .fit(data)
    .unwrap();
    GoldenRun {
        name,
        slots: (0..data.n_rows()).collect(),
        assignments: model.assignments().to_vec(),
        trace: model.objective_trace().to_vec(),
        snapshot: None,
        replica: None,
    }
}

/// The full streaming lifecycle under a given objective: bootstrap on the
/// first 240 of 360 planted rows, stream the remaining 120 in batches of
/// 40, evict the 60 oldest — pins ingest scoring, drift-triggered reopts
/// and eviction deltas, not just the batch optimizer. The end state's
/// snapshot bytes and shard replica bytes are pinned by digest, so a
/// refactor that changes either on-disk encoding fails here.
fn streaming_run(name: &'static str, objective: ObjectiveKind) -> GoldenRun {
    let data = planted(360, 0xCAFE);
    let boot_idx: Vec<usize> = (0..240).collect();
    let boot = data.select_rows(&boot_idx).unwrap();
    let mut stream = StreamingFairKm::bootstrap(
        boot,
        StreamingConfig::from_base(
            FairKmConfig::new(4)
                .with_seed(5)
                .with_schedule(UpdateSchedule::MiniBatch(64))
                .with_threads(2)
                .with_objective(objective),
        )
        .with_drift_threshold(0.02),
    )
    .unwrap();
    let arrivals: Vec<Vec<Value>> = (240..360).map(|r| data.row_values(r).unwrap()).collect();
    for chunk in arrivals.chunks(40) {
        stream.ingest(chunk).unwrap();
    }
    stream.evict_oldest(60).unwrap();
    let slots = stream.live_slots();
    let assignments = slots
        .iter()
        .map(|&s| stream.assignment_of(s).unwrap())
        .collect();
    let snapshot = digest(&stream.to_snapshot_bytes());
    let replica = digest(&stream.clone().into_payload().model.to_bytes());
    GoldenRun {
        name,
        slots,
        assignments,
        trace: stream.trace().to_vec(),
        snapshot: Some(snapshot),
        replica: Some(replica),
    }
}

#[test]
fn planted_small_matches_golden_trace() {
    check(batch_run("planted_small", &planted(240, 0x5EED), 4, 7));
}

#[test]
fn census_small_matches_golden_trace() {
    let data = CensusGenerator::new(CensusConfig::with_rows(240, 11)).generate();
    check(batch_run("census_small", &data, 5, 3));
}

#[test]
fn streaming_planted_matches_golden_trace() {
    check(streaming_run(
        "streaming_planted",
        ObjectiveKind::Representativity,
    ));
}

// The non-default objectives get the same three-workload pinning as Eq. 7:
// a planted minibatch fit, a census minibatch fit, and the full streaming
// lifecycle. Any drift in their delta arithmetic or dirty-set handling
// lands here bit-for-bit.

#[test]
fn bounded_planted_matches_golden_trace() {
    check(batch_run_with(
        "bounded_planted",
        &planted(240, 0x5EED),
        4,
        7,
        ObjectiveKind::bounded(),
    ));
}

#[test]
fn bounded_census_matches_golden_trace() {
    let data = CensusGenerator::new(CensusConfig::with_rows(240, 11)).generate();
    check(batch_run_with(
        "bounded_census",
        &data,
        5,
        3,
        ObjectiveKind::bounded(),
    ));
}

#[test]
fn bounded_streaming_matches_golden_trace() {
    check(streaming_run("bounded_streaming", ObjectiveKind::bounded()));
}

#[test]
fn utilitarian_planted_matches_golden_trace() {
    check(batch_run_with(
        "utilitarian_planted",
        &planted(240, 0x5EED),
        4,
        7,
        ObjectiveKind::Utilitarian,
    ));
}

#[test]
fn utilitarian_census_matches_golden_trace() {
    let data = CensusGenerator::new(CensusConfig::with_rows(240, 11)).generate();
    check(batch_run_with(
        "utilitarian_census",
        &data,
        5,
        3,
        ObjectiveKind::Utilitarian,
    ));
}

#[test]
fn utilitarian_streaming_matches_golden_trace() {
    check(streaming_run(
        "utilitarian_streaming",
        ObjectiveKind::Utilitarian,
    ));
}

/// The streaming lifecycle of [`streaming_run`], executed through the
/// coordinator/shard protocol instead of the single-node driver, checked
/// against the **same** committed golden files: the sharded engine must
/// reproduce the exact bits pinned for the single-node engine, at any
/// shard count, with no re-blessing.
fn sharded_streaming_run(name: &'static str, objective: ObjectiveKind, shards: usize) -> GoldenRun {
    use fairkm::shard::ShardedFairKm;
    let data = planted(360, 0xCAFE);
    let boot_idx: Vec<usize> = (0..240).collect();
    let boot = data.select_rows(&boot_idx).unwrap();
    let mut stream = ShardedFairKm::bootstrap(
        boot,
        StreamingConfig::from_base(
            FairKmConfig::new(4)
                .with_seed(5)
                .with_schedule(UpdateSchedule::MiniBatch(64))
                .with_threads(2)
                .with_objective(objective),
        )
        .with_drift_threshold(0.02),
        shards,
        32,
    )
    .unwrap();
    let arrivals: Vec<Vec<Value>> = (240..360).map(|r| data.row_values(r).unwrap()).collect();
    for chunk in arrivals.chunks(40) {
        stream.ingest(chunk).unwrap();
    }
    stream.evict_oldest(60).unwrap();
    assert!(stream.replicas_agree());
    let slots = stream.live_slots();
    let assignments = slots
        .iter()
        .map(|&s| stream.assignment_of(s).unwrap())
        .collect();
    GoldenRun {
        name,
        slots,
        assignments,
        trace: stream.trace().to_vec(),
        snapshot: None,
        replica: None,
    }
}

#[test]
fn sharded_streaming_matches_the_single_node_golden_trace() {
    for shards in [2usize, 3] {
        check(sharded_streaming_run(
            "streaming_planted",
            ObjectiveKind::Representativity,
            shards,
        ));
        check(sharded_streaming_run(
            "bounded_streaming",
            ObjectiveKind::bounded(),
            shards,
        ));
    }
}
