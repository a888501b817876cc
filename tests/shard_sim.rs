//! Fault-injection suite for the shard protocol: the full workload runs
//! inside the deterministic `fairkm-sim` simulator under adversarial
//! message schedules — reordering, bounded delay, a lagging shard, shard
//! crashes with rejoin-from-snapshot, and a checkpoint followed by a
//! second crash. After quiescence, the coordinator AND every shard replica
//! must be **bitwise identical** to a fault-free in-process run of the
//! same operations (which `tests/shard_determinism.rs` pins to the
//! single-node golden): same objective bits, same trace, same
//! assignments, same prototypes, same serialized model bytes, same stream
//! payload bytes, same log version. The fault-free run's stream payload
//! equals the single-node engine's at every operation boundary, so every
//! schedule's payload is the single node's, byte for byte.
//!
//! The coordinator (node 0) crashes too: it journals every mutation batch
//! through its node's fault-injecting storage backend before broadcasting
//! it, so the later schedules power-cycle node 0 — at operation
//! boundaries (recovery must reproduce the golden bits exactly), mid
//! operation (replicas must stay consistent; only the in-flight work may
//! be lost), and under injected storage faults (torn journal writes, a
//! bit-flipped snapshot).

use fairkm::prelude::*;
use fairkm::shard::{build_simulation, Msg, Op, ShardPlan, ShardedFairKm};
use fairkm::sim::FaultSchedule;
use fairkm::synth::planted::{PlantedConfig, PlantedGenerator};

const SIM_SEEDS: [u64; 2] = [3, 71];
const SHARDS: usize = 2;
const BLOCK: usize = 16;
const MAX_STEPS: u64 = 2_000_000;

fn workload() -> Dataset {
    PlantedGenerator::new(PlantedConfig {
        n_rows: 300,
        n_blobs: 3,
        dim: 4,
        n_sensitive_attrs: 2,
        cardinality: 3,
        alignment: 0.8,
        separation: 5.0,
        spread: 1.0,
        seed: 17,
    })
    .generate()
    .dataset
}

fn config() -> StreamingConfig {
    StreamingConfig::from_base(
        FairKmConfig::new(3)
            .with_seed(11)
            .with_max_iters(4)
            .with_threads(1),
    )
    .with_drift_threshold(0.02)
}

/// The operation sequence both executions replay.
fn ops(data: &Dataset) -> Vec<Op> {
    let arrivals: Vec<Vec<Value>> = (200..300).map(|r| data.row_values(r).unwrap()).collect();
    let mut ops: Vec<Op> = arrivals
        .chunks(25)
        .map(|c| Op::Ingest(c.to_vec()))
        .collect();
    ops.push(Op::EvictOldest(40));
    ops.push(Op::Evict(vec![205, 207]));
    ops.push(Op::Reoptimize);
    ops
}

/// Bitwise fingerprint of a finished run.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    objective_bits: u64,
    trace_bits: Vec<u64>,
    slots: Vec<usize>,
    assignments: Vec<usize>,
    prototype_bits: Vec<Vec<u64>>,
    model_bytes: Vec<u8>,
    payload: Vec<u8>,
    log_len: u64,
}

fn fingerprint_of(c: &fairkm::shard::Coordinator) -> Fingerprint {
    let slots = c.live_slots();
    let assignments = slots.iter().map(|&s| c.assignment_of(s).unwrap()).collect();
    Fingerprint {
        objective_bits: c.objective().to_bits(),
        trace_bits: c.trace().iter().map(|v| v.to_bits()).collect(),
        slots,
        assignments,
        prototype_bits: (0..c.k())
            .map(|ci| c.prototypes()[ci].iter().map(|v| v.to_bits()).collect())
            .collect(),
        model_bytes: c.model_bytes(),
        payload: c.stream_payload(),
        log_len: c.log_len(),
    }
}

/// Fault-free in-process execution — the reference bits — run in lockstep
/// with the single-node engine, whose stream payload it must equal at
/// every operation boundary.
fn golden(data: &Dataset) -> Fingerprint {
    let boot_idx: Vec<usize> = (0..200).collect();
    let boot = data.select_rows(&boot_idx).unwrap();
    let mut single = StreamingFairKm::bootstrap(boot.clone(), config()).unwrap();
    let mut engine = ShardedFairKm::bootstrap(boot, config(), SHARDS, BLOCK).unwrap();
    assert!(engine.coordinator().stream_payload() == single.to_snapshot_bytes());
    for (i, op) in ops(data).into_iter().enumerate() {
        match op {
            Op::Ingest(rows) => {
                engine.ingest(&rows).unwrap();
                single.ingest(&rows).unwrap();
            }
            Op::Evict(slots) => {
                engine.evict(&slots).unwrap();
                single.evict(&slots).unwrap();
            }
            Op::EvictOldest(n) => {
                engine.evict_oldest(n).unwrap();
                single.evict_oldest(n).unwrap();
            }
            Op::Reoptimize => {
                engine.reoptimize();
                single.reoptimize();
            }
        }
        assert!(
            engine.coordinator().stream_payload() == single.to_snapshot_bytes(),
            "stream payload diverged from the single node after op {i}"
        );
    }
    assert!(engine.replicas_agree());
    fingerprint_of(engine.coordinator())
}

/// Run the same ops through the simulator under `faults` and fingerprint
/// the quiesced coordinator, asserting every shard replica converged to
/// the same bits.
fn simulated(data: &Dataset, seed: u64, faults: FaultSchedule) -> Fingerprint {
    let boot_idx: Vec<usize> = (0..200).collect();
    let parts = StreamingFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config())
        .unwrap()
        .into_payload();
    let plan = ShardPlan::new(SHARDS, BLOCK).unwrap();
    let mut sim = build_simulation(parts, plan, seed, faults);
    for (i, op) in ops(data).into_iter().enumerate() {
        sim.post(0, Msg::Op(op), 1 + i as u64);
    }
    sim.run_until_quiescent(MAX_STEPS);

    let coordinator = sim
        .node(0)
        .as_coordinator()
        .expect("node 0 is the coordinator");
    let fp = fingerprint_of(coordinator);
    for shard in 0..SHARDS {
        assert!(sim.is_up(shard + 1), "shard {shard} never restarted");
        let node = sim.node(shard + 1).as_shard().expect("shard node");
        assert_eq!(
            node.version(),
            fp.log_len,
            "shard {shard} stopped short of the log head"
        );
        assert_eq!(
            node.model_bytes(),
            fp.model_bytes,
            "shard {shard} replica bits diverged"
        );
    }
    fp
}

fn schedules() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("no_faults", FaultSchedule::none()),
        (
            "heavy_reorder",
            FaultSchedule::none().with_max_extra_delay(7),
        ),
        (
            "lagging_shard",
            FaultSchedule::none().with_max_extra_delay(3).with_lag(1, 5),
        ),
        (
            "crash_rejoin_from_provisioning_snapshot",
            FaultSchedule::none()
                .with_max_extra_delay(2)
                .with_crash(2, 200, 600),
        ),
        (
            "checkpoint_then_second_crash",
            FaultSchedule::none()
                .with_max_extra_delay(2)
                .with_crash(2, 100, 250)
                .with_checkpoint(2, 400)
                .with_crash(2, 500, 900)
                .with_checkpoint(1, 300)
                .with_crash(1, 350, 700),
        ),
    ]
}

#[test]
fn every_fault_schedule_converges_to_the_golden_bits() {
    let data = workload();
    let reference = golden(&data);
    assert!(!reference.trace_bits.is_empty());
    for seed in SIM_SEEDS {
        for (name, faults) in schedules() {
            let fp = simulated(&data, seed, faults);
            assert_eq!(
                fp, reference,
                "schedule `{name}` with sim seed {seed} diverged from the golden bits"
            );
        }
    }
}

/// Build the simulation over a freshly bootstrapped engine.
#[allow(clippy::type_complexity)] // impl-Trait factory can't live in a type alias
fn sim_over(
    data: &Dataset,
    seed: u64,
    faults: FaultSchedule,
) -> fairkm::sim::Simulation<
    Msg,
    fairkm::shard::Node,
    impl FnMut(usize, Option<&[u8]>, &fairkm::sim::SharedMemBackend) -> fairkm::shard::Node,
> {
    let boot_idx: Vec<usize> = (0..200).collect();
    let parts = StreamingFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config())
        .unwrap()
        .into_payload();
    let plan = ShardPlan::new(SHARDS, BLOCK).unwrap();
    build_simulation(parts, plan, seed, faults)
}

/// A virtual time safely past the quiescence of any run in this file, so
/// a crash scheduled there hits an *idle* coordinator (virtual time only
/// advances with events; each message hop costs at least one tick).
const IDLE_T: u64 = 1_000_000;

/// Power-cycling the coordinator at an operation boundary — here between
/// two bursts of operations — must reproduce the uninterrupted golden
/// bits exactly: the recovered node 0 is rebuilt from its checksummed
/// snapshot plus the WAL suffix, and the remaining operations land on
/// identical state. A shard crash rides along to compose the two
/// recovery paths.
#[test]
fn coordinator_idle_crash_recovers_to_the_golden_bits() {
    let data = workload();
    let reference = golden(&data);
    let all_ops = ops(&data);
    let split = all_ops.len() / 2;
    for seed in SIM_SEEDS {
        let faults = FaultSchedule::none()
            .with_max_extra_delay(2)
            .with_crash(2, 200, 600)
            .with_crash(0, IDLE_T, IDLE_T + 20);
        let mut sim = sim_over(&data, seed, faults);
        for (i, op) in all_ops[..split].iter().enumerate() {
            sim.post(0, Msg::Op(op.clone()), 1 + i as u64);
        }
        // Drains the first burst, then the node-0 crash + recovery.
        sim.run_until_quiescent(MAX_STEPS);
        assert!(sim.is_up(0), "coordinator never restarted");
        let t = sim.time();
        for (i, op) in all_ops[split..].iter().enumerate() {
            sim.post(0, Msg::Op(op.clone()), t + 1 + i as u64);
        }
        sim.run_until_quiescent(MAX_STEPS);

        let coordinator = sim.node(0).as_coordinator().expect("node 0");
        let fp = fingerprint_of(coordinator);
        assert_eq!(
            fp, reference,
            "recovered coordinator diverged from the golden bits (seed {seed})"
        );
        for shard in 0..SHARDS {
            let node = sim.node(shard + 1).as_shard().expect("shard node");
            assert_eq!(node.version(), fp.log_len);
            assert_eq!(node.model_bytes(), fp.model_bytes);
        }
    }
}

/// Flip one bit in the newest durable snapshot before the power cycle:
/// recovery must reject the corrupt snapshot on its CRC, fall back to the
/// previous retained snapshot, replay the longer WAL suffix — and still
/// land on the golden bits.
#[test]
fn bit_flipped_snapshot_falls_back_and_still_matches_golden() {
    use fairkm::store::StorageBackend;

    let data = workload();
    let reference = golden(&data);
    let all_ops = ops(&data);

    // Discovery run (no faults): the backend contents at IDLE_T are
    // exactly what the faulted run sees at its crash, since the two
    // schedules are identical until then.
    let mut probe = sim_over(&data, 7, FaultSchedule::none());
    for (i, op) in all_ops.iter().enumerate() {
        probe.post(0, Msg::Op(op.clone()), 1 + i as u64);
    }
    probe.run_until_quiescent(MAX_STEPS);
    let newest_snapshot = probe
        .backend(0)
        .list()
        .unwrap()
        .into_iter()
        .filter(|f| f.starts_with("snap-"))
        .max()
        .expect("the coordinator journal rolled no snapshot");

    let faults = FaultSchedule::none()
        .with_bit_flip(0, &newest_snapshot, 40, 3)
        .with_crash(0, IDLE_T, IDLE_T + 20);
    let mut sim = sim_over(&data, 7, faults);
    for (i, op) in all_ops.iter().enumerate() {
        sim.post(0, Msg::Op(op.clone()), 1 + i as u64);
    }
    sim.run_until_quiescent(MAX_STEPS);
    assert!(sim.is_up(0));
    let coordinator = sim.node(0).as_coordinator().expect("node 0");
    assert_eq!(
        fingerprint_of(coordinator),
        reference,
        "snapshot-fallback recovery diverged from the golden bits"
    );
}

/// A torn journal write mid-run wedges the coordinator (it withholds
/// results and externalizes nothing past the durable log); the scheduled
/// power cycle then restores service from the pre-tear state. The lost
/// suffix of operations is the *fault's* doing, not corruption — so this
/// asserts consistency, not golden parity: every replica bitwise matches
/// the recovered coordinator, and fresh operations complete.
#[test]
fn torn_journal_write_wedges_then_power_cycle_restores_service() {
    let data = workload();
    let reference = golden(&data);
    let all_ops = ops(&data);
    let faults = FaultSchedule::none()
        .with_max_extra_delay(2)
        .with_torn_write(0, 20, 5)
        .with_crash(0, IDLE_T, IDLE_T + 20);
    let mut sim = sim_over(&data, 7, faults);
    for (i, op) in all_ops.iter().enumerate() {
        sim.post(0, Msg::Op(op.clone()), 1 + i as u64);
    }
    sim.run_until_quiescent(MAX_STEPS);
    assert!(sim.is_up(0));
    {
        let c = sim.node(0).as_coordinator().expect("node 0");
        assert!(!c.is_wedged(), "restart must clear the wedge");
        assert!(
            c.log_len() < reference.log_len,
            "the torn write never fired — move it into the active phase"
        );
        let (version, bytes) = (c.log_len(), c.model_bytes());
        for shard in 0..SHARDS {
            let node = sim.node(shard + 1).as_shard().expect("shard node");
            assert_eq!(node.version(), version, "shard {shard} out of sync");
            assert_eq!(node.model_bytes(), bytes, "shard {shard} diverged");
        }
    }
    // Service is restored: a fresh operation runs to completion.
    let before = sim.node(0).as_coordinator().unwrap().reopts();
    let t = sim.time();
    sim.post(0, Msg::Op(Op::Reoptimize), t + 1);
    sim.run_until_quiescent(MAX_STEPS);
    let c = sim.node(0).as_coordinator().expect("node 0");
    assert_eq!(c.reopts(), before + 1, "post-recovery operation was lost");
    for shard in 0..SHARDS {
        let node = sim.node(shard + 1).as_shard().expect("shard node");
        assert_eq!(node.version(), c.log_len());
        assert_eq!(node.model_bytes(), c.model_bytes());
    }
}

/// Crash the coordinator in the middle of the active phase. Operations
/// in flight or queued at the crash are lost — but the journal-before-
/// broadcast invariant means the durable log covers everything any shard
/// applied, so after recovery every replica must still bitwise agree
/// with node 0 (nothing rolls back, nothing forks).
#[test]
fn coordinator_mid_op_crash_keeps_replicas_consistent() {
    let data = workload();
    let all_ops = ops(&data);
    for seed in SIM_SEEDS {
        let faults = FaultSchedule::none()
            .with_max_extra_delay(2)
            .with_crash(0, 60, 160);
        let mut sim = sim_over(&data, seed, faults);
        for (i, op) in all_ops.iter().enumerate() {
            sim.post(0, Msg::Op(op.clone()), 1 + i as u64);
        }
        sim.run_until_quiescent(MAX_STEPS);
        assert!(sim.is_up(0));
        assert!(
            sim.dropped() > 0,
            "the crash window missed all coordinator traffic"
        );
        let c = sim.node(0).as_coordinator().expect("node 0");
        assert!(!c.is_wedged());
        assert!(c.live() > 0);
        for shard in 0..SHARDS {
            let node = sim.node(shard + 1).as_shard().expect("shard node");
            assert_eq!(
                node.version(),
                c.log_len(),
                "shard {shard} and recovered coordinator disagree on the log (seed {seed})"
            );
            assert_eq!(
                node.model_bytes(),
                c.model_bytes(),
                "shard {shard} replica forked from the durable log (seed {seed})"
            );
        }
        // The recovered coordinator still serves: run one fresh ingest.
        let before = c.live();
        let row: Vec<Vec<Value>> = vec![data.row_values(299).unwrap()];
        let t = sim.time();
        sim.post(0, Msg::Op(Op::Ingest(row)), t + 1);
        sim.run_until_quiescent(MAX_STEPS);
        let c = sim.node(0).as_coordinator().expect("node 0");
        assert_eq!(c.live(), before + 1, "post-recovery ingest was lost");
    }
}

#[test]
fn crash_schedules_actually_drop_messages() {
    // Sanity that the crash windows overlap real traffic — otherwise the
    // rejoin path is not exercised.
    let data = workload();
    let boot_idx: Vec<usize> = (0..200).collect();
    let parts = StreamingFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config())
        .unwrap()
        .into_payload();
    let plan = ShardPlan::new(SHARDS, BLOCK).unwrap();
    let faults = FaultSchedule::none()
        .with_max_extra_delay(2)
        .with_crash(2, 200, 600);
    let mut sim = build_simulation(parts, plan, 3, faults);
    for (i, op) in ops(&data).into_iter().enumerate() {
        sim.post(0, Msg::Op(op), 1 + i as u64);
    }
    sim.run_until_quiescent(MAX_STEPS);
    assert!(
        sim.dropped() > 0,
        "the crash window missed all traffic — move it into the active phase"
    );
}
