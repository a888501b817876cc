//! The sharded durable formats, pinned by committed bytes.
//!
//! `tests/fixtures/coord_fs_v1/` is a coordinator state directory (the
//! `FKCOORD2` snapshots and the write-ahead log segments holding
//! `REC_ENTRIES` and `REC_OP_DONE` records) and
//! `tests/fixtures/shard_snapshot_v1.bin` one shard's `FKSHARD1` snapshot,
//! both written by [`write_script`] through [`FsBackend`]. The files are
//! never regenerated. They must recover and decode, re-encode byte for
//! byte, and the same script run today must write the same bytes, so a
//! change that moves any byte of either format on disk fails here.

use fairkm_core::{FairKmConfig, Lambda, StreamingConfig, StreamingFairKm, UpdateSchedule};
use fairkm_data::Value;
use fairkm_shard::{Coordinator, Msg, Op, Outbox, ShardNode, ShardPlan};
use fairkm_store::{crc32, DurableStore, FsBackend};
use fairkm_synth::planted::{PlantedConfig, PlantedGenerator};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The CRC-32 of the stream payload the committed coordinator directory
/// recovers to.
const RECOVERED_PAYLOAD_CRC: u32 = 0x563a_0a20;

/// Run `op` to completion over an in-order queue.
fn run_op(c: &mut Coordinator, shards: &mut [ShardNode], op: Op) {
    let mut out: Outbox = Vec::new();
    c.handle(Msg::Op(op), &mut out);
    let mut queue: VecDeque<(usize, Msg)> = out.into_iter().collect();
    while let Some((to, msg)) = queue.pop_front() {
        let mut out: Outbox = Vec::new();
        match to {
            0 => c.handle(msg, &mut out),
            _ => shards[to - 1].handle(msg, &mut out),
        }
        queue.extend(out);
    }
    assert!(c.take_result().is_some(), "the operation completed");
}

/// A 2-shard coordinator journaling into `dir` with a snapshot every 2
/// operations: a 64-point unoptimized bootstrap under a heavy λ, then an
/// ingest, an eviction of the oldest, a re-optimization that moves points
/// and installs a rebuild, an eviction by slot and a last ingest. Returns
/// shard 1's snapshot at the end.
fn write_script(dir: &Path) -> Vec<u8> {
    let data = PlantedGenerator::new(PlantedConfig {
        n_rows: 96,
        n_blobs: 3,
        dim: 3,
        n_sensitive_attrs: 2,
        cardinality: 3,
        alignment: 0.8,
        separation: 4.0,
        spread: 1.0,
        seed: 23,
    })
    .generate()
    .dataset;
    let boot: Vec<usize> = (0..64).collect();
    let base = FairKmConfig::new(3)
        .with_seed(5)
        .with_max_iters(0)
        .with_lambda(Lambda::Fixed(4000.0))
        .with_schedule(UpdateSchedule::MiniBatch(16))
        .with_threads(1);
    let config = StreamingConfig::from_base(base).with_drift_threshold(0.02);
    let engine = StreamingFairKm::bootstrap(data.select_rows(&boot).unwrap(), config).unwrap();
    let plan = ShardPlan::new(2, 8).unwrap();
    let (mut c, mut shards) = Coordinator::provision(engine.into_payload(), plan);
    let backend = FsBackend::open(dir).unwrap();
    c.make_durable(Box::new(backend), Some(2)).unwrap();
    let rows = |r: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        r.map(|i| data.row_values(i).unwrap()).collect()
    };
    for op in [
        Op::Ingest(rows(64..76)),
        Op::EvictOldest(6),
        Op::Reoptimize,
        Op::Evict(vec![20, 70]),
        Op::Ingest(rows(76..96)),
    ] {
        run_op(&mut c, &mut shards, op);
    }
    shards[1].snapshot_bytes()
}

fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairkm_shard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh copy of the coordinator directory: recovery writes to it.
fn coordinator_dir_copy(name: &str) -> PathBuf {
    let dir = scratch(name);
    for (name, bytes) in files(&fixtures().join("coord_fs_v1")) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

fn shard_snapshot() -> Vec<u8> {
    std::fs::read(fixtures().join("shard_snapshot_v1.bin")).unwrap()
}

#[test]
fn the_committed_shard_snapshot_decodes_and_re_encodes_byte_for_byte() {
    let bytes = shard_snapshot();
    let shard = ShardNode::from_snapshot(&bytes).unwrap();
    assert_eq!(shard.id(), 1);
    assert!(shard.snapshot_bytes() == bytes, "re-encoded bytes differ");
}

#[test]
fn the_committed_coordinator_dir_recovers_to_its_payload() {
    let dir = coordinator_dir_copy("recover");
    let (_, stored) = DurableStore::open(FsBackend::open(&dir).unwrap()).unwrap();
    // The newest snapshot re-encodes byte for byte, and a suffix of both
    // record kinds is replayed over it.
    let snapshot = stored.snapshot.expect("a snapshot");
    let decoded = Coordinator::decode_snapshot(&snapshot).unwrap();
    assert!(
        decoded.snapshot_bytes() == snapshot,
        "re-encoded bytes differ"
    );
    let tags: Vec<u8> = stored.entries.iter().map(|r| r[0]).collect();
    assert_eq!(tags, [0, 1], "one entry batch, then its operation record");

    let backend = FsBackend::open(&dir).unwrap();
    let (c, report) = Coordinator::recover(Box::new(backend), Some(2)).unwrap();
    assert!(!report.interrupted);
    assert!(report.replayed_entries > 0);
    assert_eq!(crc32(&c.stream_payload()), RECOVERED_PAYLOAD_CRC);
    // The shard snapshot was taken at the same operation boundary.
    let shard = ShardNode::from_snapshot(&shard_snapshot()).unwrap();
    assert_eq!(shard.version(), c.log_len());
    assert!(shard.model_bytes() == c.model_bytes());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_script_writes_the_committed_bytes_today() {
    let dir = scratch("script");
    let shard = write_script(&dir);
    assert!(shard == shard_snapshot(), "shard snapshot bytes moved");
    let (ours, committed) = (files(&dir), files(&fixtures().join("coord_fs_v1")));
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&ours), names(&committed));
    for ((name, ours), (_, committed)) in ours.iter().zip(&committed) {
        assert!(ours == committed, "{name} moved");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
