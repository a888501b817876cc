//! Restore-never-panics properties of the single-node stream:
//!
//! * a mutated `StreamingFairKm::to_snapshot_bytes` payload either decodes
//!   to a typed error or to an engine that can still serve and ingest a
//!   valid row without panicking;
//! * a `DurableStream` journal whose `StreamOp` record was mutated (with a
//!   valid checksum, as a buggy writer would leave it) either reopens to a
//!   typed error or to a stream that ingests a valid row.

use fairkm_core::persist::DurableStream;
use fairkm_core::{FairKmConfig, Lambda, StreamingConfig, StreamingFairKm};
use fairkm_data::{row, Dataset, DatasetBuilder, Role, Value};
use fairkm_store::{DurableStore, SharedMemBackend};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Task `x`, `y`; sensitive `g ∈ {a, b}` and numeric `age`; auxiliary
/// `note ∈ {p, q}`.
fn arrival(i: usize) -> Vec<Value> {
    let j = (i % 5) as f64 * 0.1;
    let (x, g) = if i.is_multiple_of(2) {
        (j, "a")
    } else {
        (5.0 + j, "b")
    };
    let note = if i.is_multiple_of(3) { "p" } else { "q" };
    row![x, x - j, g, 20.0 + (i % 11) as f64 * 1.5, note]
}

fn corpus(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.numeric("x", Role::NonSensitive).unwrap();
    b.numeric("y", Role::NonSensitive).unwrap();
    b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
    b.numeric("age", Role::Sensitive).unwrap();
    b.categorical("note", Role::Auxiliary, &["p", "q"]).unwrap();
    for i in 0..n {
        b.push_row(arrival(i)).unwrap();
    }
    b.build().unwrap()
}

fn config() -> StreamingConfig {
    StreamingConfig::from_base(
        FairKmConfig::new(2)
            .with_seed(3)
            .with_lambda(Lambda::Fixed(10.0))
            .with_threads(1),
    )
}

/// A small stream with an ingest and an eviction behind it, so the payload
/// carries tombstones, a trace and non-zero counters.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut s = StreamingFairKm::bootstrap(corpus(12), config()).unwrap();
        s.ingest(&[arrival(12), arrival(13)]).unwrap();
        s.evict(&[0]).unwrap();
        s.to_snapshot_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Debug builds cross-check every ingest against a from-scratch
    /// rebuild and panic, by design, when a float aggregate disagrees with
    /// the rows it sums. A decoder cannot reject such a snapshot exactly
    /// (delta-maintained sums differ from a rebuild in the low bits), so
    /// the ingest leg runs in release builds only.
    #[test]
    fn a_mutated_stream_snapshot_never_panics(
        edits in proptest::collection::vec((0u16..=u16::MAX, 1u8..=255), 1..4),
    ) {
        let mut bytes = snapshot().to_vec();
        let len = bytes.len();
        for &(pos, mask) in &edits {
            bytes[pos as usize % len] ^= mask;
        }
        if let Ok(mut s) = StreamingFairKm::from_snapshot_bytes(&bytes, Some(1)) {
            let _ = s.serving_view().assign(&arrival(20));
            if !cfg!(debug_assertions) {
                let _ = s.ingest(&[arrival(20)]);
            }
        }
    }
}

/// A short durable run: its bootstrap snapshot and one journal record per
/// operation kind.
struct Journal {
    snapshot: Vec<u8>,
    records: Vec<Vec<u8>>,
}

fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let disk = SharedMemBackend::new();
        let mut d = DurableStream::create(disk.clone(), corpus(12), config(), None).unwrap();
        d.ingest(&[arrival(12), arrival(13), arrival(14)]).unwrap();
        d.evict(&[4, 1]).unwrap();
        d.evict_oldest(2).unwrap();
        d.reoptimize().unwrap();
        d.compact().unwrap();
        d.ingest(&[arrival(15)]).unwrap();
        drop(d);
        let (_, recovered) = DurableStore::open(disk).unwrap();
        Journal {
            snapshot: recovered.snapshot.unwrap(),
            records: recovered.entries,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Replaying an operation runs the engine's debug cross-check, which
    /// panics by design on float sums that cancellation broke (a mutated
    /// ingest can carry huge finite cells), so the replay leg runs in
    /// release builds only, like the snapshot's ingest leg above.
    #[test]
    fn a_mutated_journal_record_never_panics(
        which in 0usize..64,
        edits in proptest::collection::vec((0u16..=u16::MAX, 1u8..=255), 1..4),
    ) {
        let run = journal();
        let mut records = run.records.clone();
        let n = records.len();
        let record = &mut records[which % n];
        let len = record.len();
        for &(pos, mask) in &edits {
            record[pos as usize % len] ^= mask;
        }
        let disk = SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.snapshot(&run.snapshot).unwrap();
        for record in &records {
            store.append(record).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        if !cfg!(debug_assertions) {
            if let Ok((mut d, _)) = DurableStream::open(disk, Some(1), None) {
                prop_assert!(d.ingest(&[arrival(20)]).is_ok());
            }
        }
    }
}
