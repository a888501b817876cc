//! Restore-never-panics property of the stream snapshot: a mutated
//! `StreamingFairKm::to_snapshot_bytes` payload either decodes to a typed
//! error or to an engine that can still serve and ingest a valid row
//! without panicking.

use fairkm_core::{FairKmConfig, Lambda, StreamingConfig, StreamingFairKm};
use fairkm_data::{row, Dataset, DatasetBuilder, Role, Value};
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

/// A small stream with an ingest and an eviction behind it, so the payload
/// carries tombstones, a trace and non-zero counters.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let config = StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(3)
                .with_lambda(Lambda::Fixed(10.0))
                .with_threads(1),
        );
        let mut s = StreamingFairKm::bootstrap(corpus(12), config).unwrap();
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
