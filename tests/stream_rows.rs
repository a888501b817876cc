//! The streaming engine keeps one copy of each row — encoded task vector
//! and sensitive codes in its slot rows — plus the frozen schema. These
//! tests pin what that copy must still provide:
//!
//! * every path (frozen assign, serving view, ingest, durable ingest, the
//!   sharded coordinator) accepts and rejects exactly the same rows,
//!   auxiliary cells and overflowing norms included;
//! * `live_views` returns bit for bit the sensitive space a full `Dataset`
//!   of every row ever seen would give for the live slots;
//! * a snapshot payload from before the format tag, or in the `FKSTRM02`
//!   format, decodes to a typed `UnsupportedVersion`, not a misparse, and
//!   a committed `FKSTRM03` payload decodes and re-encodes byte for byte.

use fairkm::core::persist::{DurableStream, PersistError};
use fairkm::core::wire::WireError;
use fairkm::core::{FairKmConfig, FairKmError, Lambda, StreamingConfig, StreamingFairKm};
use fairkm::shard::ShardedFairKm;
use fairkm::store::{DurableStore, SharedMemBackend};
use fairkm_data::{row, DataError, Dataset, DatasetBuilder, Role, Value};

/// A payload written by `StreamingFairKm::to_snapshot_bytes` before the
/// format tag existed: a 16-row stream over the schema of [`corpus`]
/// (`k = 2`, seed 3, λ = 10), then 2 ingested rows and 1 eviction. Its
/// first field is the byte length of the `Dataset` copy that format
/// carried.
const UNTAGGED_SNAPSHOT: &[u8] = include_bytes!("fixtures/stream_snapshot_untagged.bin");

/// A payload written by `StreamingFairKm::to_snapshot_bytes` in the
/// `FKSTRM02` format, which wrote its own copy of the model's fields and
/// every row's `‖x‖²`: `corpus(16)` bootstrapped with `k = 2`, seed 3,
/// λ = 10 and one thread, then `arrival(16)` and `arrival(17)` ingested and
/// slot 0 evicted.
const V2_SNAPSHOT: &[u8] = include_bytes!("fixtures/stream_snapshot_v2.bin");

/// The same stream as [`V2_SNAPSHOT`], written in the `FKSTRM03` format —
/// the stream payload both hosts share. State directories holding such
/// payloads must keep loading.
const V3_SNAPSHOT: &[u8] = include_bytes!("fixtures/stream_snapshot_v3.bin");

/// Task `x`, `y`; sensitive `g ∈ {a, b}` and numeric `age`; auxiliary
/// `note ∈ {p, q}`.
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

fn arrival(i: usize) -> Vec<Value> {
    let j = (i % 5) as f64 * 0.1;
    let (x, g) = if i.is_multiple_of(2) {
        (j, "a")
    } else {
        (5.0 + j, "b")
    };
    let g = if i % 7 == 3 { "a" } else { g };
    let note = if i.is_multiple_of(3) { "p" } else { "q" };
    row![x, x - j, g, 20.0 + (i % 11) as f64 * 1.5, note]
}

fn config() -> StreamingConfig {
    StreamingConfig::from_base(
        FairKmConfig::new(3)
            .with_seed(5)
            .with_lambda(Lambda::Fixed(10.0))
            .with_threads(1),
    )
}

fn is_unknown_note(e: &FairKmError) -> bool {
    matches!(
        e,
        FairKmError::Data(DataError::UnknownCategory { attribute, .. }) if attribute == "note"
    )
}

/// Assert that `bad` is rejected with an error `expected` accepts by
/// every path: frozen assign, the serving view, ingest (atomically, as the
/// second row of a batch), the durable stream (journaling nothing) and the
/// sharded coordinator. Returns the engine it was checked against.
fn assert_rejected_on_every_path(
    bad: &[Value],
    expected: impl Fn(&FairKmError) -> bool,
) -> StreamingFairKm {
    let batch = vec![arrival(40), bad.to_vec()];
    let mut s = StreamingFairKm::bootstrap(corpus(24), config()).unwrap();

    let err = s.assign_frozen(bad).unwrap_err();
    assert!(expected(&err), "{err:?}");
    let err = s.serving_view().assign(bad).unwrap_err();
    assert!(expected(&err), "{err:?}");

    let (live, n_slots) = (s.live(), s.n_slots());
    let err = s.ingest(&batch).unwrap_err();
    assert!(expected(&err), "{err:?}");
    assert_eq!((s.live(), s.n_slots()), (live, n_slots), "ingest is atomic");

    let mut d = DurableStream::create(SharedMemBackend::new(), corpus(24), config(), None).unwrap();
    let seq = d.store().next_seq();
    match d.ingest(&batch) {
        Err(PersistError::Model(e)) => assert!(expected(&e), "{e:?}"),
        other => panic!("durable ingest accepted a bad row: {other:?}"),
    }
    assert_eq!(
        d.store().next_seq(),
        seq,
        "a rejected batch journals nothing"
    );
    assert_eq!(d.stream().n_slots(), n_slots);

    let mut sharded = ShardedFairKm::bootstrap(corpus(24), config(), 2, 4).unwrap();
    let err = sharded.ingest(&batch).unwrap_err();
    assert!(expected(&err), "{err:?}");
    assert_eq!(sharded.live(), live);
    assert!(sharded.replicas_agree());
    s
}

#[test]
fn a_bad_auxiliary_cell_is_rejected_on_every_path() {
    let bad = row![0.05, 0.05, "b", 30.0, "zzz"];
    let mut s = assert_rejected_on_every_path(&bad, is_unknown_note);
    // In arrival order: the earlier row's auxiliary error is reported
    // before a later row's sensitive error.
    let bad_sensitive = row![0.05, 0.05, "zzz", 30.0, "p"];
    let err = s.ingest(&[bad, bad_sensitive]).unwrap_err();
    assert!(is_unknown_note(&err), "{err:?}");
}

#[test]
fn a_row_whose_squared_norm_overflows_is_rejected_on_every_path() {
    // Finite cells whose encoded ‖x‖² is ∞: accepted, its sum would turn
    // the cluster's member-norm aggregate to ∞, and its removal to NaN.
    let huge = row![1e300, 1e300, "b", 30.0, "p"];
    assert_rejected_on_every_path(&huge, |e| matches!(e, FairKmError::NormOverflow));
}

/// The live views' sensitive space, compared with the construction from a
/// full copy of every row: bit for bit, including distributions and means.
fn assert_live_space_matches(s: &StreamingFairKm, all: &Dataset, when: &str) {
    let (matrix, space, partition, slots) = s.live_views().unwrap();
    assert_eq!(slots, s.live_slots(), "{when}");
    assert_eq!(matrix.rows(), slots.len(), "{when}");
    assert_eq!(partition.n_points(), slots.len(), "{when}");
    let expected = all.select_rows(&slots).unwrap().sensitive_space().unwrap();
    assert_eq!(space, expected, "{when}");
    for (ours, theirs) in space.categorical().iter().zip(expected.categorical()) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(ours.dataset_dist()),
            bits(theirs.dataset_dist()),
            "{when}"
        );
    }
    for (ours, theirs) in space.numeric().iter().zip(expected.numeric()) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ours.values()), bits(theirs.values()), "{when}");
        assert_eq!(
            ours.dataset_mean().to_bits(),
            theirs.dataset_mean().to_bits(),
            "{when}"
        );
    }
}

#[test]
fn live_views_match_a_full_copy_of_every_row() {
    let mut s = StreamingFairKm::bootstrap(corpus(24), config()).unwrap();
    let mut all = corpus(24);
    let mut next = 24;
    let mut ingest = |s: &mut StreamingFairKm, all: &mut Dataset, count: usize| {
        let rows: Vec<Vec<Value>> = (next..next + count).map(arrival).collect();
        next += count;
        s.ingest(&rows).unwrap();
        all.append_rows(rows).unwrap();
    };
    assert_live_space_matches(&s, &all, "bootstrap");
    ingest(&mut s, &mut all, 10);
    assert_live_space_matches(&s, &all, "ingest");
    s.evict(&[1, 4, 30]).unwrap();
    s.evict_oldest(5).unwrap();
    assert_live_space_matches(&s, &all, "evict");
    let kept = s.compact().unwrap();
    all = all.select_rows(&kept).unwrap();
    assert_live_space_matches(&s, &all, "compact");
    ingest(&mut s, &mut all, 7);
    s.evict(&[2]).unwrap();
    let restored = StreamingFairKm::from_snapshot_bytes(&s.to_snapshot_bytes(), Some(1)).unwrap();
    assert_live_space_matches(&restored, &all, "snapshot round-trip");
}

#[test]
fn an_untagged_snapshot_is_an_unsupported_version() {
    let length_prefix = u64::from_le_bytes(UNTAGGED_SNAPSHOT[..8].try_into().unwrap());
    assert!(
        length_prefix < 1 << 56,
        "the old format starts with a length"
    );
    let expected = u64::from_le_bytes(*b"FKSTRM03");
    assert!(matches!(
        StreamingFairKm::from_snapshot_bytes(UNTAGGED_SNAPSHOT, Some(1)),
        Err(WireError::UnsupportedVersion { found, expected: e })
            if found == length_prefix && e == expected
    ));
    // The current format starts with the tag.
    let current = StreamingFairKm::bootstrap(corpus(16), config())
        .unwrap()
        .to_snapshot_bytes();
    assert_eq!(current[..8], expected.to_le_bytes());

    // Recovery surfaces the same typed error: the store's frames and
    // checksums are intact, only the payload's format is foreign.
    let backend = SharedMemBackend::new();
    let (mut store, _) = DurableStore::open(backend.clone()).unwrap();
    store.snapshot(UNTAGGED_SNAPSHOT).unwrap();
    assert!(matches!(
        DurableStream::open(backend, Some(1), None),
        Err(PersistError::Wire(WireError::UnsupportedVersion { .. }))
    ));
}

#[test]
fn a_v2_snapshot_is_an_unsupported_version() {
    let v2 = u64::from_le_bytes(*b"FKSTRM02");
    assert_eq!(V2_SNAPSHOT[..8], v2.to_le_bytes());
    let expected = u64::from_le_bytes(*b"FKSTRM03");
    assert!(matches!(
        StreamingFairKm::from_snapshot_bytes(V2_SNAPSHOT, Some(1)),
        Err(WireError::UnsupportedVersion { found, expected: e })
            if found == v2 && e == expected
    ));
    let backend = SharedMemBackend::new();
    let (mut store, _) = DurableStore::open(backend.clone()).unwrap();
    store.snapshot(V2_SNAPSHOT).unwrap();
    assert!(matches!(
        DurableStream::open(backend, Some(1), None),
        Err(PersistError::Wire(WireError::UnsupportedVersion { .. }))
    ));
}

#[test]
fn a_v3_snapshot_decodes_and_re_encodes_byte_for_byte() {
    let mut s = StreamingFairKm::from_snapshot_bytes(V3_SNAPSHOT, Some(1)).unwrap();
    assert_eq!(s.to_snapshot_bytes(), V3_SNAPSHOT);
    assert_eq!(
        (s.live(), s.n_slots(), s.inserted(), s.evicted()),
        (17, 18, 2, 1)
    );
    // The restored stream still serves and ingests.
    let served = s.serving_view().assign(&arrival(18)).unwrap();
    assert_eq!(s.ingest(&[arrival(18)]).unwrap().clusters, vec![served]);
}
