//! The framed on-disk format, pinned by a committed state directory.
//!
//! `tests/fixtures/store_fs_v1/` was written by [`write_script`] through
//! [`FsBackend`] with the byte-at-a-time CRC-32 the store shipped before
//! its checksum was sliced: two retained snapshots and the log segments
//! after the older one. The files are never regenerated. Recovery and
//! verification must read them, and the same script run today must write
//! the same bytes, so a checksum or framing change that moves any byte on
//! disk fails here.

use fairkm_store::{DurableStore, FsBackend};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/store_fs_v1")
}

/// `len` deterministic bytes for payload `tag` (a 64-bit LCG).
fn bytes(tag: u64, len: usize) -> Vec<u8> {
    let mut s = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 56) as u8
        })
        .collect()
}

/// Log entry `i`: lengths 1, 38, 75, … cover every tail length of a
/// 16-byte block.
fn entry(i: u64) -> Vec<u8> {
    bytes(i, 1 + 37 * i as usize)
}

/// Snapshot `j`'s payload: a few kilobytes of odd length.
fn snapshot(j: u64) -> Vec<u8> {
    bytes(1000 + j, 3001 + 1000 * j as usize)
}

/// Entries 0..5, a snapshot, entries 5..9, a snapshot, entries 9..12 —
/// each batch synced. The first segment is pruned at the second snapshot.
fn write_script(dir: &Path) {
    let (mut store, _) = DurableStore::open(FsBackend::open(dir).unwrap()).unwrap();
    for (batch, snap) in [(0..5, Some(0)), (5..9, Some(1)), (9..12, None)] {
        for i in batch {
            store.append(&entry(i)).unwrap();
        }
        store.sync().unwrap();
        if let Some(j) = snap {
            store.snapshot(&snapshot(j)).unwrap();
        }
    }
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
    let dir = std::env::temp_dir().join(format!("fairkm_store_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const FILES: [&str; 4] = [
    "snap-00000000000000000005.fks",
    "snap-00000000000000000009.fks",
    "wal-00000000000000000005.fkl",
    "wal-00000000000000000009.fkl",
];

/// A fresh copy of the fixture: opening a store may repair files in place.
fn fixture_copy(name: &str) -> PathBuf {
    let dir = scratch(name);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in files(&fixture_dir()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

/// Open the store in `dir` and check it recovers the fixture's state.
fn assert_recovers_the_fixture(dir: &Path) {
    let (store, recovered) = DurableStore::open(FsBackend::open(dir).unwrap()).unwrap();
    assert_eq!(recovered.snapshot, Some(snapshot(1)));
    assert_eq!(recovered.snapshot_seq, 9);
    assert_eq!(recovered.entries, (9..12).map(entry).collect::<Vec<_>>());
    assert_eq!(recovered.truncated_tail, None);
    assert!(recovered.skipped_snapshots.is_empty() && recovered.skipped_segments.is_empty());
    assert_eq!((store.snapshot_seq(), store.next_seq()), (9, 12));
}

#[test]
fn committed_state_dir_recovers_its_newest_snapshot_and_suffix() {
    let names: Vec<String> = files(&fixture_dir()).into_iter().map(|f| f.0).collect();
    assert_eq!(names, FILES);
    let dir = fixture_copy("fixture_open");
    assert_recovers_the_fixture(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-snapshot or mid-repair leaves the temp file of the write;
/// the next open removes the store's own and leaves other names alone.
#[test]
fn open_removes_the_temp_files_a_crash_orphaned() {
    let dir = fixture_copy("fixture_orphans");
    let fixture = files(&fixture_dir());
    let (snap, wal) = (&fixture[1].1, &fixture[3].1);
    let mut unsealed = snap[..snap.len() / 2].to_vec();
    unsealed[16..24].fill(0);
    let orphans = [
        (".snap-00000000000000000012.fks.tmp", unsealed),
        (
            ".wal-00000000000000000009.fkl.tmp",
            wal[..wal.len() - 5].to_vec(),
        ),
    ];
    let foreign = [".notes.tmp", ".snap-latest.fks.tmp", "scratch.tmp"];
    for (name, bytes) in &orphans {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    for name in foreign {
        std::fs::write(dir.join(name), b"not the store's").unwrap();
    }
    assert_recovers_the_fixture(&dir);
    let mut left: Vec<String> = files(&dir).into_iter().map(|f| f.0).collect();
    left.retain(|name| !FILES.contains(&name.as_str()));
    assert_eq!(left, foreign);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_state_dir_verifies_every_file_ok() {
    let report = DurableStore::verify(&FsBackend::open(fixture_dir()).unwrap()).unwrap();
    let checks: Vec<(&str, u64, &str)> = report
        .checks
        .iter()
        .map(|c| (c.file.as_str(), c.records, c.detail.as_str()))
        .collect();
    let records = [1, 1, 4, 3];
    let expected: Vec<(&str, u64, &str)> = FILES
        .iter()
        .zip(records)
        .map(|(&f, r)| (f, r, "ok"))
        .collect();
    assert_eq!(checks, expected);
    assert!(report.all_ok());
    assert_eq!(report.base_seq, Some(9));
    assert_eq!((report.replay_from, report.recoverable_to), (9, 12));
    assert_eq!(report.torn_tail, None);
}

#[test]
fn todays_store_writes_the_committed_bytes() {
    let dir = scratch("fixture_rewrite");
    write_script(&dir);
    assert!(files(&dir) == files(&fixture_dir()), "on-disk bytes moved");
    std::fs::remove_dir_all(&dir).unwrap();
}
