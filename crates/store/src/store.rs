//! [`DurableStore`]: checksummed snapshots plus a segmented write-ahead
//! log over any [`StorageBackend`].
//!
//! ## On-disk layout
//!
//! - `snap-<seq:020>.fks` — one atomic snapshot file: `FKSNAP1\0` magic,
//!   the covered sequence number, one CRC-framed record holding the
//!   caller's snapshot payload. A snapshot at sequence `S` captures the
//!   effect of entries `[0, S)`.
//! - `wal-<first:020>.fkl` — one log segment: `FKWAL1\0\0` magic, the
//!   sequence number of its first entry, then one CRC-framed record per
//!   entry. Entry sequence numbers are implicit (`first + index`).
//!   Segments roll at every snapshot, so segment boundaries always align
//!   with snapshot coverage. A roll whose header fails to land is redone
//!   by the next [`append`](DurableStore::append), or that append fails:
//!   no entry is acked into a segment a durable snapshot shadows.
//!
//! ## Fsync discipline
//!
//! [`append`](DurableStore::append) stages bytes; nothing is durable until
//! [`sync`](DurableStore::sync) returns. Callers that externalize effects
//! (broadcasting a log entry, acknowledging a client) must sync first —
//! the recovery contract is only "durable log ⊇ externalized effects" if
//! they do. Snapshots are durable on return (on the filesystem backend:
//! temp file + data sync, with the checksum computed alongside, + frame
//! head + fsync + rename + parent-directory fsync). A snapshot syncs the
//! log first only if something was appended since the last sync.
//!
//! ## Recovery
//!
//! [`open`](DurableStore::open) picks the newest snapshot that passes its
//! checksum (falling back to older snapshots, then to empty-state replay
//! from sequence 0 if none ever existed), replays the contiguous log
//! suffix from there, truncates a torn tail on the *final* segment (the
//! signature of a crash mid-append), and surfaces every other corruption
//! mode as a typed [`StoreError`]. Two snapshots are retained, so one
//! corrupt snapshot never strands the store.

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::frame::{
    put_header, put_record, put_unsealed, read_header, read_records, Tail, HEADER_LEN, SNAP_MAGIC,
    WAL_MAGIC,
};

/// Number of most-recent snapshots [`DurableStore::snapshot`] retains;
/// log segments are pruned only once no retained snapshot needs them.
pub const RETAINED_SNAPSHOTS: usize = 2;

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:020}.fks")
}

fn wal_name(first: u64) -> String {
    format!("wal-{first:020}.fkl")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse::<u64>()
        .ok()
}

/// Whether `name` is one of the store's snapshot or segment names.
fn is_ours(name: &str) -> bool {
    parse_name(name, "snap-", ".fks").is_some() || parse_name(name, "wal-", ".fkl").is_some()
}

/// What [`DurableStore::open`] reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Payload of the snapshot the recovery is based on; `None` means no
    /// snapshot was ever written and the caller starts from empty state.
    pub snapshot: Option<Vec<u8>>,
    /// Sequence the base snapshot covers (0 without a snapshot): replay
    /// starts here.
    pub snapshot_seq: u64,
    /// Log entry payloads `snapshot_seq..snapshot_seq + entries.len()`,
    /// in order, to replay on top of the snapshot.
    pub entries: Vec<Vec<u8>>,
    /// Byte offset the final segment was truncated to, when a torn tail
    /// (crash mid-append) was repaired.
    pub truncated_tail: Option<u64>,
    /// Corrupt snapshot files that were skipped in favor of an older base
    /// — recovery succeeded, but an operator should know.
    pub skipped_snapshots: Vec<String>,
    /// Defective log segments lying wholly below the recovery base —
    /// every entry they cover is already captured by the base snapshot,
    /// so recovery proceeds without them, but an operator should know.
    pub skipped_segments: Vec<String>,
}

/// Per-file outcome of [`DurableStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCheck {
    /// File name.
    pub file: String,
    /// Complete, checksum-valid records in the file.
    pub records: u64,
    /// Whether the whole file verified clean.
    pub ok: bool,
    /// Human-readable status (`"ok"`, or what is wrong).
    pub detail: String,
}

/// Read-only integrity report over every snapshot and segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// One entry per recognized file, sorted by name.
    pub checks: Vec<FileCheck>,
    /// Sequence of the newest snapshot that verifies (`None` = recovery
    /// would replay from sequence 0 without a snapshot).
    pub base_seq: Option<u64>,
    /// First sequence replay would start at.
    pub replay_from: u64,
    /// One past the last entry recovery can reach from the base — the
    /// recoverable log prefix is `[replay_from, recoverable_to)`.
    pub recoverable_to: u64,
    /// Torn-tail byte offset in the final segment, if one would be
    /// truncated on open.
    pub torn_tail: Option<u64>,
}

impl VerifyReport {
    /// Whether every file verified clean end to end.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

#[derive(Debug)]
struct Segment {
    name: String,
    first: u64,
    payloads: Vec<Vec<u8>>,
    /// Parse problem (bad header, torn tail, checksum mismatch) whose
    /// classification is deferred until the recovery base is known: it is
    /// fatal only if the segment intersects the replay range.
    defect: Option<StoreError>,
}

/// Snapshots + write-ahead log over a [`StorageBackend`]. See the
/// crate docs for the format and the recovery algorithm.
#[derive(Debug)]
pub struct DurableStore<B: StorageBackend> {
    backend: B,
    /// Sequence number the next appended entry receives.
    next_seq: u64,
    /// Name of the open (final) log segment.
    segment: String,
    /// Whether `segment` is a fresh segment whose header a failed roll
    /// may have left unwritten or torn. The snapshot that shadows the old
    /// segment is already durable, so no entry may be acked into that
    /// one: [`append`](Self::append) writes this header first.
    roll_pending: bool,
    /// Sequence covered by the newest durable snapshot.
    snapshot_seq: u64,
    /// Whether anything may have been appended since the last successful
    /// [`sync`](Self::sync). Set on open too: recovered bytes may have
    /// been read back from the page cache of a process that never synced.
    unsynced: bool,
    /// Reused by every snapshot, so its allocation is made once.
    frame: Vec<u8>,
}

impl<B: StorageBackend> DurableStore<B> {
    /// Open the store, running recovery: returns the store positioned for
    /// new appends plus everything the caller must replay.
    pub fn open(mut backend: B) -> Result<(Self, Recovered), StoreError> {
        // A crash mid-snapshot, or mid-repair below, orphans a temp file.
        backend.remove_orphans(&is_ours)?;
        let names = backend.list()?;
        let mut snap_names: Vec<(u64, String)> = Vec::new();
        let mut seg_names: Vec<(u64, String)> = Vec::new();
        for name in names {
            if let Some(seq) = parse_name(&name, "snap-", ".fks") {
                snap_names.push((seq, name));
            } else if let Some(first) = parse_name(&name, "wal-", ".fkl") {
                seg_names.push((first, name));
            }
            // Unrecognized names are left alone — they are not ours.
        }
        snap_names.sort();
        seg_names.sort();

        // Parse every segment; only the final one may end torn. The
        // final segment is the open one (future appends extend it), so
        // its defects are fatal immediately; a non-final segment's
        // defect is *deferred* — it only matters if the segment
        // intersects the replay range, which is unknown until the base
        // snapshot is chosen below.
        let mut segments = Vec::with_capacity(seg_names.len());
        let last_idx = seg_names.len().saturating_sub(1);
        let mut truncated_tail = None;
        for (idx, (first, name)) in seg_names.iter().enumerate() {
            let bytes = backend.read(name)?.unwrap_or_default();
            let is_last = idx == last_idx;
            if bytes.len() < HEADER_LEN {
                if is_last {
                    // A crash tore the header append of a fresh segment:
                    // it holds no entries; rewrite it whole.
                    let mut buf = Vec::new();
                    put_header(&mut buf, WAL_MAGIC, *first);
                    backend.write_atomic(name, &buf)?;
                    truncated_tail = Some(bytes.len() as u64);
                    segments.push(Segment {
                        name: name.clone(),
                        first: *first,
                        payloads: Vec::new(),
                        defect: None,
                    });
                    continue;
                }
                segments.push(Segment {
                    name: name.clone(),
                    first: *first,
                    payloads: Vec::new(),
                    defect: Some(StoreError::TruncatedRecord {
                        file: name.clone(),
                        offset: bytes.len() as u64,
                    }),
                });
                continue;
            }
            let mut defect = None;
            match read_header(&bytes, WAL_MAGIC) {
                None => {
                    let err = StoreError::BadMagic { file: name.clone() };
                    if is_last {
                        return Err(err);
                    }
                    segments.push(Segment {
                        name: name.clone(),
                        first: *first,
                        payloads: Vec::new(),
                        defect: Some(err),
                    });
                    continue;
                }
                Some(header_seq) if header_seq != *first => {
                    let err = StoreError::Corrupt {
                        file: name.clone(),
                        detail: format!(
                            "header sequence {header_seq} disagrees with file name ({first})"
                        ),
                    };
                    if is_last {
                        return Err(err);
                    }
                    defect = Some(err);
                }
                Some(_) => {}
            }
            let (records, tail) = read_records(&bytes);
            match tail {
                Tail::Clean => {}
                Tail::Torn { offset } if is_last => {
                    // Crash mid-append: truncate the torn bytes on disk so
                    // future appends extend a clean frame boundary.
                    backend.write_atomic(name, &bytes[..offset as usize])?;
                    truncated_tail = Some(offset);
                }
                Tail::Torn { offset } => {
                    defect.get_or_insert(StoreError::TruncatedRecord {
                        file: name.clone(),
                        offset,
                    });
                }
                Tail::Corrupt { offset } => {
                    let err = StoreError::ChecksumMismatch {
                        file: name.clone(),
                        offset,
                    };
                    if is_last {
                        return Err(err);
                    }
                    defect.get_or_insert(err);
                }
            }
            segments.push(Segment {
                name: name.clone(),
                first: *first,
                payloads: records.into_iter().map(<[u8]>::to_vec).collect(),
                defect,
            });
        }

        // Newest snapshot that verifies wins; corrupt ones are skipped
        // (write_atomic never leaves a half-snapshot, so a bad one is
        // real corruption, worth reporting upward).
        let mut skipped_snapshots = Vec::new();
        let mut base: Option<(u64, Vec<u8>)> = None;
        for (seq, name) in snap_names.iter().rev() {
            match Self::read_snapshot(&backend, *seq, name) {
                Ok(payload) => {
                    base = Some((*seq, payload));
                    break;
                }
                Err(err) => skipped_snapshots.push(format!("{name}: {err}")),
            }
        }
        if base.is_none() && !snap_names.is_empty() && segments.first().is_none_or(|s| s.first > 0)
        {
            return Err(StoreError::NoRecoveryBase {
                detail: skipped_snapshots.join("; "),
            });
        }
        let (snapshot_seq, snapshot) = match base {
            Some((seq, payload)) => (seq, Some(payload)),
            None => (0, None),
        };

        // Collect the replay suffix: entries with sequence >= snapshot_seq.
        // A segment wholly below the base (its *nominal* coverage — up to
        // the next segment's first sequence — ends at or before the base)
        // carries only entries the snapshot already captures: its health
        // does not gate recovery, matching [`Self::verify`]'s recoverable
        // verdict. Defects there are reported, not fatal. From the base
        // onward, segments must be defect-free and tile contiguously.
        let mut entries = Vec::new();
        let mut skipped_segments = Vec::new();
        let mut expected_next: Option<u64> = None;
        for (idx, seg) in segments.iter().enumerate() {
            let nominal_end = match segments.get(idx + 1) {
                Some(next) => next.first,
                None => seg.first + seg.payloads.len() as u64,
            };
            if nominal_end <= snapshot_seq {
                if let Some(defect) = &seg.defect {
                    skipped_segments.push(format!("{}: {defect}", seg.name));
                }
                continue;
            }
            if let Some(defect) = &seg.defect {
                return Err(defect.clone());
            }
            match expected_next {
                None => {
                    if seg.first > snapshot_seq {
                        return Err(StoreError::LogGap {
                            expected: snapshot_seq,
                            found: seg.first,
                        });
                    }
                }
                Some(expected) => {
                    if seg.first != expected {
                        return Err(StoreError::LogGap {
                            expected,
                            found: seg.first,
                        });
                    }
                }
            }
            expected_next = Some(seg.first + seg.payloads.len() as u64);
            let skip = snapshot_seq.saturating_sub(seg.first) as usize;
            entries.extend(seg.payloads.iter().skip(skip).cloned());
        }
        let log_end = segments
            .last()
            .map_or(0, |s| s.first + s.payloads.len() as u64);
        let next_seq = log_end.max(snapshot_seq);

        // Position the open segment (creating one on first open, or when
        // a crash landed between a snapshot and its fresh segment).
        let segment = match segments.last() {
            Some(seg) => seg.name.clone(),
            None => {
                let name = wal_name(next_seq);
                let mut buf = Vec::new();
                put_header(&mut buf, WAL_MAGIC, next_seq);
                backend.append(&name, &buf)?;
                backend.sync(&name)?;
                name
            }
        };

        let store = Self {
            backend,
            next_seq,
            segment,
            roll_pending: false,
            snapshot_seq,
            unsynced: true,
            frame: Vec::new(),
        };
        let recovered = Recovered {
            snapshot,
            snapshot_seq,
            entries,
            truncated_tail,
            skipped_snapshots,
            skipped_segments,
        };
        Ok((store, recovered))
    }

    fn read_snapshot(backend: &B, seq: u64, name: &str) -> Result<Vec<u8>, StoreError> {
        let bytes = backend.read(name)?.ok_or_else(|| StoreError::Corrupt {
            file: name.to_string(),
            detail: "listed but unreadable".into(),
        })?;
        let header_seq = read_header(&bytes, SNAP_MAGIC).ok_or_else(|| StoreError::BadMagic {
            file: name.to_string(),
        })?;
        if header_seq != seq {
            return Err(StoreError::Corrupt {
                file: name.to_string(),
                detail: format!("header sequence {header_seq} disagrees with file name ({seq})"),
            });
        }
        let (records, tail) = read_records(&bytes);
        match tail {
            Tail::Clean => {}
            Tail::Torn { offset } => {
                return Err(StoreError::TruncatedRecord {
                    file: name.to_string(),
                    offset,
                })
            }
            Tail::Corrupt { offset } => {
                return Err(StoreError::ChecksumMismatch {
                    file: name.to_string(),
                    offset,
                })
            }
        }
        if records.len() != 1 {
            return Err(StoreError::Corrupt {
                file: name.to_string(),
                detail: format!("expected exactly 1 record, found {}", records.len()),
            });
        }
        Ok(records[0].to_vec())
    }

    /// Stage one log entry; returns its sequence number. **Not durable
    /// until [`sync`](Self::sync)** — callers must sync before letting
    /// any effect of this entry escape the process.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if self.roll_pending {
            // Nothing was appended since the roll began, so the fresh
            // segment starts at `next_seq`. A whole-file write also
            // repairs a torn header.
            let mut header = Vec::new();
            put_header(&mut header, WAL_MAGIC, self.next_seq);
            self.backend.write_atomic(&self.segment, &header)?;
            self.roll_pending = false;
        }
        let mut buf = Vec::with_capacity(payload.len() + 8);
        put_record(&mut buf, payload);
        self.unsynced = true;
        self.backend.append(&self.segment, &buf)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Make every staged append durable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.backend.sync(&self.segment)?;
        self.unsynced = false;
        Ok(())
    }

    /// Durably write a snapshot covering every entry appended so far,
    /// roll the log to a fresh segment, and prune snapshots/segments no
    /// retained snapshot needs. Returns the covered sequence.
    pub fn snapshot(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.snapshot_with(|buf| buf.extend_from_slice(payload))
    }

    /// [`Self::snapshot`] with the payload appended by `write` straight
    /// into the file's buffer, which the store keeps: no snapshot-sized
    /// allocation or copy per snapshot. The backend seals the frame
    /// ([`StorageBackend::write_sealed`]).
    pub fn snapshot_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<u64, StoreError> {
        // Seal the staged suffix first: the snapshot claims to cover it.
        if self.unsynced {
            self.sync()?;
        }
        let seq = self.next_seq;
        self.frame.clear();
        put_unsealed(&mut self.frame, SNAP_MAGIC, seq);
        write(&mut self.frame);
        self.backend
            .write_sealed(&snap_name(seq), &mut self.frame)?;
        self.snapshot_seq = seq;
        let fresh = wal_name(seq);
        // When no entry has been appended since the segment was created,
        // the "fresh" segment IS the open one (same first sequence) — its
        // header is already on disk, and appending another would corrupt
        // the record stream.
        if fresh != self.segment {
            // Recovery now bases on this snapshot and counts the old
            // segment as wholly below it, so every later entry must go to
            // the fresh segment, even if its header fails to land here.
            self.segment = fresh;
            self.roll_pending = true;
            let mut header = Vec::new();
            put_header(&mut header, WAL_MAGIC, seq);
            self.backend.append(&self.segment, &header)?;
            self.backend.sync(&self.segment)?;
            self.roll_pending = false;
        }
        self.prune()?;
        Ok(seq)
    }

    /// Drop snapshots beyond the [`RETAINED_SNAPSHOTS`] newest and every
    /// log segment whose entries all precede the oldest retained one.
    fn prune(&mut self) -> Result<(), StoreError> {
        let names = self.backend.list()?;
        let mut snaps: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "snap-", ".fks").map(|s| (s, n.clone())))
            .collect();
        snaps.sort();
        if snaps.len() > RETAINED_SNAPSHOTS {
            let cutoff = snaps.len() - RETAINED_SNAPSHOTS;
            for (_, name) in snaps.drain(..cutoff) {
                self.backend.remove(&name)?;
            }
        }
        // Segments may only be dropped once a *second* snapshot can serve
        // as fallback — a single (possibly corrupt) snapshot must never be
        // the sole recovery base while the full log still exists.
        let retain_from = if snaps.len() >= 2 { snaps[0].0 } else { 0 };
        let mut segs: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "wal-", ".fkl").map(|s| (s, n.clone())))
            .collect();
        segs.sort();
        // Segment i covers [first_i, first_{i+1}); prunable when wholly
        // below the oldest retained snapshot. The open segment never is.
        for pair in segs.windows(2) {
            if pair[1].0 <= retain_from && pair[0].1 != self.segment {
                self.backend.remove(&pair[0].1)?;
            }
        }
        Ok(())
    }

    /// Sequence number the next [`append`](Self::append) will get (also
    /// the total entries ever appended).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence covered by the newest durable snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// The backing storage.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Check every checksum without mutating anything, and compute the
    /// recoverable log prefix — what [`open`](Self::open) would replay.
    /// Corruption is *reported*, never returned as `Err` (only real I/O
    /// failures are).
    pub fn verify(backend: &B) -> Result<VerifyReport, StoreError> {
        let names = backend.list()?;
        let mut checks = Vec::new();
        let mut snaps: Vec<(u64, bool)> = Vec::new();
        let mut segs: Vec<(u64, u64, Tail, bool)> = Vec::new();
        for name in &names {
            if let Some(seq) = parse_name(name, "snap-", ".fks") {
                let (ok, records, detail) = match Self::read_snapshot(backend, seq, name) {
                    Ok(_) => (true, 1, "ok".to_string()),
                    Err(e) => (false, 0, e.to_string()),
                };
                snaps.push((seq, ok));
                checks.push(FileCheck {
                    file: name.clone(),
                    records,
                    ok,
                    detail,
                });
            } else if let Some(first) = parse_name(name, "wal-", ".fkl") {
                let bytes = backend.read(name)?.unwrap_or_default();
                let header_ok = read_header(&bytes, WAL_MAGIC) == Some(first);
                let (records, tail) = read_records(&bytes);
                let n_records = if header_ok { records.len() as u64 } else { 0 };
                let ok = header_ok && tail == Tail::Clean;
                let detail = if !header_ok {
                    "bad or torn header".to_string()
                } else {
                    match tail {
                        Tail::Clean => "ok".to_string(),
                        Tail::Torn { offset } => format!("torn tail at byte {offset}"),
                        Tail::Corrupt { offset } => format!("checksum mismatch at byte {offset}"),
                    }
                };
                segs.push((first, n_records, tail, header_ok));
                checks.push(FileCheck {
                    file: name.clone(),
                    records: n_records,
                    ok,
                    detail,
                });
            }
        }
        snaps.sort();
        segs.sort_by_key(|(first, ..)| *first);
        let base_seq = snaps.iter().rev().find(|(_, ok)| *ok).map(|(s, _)| *s);
        let replay_from = base_seq.unwrap_or(0);
        // Walk the contiguous, intact prefix of the log from the base.
        // Segments wholly below the base are irrelevant — their health
        // does not gate recovery.
        let mut recoverable_to = replay_from;
        let mut torn_tail = None;
        let last = segs.len().saturating_sub(1);
        for (idx, &(first, n_records, tail, header_ok)) in segs.iter().enumerate() {
            // Nominal coverage ends where the next segment starts; a
            // segment wholly below the base never gates recovery, even
            // defective — exactly [`Self::open`]'s rule.
            let nominal_end = match segs.get(idx + 1) {
                Some(&(next_first, ..)) => next_first,
                None => first + n_records,
            };
            if nominal_end <= replay_from {
                continue;
            }
            if first > recoverable_to || !header_ok {
                break; // gap, or an unparsable segment in the replay range
            }
            recoverable_to = recoverable_to.max(first + n_records);
            match tail {
                Tail::Clean => {}
                Tail::Torn { offset } if idx == last => {
                    // Recoverable: open() truncates this tail.
                    torn_tail = Some(offset);
                }
                _ => break, // mid-log corruption stops replay here
            }
        }
        Ok(VerifyReport {
            checks,
            base_seq,
            replay_from,
            recoverable_to,
            torn_tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BitFlip, FaultPlan, MemBackend, TornWrite};

    fn entry(i: u64) -> Vec<u8> {
        format!("entry-{i}").into_bytes()
    }

    #[test]
    fn fresh_store_replays_nothing_and_round_trips() {
        let (mut store, rec) = DurableStore::open(MemBackend::new()).unwrap();
        assert_eq!(rec.snapshot, None);
        assert!(rec.entries.is_empty());
        for i in 0..5 {
            assert_eq!(store.append(&entry(i)).unwrap(), i);
        }
        store.sync().unwrap();
        let backend = store.backend;
        let (_, rec) = DurableStore::open(backend).unwrap();
        assert_eq!(rec.snapshot_seq, 0);
        assert_eq!(rec.entries, (0..5).map(entry).collect::<Vec<_>>());
        assert_eq!(rec.truncated_tail, None);
    }

    #[test]
    fn snapshot_becomes_the_recovery_base_and_rolls_the_segment() {
        let (mut store, _) = DurableStore::open(MemBackend::new()).unwrap();
        for i in 0..3 {
            store.append(&entry(i)).unwrap();
        }
        assert_eq!(store.snapshot(b"state@3").unwrap(), 3);
        for i in 3..6 {
            store.append(&entry(i)).unwrap();
        }
        store.sync().unwrap();
        let (_, rec) = DurableStore::open(store.backend).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@3"[..]));
        assert_eq!(rec.snapshot_seq, 3);
        assert_eq!(rec.entries, (3..6).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_before_any_append_leaves_the_open_segment_intact() {
        // Snapshotting at the very start of a segment must not append a
        // second header into the same file: the duplicate would be parsed
        // as a torn frame and recovery would truncate valid entries after
        // it. This is exactly the bootstrap path (open, snapshot, append).
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(store.snapshot(b"boot").unwrap(), 0);
        store.append(&entry(0)).unwrap();
        store.sync().unwrap();
        disk.crash();
        let (_, rec) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"boot"[..]));
        assert_eq!(rec.snapshot_seq, 0);
        assert_eq!(rec.entries, vec![entry(0)]);
        assert_eq!(rec.truncated_tail, None, "no header duplication");
    }

    #[test]
    fn unsynced_suffix_is_lost_cleanly_on_crash() {
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.sync().unwrap();
        store.append(&entry(1)).unwrap(); // never synced
        disk.crash();
        let (store2, rec) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(rec.entries, vec![entry(0)]);
        assert_eq!(store2.next_seq(), 1);
    }

    #[test]
    fn torn_append_truncates_to_the_synced_prefix() {
        // Op 1 creates the segment header; op 2 is entry-0's append; tear
        // op 3 (entry-1) after 3 bytes.
        let disk = crate::backend::SharedMemBackend::new();
        disk.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 3, keep: 3 }),
            flips: Vec::new(),
        });
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.sync().unwrap();
        assert_eq!(store.append(&entry(1)), Err(StoreError::Crashed));
        disk.crash();
        let (_, rec) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(rec.entries, vec![entry(0)], "torn entry must vanish");
    }

    #[test]
    fn torn_tail_that_survived_a_sync_is_truncated_and_reported() {
        // Simulate a tear whose prefix DID reach the platter: sync after
        // the torn bytes land by writing them directly.
        let mut backend = MemBackend::new();
        let mut buf = Vec::new();
        put_header(&mut buf, WAL_MAGIC, 0);
        put_record(&mut buf, &entry(0));
        buf.extend_from_slice(&[9, 0, 0, 0]); // half a frame header
        backend.write_atomic(&wal_name(0), &buf).unwrap();
        let (store, rec) = DurableStore::open(backend).unwrap();
        assert_eq!(rec.entries, vec![entry(0)]);
        assert!(rec.truncated_tail.is_some());
        // The truncation is durable: reopening is clean.
        let (_, rec2) = DurableStore::open(store.backend).unwrap();
        assert_eq!(rec2.truncated_tail, None);
        assert_eq!(rec2.entries, vec![entry(0)]);
    }

    #[test]
    fn bit_flip_in_the_log_is_a_typed_checksum_error() {
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.append(&entry(1)).unwrap();
        store.sync().unwrap();
        disk.set_faults(FaultPlan {
            torn: None,
            flips: vec![BitFlip {
                file: wal_name(0),
                offset: (HEADER_LEN + 8 + entry(0).len() + 8) + 2,
                bit: 4,
            }],
        });
        disk.crash();
        match DurableStore::open(disk.clone()) {
            Err(StoreError::ChecksumMismatch { file, .. }) => {
                assert_eq!(file, wal_name(0));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let report = DurableStore::verify(&disk).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.recoverable_to, 1, "entry-0 is still recoverable");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_the_older_one() {
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.snapshot(b"state@1").unwrap();
        store.append(&entry(1)).unwrap();
        store.snapshot(b"state@2").unwrap();
        store.append(&entry(2)).unwrap();
        store.sync().unwrap();
        // Flip a bit inside the newest snapshot's payload.
        disk.set_faults(FaultPlan {
            torn: None,
            flips: vec![BitFlip {
                file: snap_name(2),
                offset: HEADER_LEN + 8 + 3,
                bit: 1,
            }],
        });
        disk.crash();
        let (_, rec) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@1"[..]));
        assert_eq!(rec.snapshot_seq, 1);
        assert_eq!(rec.entries, vec![entry(1), entry(2)]);
        assert_eq!(rec.skipped_snapshots.len(), 1);
    }

    #[test]
    fn pruning_keeps_exactly_the_coverage_recovery_needs() {
        let (mut store, _) = DurableStore::open(MemBackend::new()).unwrap();
        for round in 0u64..5 {
            store.append(&entry(round)).unwrap();
            store
                .snapshot(format!("state@{}", round + 1).as_bytes())
                .unwrap();
        }
        let names = store.backend.list().unwrap();
        let snaps: Vec<_> = names.iter().filter(|n| n.starts_with("snap-")).collect();
        assert_eq!(snaps.len(), RETAINED_SNAPSHOTS, "old snapshots pruned");
        // Recovery still works from the older retained snapshot: corrupt
        // the newest via a fresh handle is covered elsewhere; here just
        // confirm open() sees the newest.
        let (_, rec) = DurableStore::open(store.backend).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@5"[..]));
        assert!(rec.entries.is_empty());
    }

    #[test]
    fn defective_segment_below_the_recovery_base_does_not_block_open() {
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.snapshot(b"state@1").unwrap();
        store.append(&entry(1)).unwrap();
        store.snapshot(b"state@2").unwrap();
        store.append(&entry(2)).unwrap();
        store.sync().unwrap();
        drop(store);

        // Corrupt wal-1, which covers exactly [1, 2) — wholly below the
        // newest snapshot (seq 2) and retained only as fallback coverage.
        disk.set_faults(FaultPlan {
            torn: None,
            flips: vec![BitFlip {
                file: wal_name(1),
                offset: HEADER_LEN + 8 + 2,
                bit: 3,
            }],
        });
        disk.crash();

        // verify: the defect is reported, but it does not gate recovery.
        let report = DurableStore::verify(&disk).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.base_seq, Some(2));
        assert_eq!(
            report.recoverable_to, 3,
            "a defect wholly below the base must not shorten the prefix"
        );

        // open agrees with verify's recoverable verdict.
        let (_, rec) = DurableStore::open(disk.clone()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@2"[..]));
        assert_eq!(rec.snapshot_seq, 2);
        assert_eq!(rec.entries, vec![entry(2)]);
        assert_eq!(rec.skipped_segments.len(), 1, "{:?}", rec.skipped_segments);
        assert!(rec.skipped_segments[0].starts_with(&wal_name(1)));
    }

    #[test]
    fn corrupt_segment_in_the_replay_range_still_fails_open() {
        let disk = crate::backend::SharedMemBackend::new();
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&entry(0)).unwrap();
        store.snapshot(b"state@1").unwrap();
        store.append(&entry(1)).unwrap();
        store.snapshot(b"state@2").unwrap();
        store.append(&entry(2)).unwrap();
        store.sync().unwrap();
        drop(store);

        // Corrupt wal-1 AND the newest snapshot: recovery falls back to
        // snap-1, which needs wal-1 — now the defect is in the replay
        // range and must surface as a typed error.
        disk.set_faults(FaultPlan {
            torn: None,
            flips: vec![
                BitFlip {
                    file: wal_name(1),
                    offset: HEADER_LEN + 8 + 2,
                    bit: 3,
                },
                BitFlip {
                    file: snap_name(2),
                    offset: HEADER_LEN + 8 + 3,
                    bit: 1,
                },
            ],
        });
        disk.crash();
        match DurableStore::open(disk.clone()) {
            Err(StoreError::ChecksumMismatch { file, .. }) => assert_eq!(file, wal_name(1)),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_reports_clean_stores_clean() {
        let (mut store, _) = DurableStore::open(MemBackend::new()).unwrap();
        store.append(&entry(0)).unwrap();
        store.snapshot(b"s").unwrap();
        store.append(&entry(1)).unwrap();
        store.sync().unwrap();
        let report = DurableStore::verify(&store.backend).unwrap();
        assert!(report.all_ok(), "{report:?}");
        assert_eq!(report.base_seq, Some(1));
        assert_eq!(report.replay_from, 1);
        assert_eq!(report.recoverable_to, 2);
        assert_eq!(report.torn_tail, None);
    }

    /// A [`MemBackend`] that records the name of every `sync`.
    #[derive(Debug, Default)]
    struct SyncLog(MemBackend, Vec<String>);

    impl StorageBackend for SyncLog {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
            self.0.read(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.write_atomic(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.1.push(name.to_string());
            self.0.sync(name)
        }
        fn list(&self) -> Result<Vec<String>, StoreError> {
            self.0.list()
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            self.0.remove(name)
        }
    }

    #[test]
    fn a_snapshot_syncs_the_log_only_when_an_append_is_unsynced() {
        let (mut store, _) = DurableStore::open(SyncLog::default()).unwrap();
        // Open syncs the fresh segment; on open the log counts as unsynced.
        store.snapshot(b"boot").unwrap();
        store.append(&entry(0)).unwrap();
        store.sync().unwrap();
        store.snapshot(b"state@1").unwrap();
        store.snapshot(b"state@1 again").unwrap();
        store.append(&entry(1)).unwrap();
        store.snapshot(b"state@2").unwrap();
        let synced = std::mem::take(&mut store.backend.1);
        let expected = [0, 0, 0, 1, 1, 2].map(wal_name);
        assert_eq!(synced, expected);
        let (_, rec) = DurableStore::open(store.backend).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@2"[..]));
    }

    /// A shared in-memory disk whose `sync` and `write_atomic` of one
    /// file fail the next `failures` times, without crashing the disk.
    #[derive(Debug)]
    struct FailOn {
        disk: crate::backend::SharedMemBackend,
        name: String,
        failures: usize,
    }

    impl FailOn {
        fn fail(&mut self, op: &'static str, name: &str) -> Result<(), StoreError> {
            if name != self.name || self.failures == 0 {
                return Ok(());
            }
            self.failures -= 1;
            let injected = std::io::Error::other("injected");
            Err(StoreError::io(op, name, injected))
        }
    }

    impl StorageBackend for FailOn {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
            self.disk.read(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.fail("write", name)?;
            self.disk.write_atomic(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.disk.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.fail("fsync", name)?;
            self.disk.sync(name)
        }
        fn list(&self) -> Result<Vec<String>, StoreError> {
            self.disk.list()
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            self.disk.remove(name)
        }
    }

    /// A store whose roll into `wal_name(1)` at the snapshot after one
    /// entry fails `failures` times; that snapshot itself is durable.
    fn store_with_a_failed_roll(
        failures: usize,
    ) -> (DurableStore<FailOn>, crate::backend::SharedMemBackend) {
        let disk = crate::backend::SharedMemBackend::new();
        let backend = FailOn {
            disk: disk.clone(),
            name: wal_name(1),
            failures,
        };
        let (mut store, _) = DurableStore::open(backend).unwrap();
        store.snapshot(b"boot").unwrap();
        store.append(&entry(0)).unwrap();
        store.sync().unwrap();
        assert!(store.snapshot(b"state@1").is_err(), "the roll fails");
        assert_eq!(store.snapshot_seq(), 1, "the snapshot is durable");
        (store, disk)
    }

    #[test]
    fn an_append_after_a_failed_roll_lands_in_the_fresh_segment() {
        let (mut store, disk) = store_with_a_failed_roll(1);
        assert_eq!(store.append(b"e1").unwrap(), 1);
        store.sync().unwrap();
        disk.crash();
        let (_, rec) = DurableStore::open(disk).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@1"[..]));
        assert_eq!(rec.snapshot_seq, 1);
        assert_eq!(
            rec.entries,
            vec![b"e1".to_vec()],
            "the acked entry is replayed"
        );
    }

    #[test]
    fn an_append_is_refused_while_the_roll_cannot_be_redone() {
        let (mut store, disk) = store_with_a_failed_roll(usize::MAX);
        for _ in 0..2 {
            assert!(store.append(b"e1").is_err());
        }
        assert_eq!(store.next_seq(), 1);
        disk.crash();
        let (_, rec) = DurableStore::open(disk).unwrap();
        assert_eq!(rec.snapshot_seq, 1);
        assert!(rec.entries.is_empty());
    }

    #[test]
    fn missing_coverage_is_a_typed_log_gap() {
        let (mut store, _) = DurableStore::open(MemBackend::new()).unwrap();
        for i in 0..3 {
            store.append(&entry(i)).unwrap();
        }
        store.snapshot(b"state@3").unwrap();
        store.append(&entry(3)).unwrap();
        store.sync().unwrap();
        let mut backend = store.backend;
        // Delete the snapshot AND the early segment: nothing covers 0..3.
        backend.remove(&snap_name(3)).unwrap();
        backend.remove(&wal_name(0)).unwrap();
        match DurableStore::open(backend) {
            Err(StoreError::LogGap { expected, found }) => {
                assert_eq!(expected, 0);
                assert_eq!(found, 3);
            }
            other => panic!("expected LogGap, got {other:?}"),
        }
    }
}
