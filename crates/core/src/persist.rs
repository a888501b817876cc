//! Crash-safe persistence: a [`Journal`] is the one durability wrapper
//! both streaming hosts run on — the single-node [`DurableStream`] (a
//! [`StreamingFairKm`] that journals each mutation's inputs as a
//! [`StreamOp`]) and the shard coordinator (which journals each committed
//! entry batch and then a bookkeeping record). Each host supplies its own
//! records and its own snapshot writer; the journal owns the store, the
//! snapshot cadence, the wedge and the deferred snapshot failure.
//!
//! ## Durability contract
//!
//! * **Journal before return.** [`Journal::append`] appends one record to
//!   the write-ahead log and **fsyncs it before returning**. A host
//!   appends every effect before it externalizes it, so whatever a caller
//!   saw is covered by the durable log: a crash loses at most operations
//!   whose results no caller ever saw.
//! * **Wedge on a failed append.** If appending or syncing fails, the
//!   host's memory is ahead of the durable log; the journal **wedges** and
//!   every later append and snapshot returns [`PersistError::Wedged`]
//!   rather than silently widening the gap. Reads still work; recovery is
//!   to reopen from disk.
//! * **A failed cadence snapshot defers.** [`Journal::seal`] marks one
//!   completed operation and, every `snapshot_every` operations, writes a
//!   snapshot. The operation is already durable in the WAL, so a failed
//!   snapshot does not wedge and must not read as a failed (retryable)
//!   operation: the host returns the result and the failure is stashed as
//!   [`PersistError::SnapshotAfterCommit`] for
//!   [`Journal::take_snapshot_failure`]. The snapshot is retried at the
//!   next operation.
//! * **Recovery.** [`Journal::open`] hands the host the newest verifying
//!   snapshot and the WAL suffix to replay, with one [`RecoveryReport`].
//!   Both hosts are bitwise-deterministic, so the recovered state
//!   reproduces the uninterrupted run exactly — assignments, objective,
//!   and trace compare equal down to the float bits.
//!
//! Snapshots serialize the engine's delta-maintained float aggregates
//! verbatim ([`StreamingFairKm::to_snapshot_bytes`]) — a
//! rebuild-from-assignment would re-sum in a different operation order and
//! land on different bits. Corruption anywhere (torn snapshot, flipped WAL
//! bit, truncated tail) surfaces as a typed error or a documented fallback
//! (older snapshot, torn-tail truncation) — never a panic, never silently
//! wrong bits.

use crate::config::FairKmError;
use crate::streaming::{EvictReport, IngestReport, StreamingConfig, StreamingFairKm};
use crate::wire::{self, Reader, WireError};
use fairkm_data::{wire_io, Value};
use fairkm_store::{DurableStore, StorageBackend, StoreError};

/// Error type of the durable streaming layer. Every failure mode is typed:
/// storage faults, corrupt encodings, model-level rejections, and the
/// wedged in-memory-ahead-of-log state.
#[derive(Debug)]
pub enum PersistError {
    /// The storage layer failed (I/O error, checksum mismatch, log gap…).
    Store(StoreError),
    /// A snapshot or journal entry failed to decode.
    Wire(WireError),
    /// The engine rejected the operation (validation failure); nothing was
    /// journaled and the in-memory state is unchanged.
    Model(FairKmError),
    /// The state directory holds no decodable snapshot to recover from.
    NoSnapshot,
    /// Replaying a durable journal entry failed — the entry decoded but the
    /// engine rejected it, which an uninterrupted run never did. This
    /// indicates corruption the checksums missed or a foreign log.
    Replay {
        /// Index of the failing entry within the replayed suffix.
        index: usize,
        /// The engine's rejection.
        source: FairKmError,
    },
    /// A previous journal append or sync failed, leaving the in-memory
    /// state ahead of the durable log. Mutations and snapshots are
    /// refused; reopen from disk to recover.
    Wedged,
    /// The operation **was durably journaled and applied** — only the
    /// cadence snapshot that followed failed. The operation must not be
    /// retried (it is committed; retrying would double-apply it). The
    /// journal is not wedged: the snapshot is retried at the next cadence
    /// point or explicitly via [`Journal::snapshot_now`]. Because the op
    /// committed, hosts return its result normally and the journal stashes
    /// this error for [`Journal::take_snapshot_failure`] instead of
    /// failing the call.
    SnapshotAfterCommit {
        /// Why the snapshot write failed.
        source: Box<PersistError>,
    },
    /// The state directory already holds data; [`Journal::create`]
    /// refuses to clobber it.
    StateDirNotEmpty,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "storage error: {e}"),
            PersistError::Wire(e) => write!(f, "corrupt persisted encoding: {e}"),
            PersistError::Model(e) => write!(f, "engine rejected operation: {e}"),
            PersistError::NoSnapshot => {
                write!(f, "no decodable snapshot in the state directory")
            }
            PersistError::Replay { index, source } => write!(
                f,
                "replaying durable journal entry {index} failed: {source}"
            ),
            PersistError::Wedged => write!(
                f,
                "stream is wedged: a journal write failed earlier, so the \
                 in-memory state is ahead of the durable log; reopen from disk"
            ),
            PersistError::StateDirNotEmpty => {
                write!(f, "state directory already holds a stream")
            }
            PersistError::SnapshotAfterCommit { source } => write!(
                f,
                "operation committed durably, but the snapshot after it \
                 failed (do not retry the operation): {source}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            PersistError::Wire(e) => Some(e),
            PersistError::Model(e) | PersistError::Replay { source: e, .. } => Some(e),
            PersistError::SnapshotAfterCommit { source } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Store(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Wire(e)
    }
}

impl From<FairKmError> for PersistError {
    fn from(e: FairKmError) -> Self {
        PersistError::Model(e)
    }
}

/// One journaled engine mutation. The WAL stores exactly the *inputs* of
/// each public mutating call; replaying them through the deterministic
/// engine reproduces every result bit.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// `ingest(rows)`.
    Ingest(Vec<Vec<Value>>),
    /// `evict(slots)`.
    Evict(Vec<usize>),
    /// `evict_oldest(count)`.
    EvictOldest(usize),
    /// Explicit `reoptimize()`.
    Reoptimize,
    /// `compact()`.
    Compact,
}

impl StreamOp {
    /// Serialize (tag byte + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            StreamOp::Ingest(rows) => {
                out.push(0);
                wire::put_usize(&mut out, rows.len());
                for row in rows {
                    wire_io::put_row(&mut out, row);
                }
            }
            StreamOp::Evict(slots) => {
                out.push(1);
                wire::put_usizes(&mut out, slots);
            }
            StreamOp::EvictOldest(count) => {
                out.push(2);
                wire::put_usize(&mut out, *count);
            }
            StreamOp::Reoptimize => out.push(3),
            StreamOp::Compact => out.push(4),
        }
        out
    }

    /// Decode an operation written by [`StreamOp::to_bytes`]; typed errors
    /// on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let op = match r.take(1)?[0] {
            0 => {
                // A row costs at least its 8-byte length prefix.
                let n = r.get_len(8)?;
                let rows = (0..n)
                    .map(|_| wire_io::get_row(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                StreamOp::Ingest(rows)
            }
            1 => StreamOp::Evict(r.get_usizes()?),
            2 => StreamOp::EvictOldest(r.get_usize()?),
            3 => StreamOp::Reoptimize,
            4 => StreamOp::Compact,
            t => {
                return Err(WireError::UnknownTag {
                    what: "stream op",
                    tag: t as u64,
                })
            }
        };
        r.expect_empty()?;
        Ok(op)
    }
}

/// What [`Journal::open`] recovered from: the base snapshot and the
/// journal suffix replayed over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// Byte offset at which a torn final-segment tail was truncated, if one
    /// was found (the crash artifact the WAL design expects).
    pub truncated_tail: Option<u64>,
    /// Snapshot files that failed verification and were skipped in favor of
    /// an older base. Non-empty means storage corrupted a snapshot.
    pub skipped_snapshots: Vec<String>,
    /// Defective WAL segments wholly below the recovery base, skipped
    /// because the base snapshot already covers their entries.
    pub skipped_segments: Vec<String>,
}

/// The durability wrapper of both streaming hosts: a [`DurableStore`],
/// the snapshot cadence, the wedge and the deferred snapshot failure. See
/// the [module docs](self) for the contract.
#[derive(Debug)]
pub struct Journal<B: StorageBackend> {
    store: DurableStore<B>,
    snapshot_every: Option<u64>,
    ops_since_snapshot: u64,
    wedge_cause: Option<String>,
    deferred_snapshot_failure: Option<PersistError>,
}

impl<B: StorageBackend> Journal<B> {
    fn new(store: DurableStore<B>, snapshot_every: Option<u64>, ops_since_snapshot: u64) -> Self {
        Self {
            store,
            snapshot_every,
            ops_since_snapshot,
            wedge_cause: None,
            deferred_snapshot_failure: None,
        }
    }

    /// A journal over an empty state directory. Refuses one that already
    /// holds data ([`PersistError::StateDirNotEmpty`]) — recovery goes
    /// through [`Self::open`], and clobbering is never implicit. The host
    /// writes its first snapshot with [`Self::snapshot_now`].
    ///
    /// `snapshot_every` bounds replay: after that many sealed operations a
    /// fresh snapshot is written and the WAL rolls. `None` journals
    /// forever (snapshot explicitly via [`Self::snapshot_now`]).
    pub fn create(backend: B, snapshot_every: Option<u64>) -> Result<Self, PersistError> {
        let (store, recovered) = DurableStore::open(backend)?;
        if recovered.snapshot.is_some() || !recovered.entries.is_empty() {
            return Err(PersistError::StateDirNotEmpty);
        }
        Ok(Self::new(store, snapshot_every, 0))
    }

    /// Reopen a state directory: the journal, the newest verifying
    /// snapshot, the journal records to replay over it in order, and what
    /// recovery did. [`PersistError::NoSnapshot`] when no snapshot decodes.
    #[allow(clippy::type_complexity)]
    pub fn open(
        backend: B,
        snapshot_every: Option<u64>,
    ) -> Result<(Self, Vec<u8>, Vec<Vec<u8>>, RecoveryReport), PersistError> {
        let (store, recovered) = DurableStore::open(backend)?;
        let snapshot = recovered.snapshot.ok_or(PersistError::NoSnapshot)?;
        let replayed = recovered.entries.len();
        let report = RecoveryReport {
            snapshot_seq: recovered.snapshot_seq,
            replayed,
            truncated_tail: recovered.truncated_tail,
            skipped_snapshots: recovered.skipped_snapshots,
            skipped_segments: recovered.skipped_segments,
        };
        let journal = Self::new(store, snapshot_every, replayed as u64);
        Ok((journal, snapshot, recovered.entries, report))
    }

    /// [`PersistError::Wedged`] once a journal write has failed.
    fn check_wedged(&self) -> Result<(), PersistError> {
        match self.wedge_cause {
            Some(_) => Err(PersistError::Wedged),
            None => Ok(()),
        }
    }

    /// Append one record and fsync it. Refused while wedged; a failure
    /// wedges the journal, and the host must externalize nothing of the
    /// effect the record describes.
    pub fn append(&mut self, record: &[u8]) -> Result<(), PersistError> {
        self.check_wedged()?;
        let written = self.store.append(record).and_then(|_| self.store.sync());
        if let Err(e) = written {
            self.wedge_cause = Some(e.to_string());
            return Err(e.into());
        }
        Ok(())
    }

    /// Mark one operation complete (its records are appended) and run the
    /// snapshot cadence with `write_snapshot`. A failed cadence snapshot is
    /// stashed as [`PersistError::SnapshotAfterCommit`], not returned: the
    /// operation is committed, and the cadence retries on the next one.
    pub fn seal(&mut self, write_snapshot: impl FnOnce(&mut Vec<u8>)) {
        self.ops_since_snapshot += 1;
        if self
            .snapshot_every
            .is_some_and(|every| self.ops_since_snapshot >= every)
        {
            if let Err(e) = self.snapshot_now(write_snapshot) {
                let source = Box::new(e);
                self.deferred_snapshot_failure = Some(PersistError::SnapshotAfterCommit { source });
            }
        }
    }

    /// Write a snapshot now (sealing the WAL suffix first), its payload
    /// appended in place by `write_snapshot`, and reset the cadence
    /// counter. Refused while wedged: the host's memory is ahead of its
    /// journal. Returns the snapshot's sequence number.
    pub fn snapshot_now(
        &mut self,
        write_snapshot: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, PersistError> {
        self.check_wedged()?;
        let seq = self.store.snapshot_with(write_snapshot)?;
        self.ops_since_snapshot = 0;
        Ok(seq)
    }

    /// Read access to the underlying store (sequence numbers, backend).
    pub fn store(&self) -> &DurableStore<B> {
        &self.store
    }

    /// The storage failure that wedged this journal, if any (see
    /// [`PersistError::Wedged`]) — what a serving layer reports alongside
    /// its degraded read-only mode.
    pub fn wedge_cause(&self) -> Option<&str> {
        self.wedge_cause.as_deref()
    }

    /// Take the stashed cadence-snapshot failure, if the last sealed
    /// operation's follow-up snapshot failed. The operation itself is
    /// durable (see [`PersistError::SnapshotAfterCommit`]); callers that
    /// care about snapshot lag check this after mutating and must not
    /// retry the operation.
    pub fn take_snapshot_failure(&mut self) -> Option<PersistError> {
        self.deferred_snapshot_failure.take()
    }
}

/// A [`StreamingFairKm`] with crash-safe durability: every mutation is
/// applied in memory, journaled as a [`StreamOp`] and sealed on a
/// [`Journal`] (see the [module docs](self)).
#[derive(Debug)]
pub struct DurableStream<B: StorageBackend> {
    stream: StreamingFairKm,
    journal: Journal<B>,
}

impl<B: StorageBackend> DurableStream<B> {
    /// Bootstrap a new durable stream: fit the initial corpus, then write
    /// the bootstrap snapshot. Refuses a state directory that already
    /// holds stream data ([`PersistError::StateDirNotEmpty`]).
    /// `snapshot_every` is the [`Journal::create`] cadence.
    pub fn create(
        backend: B,
        dataset: fairkm_data::Dataset,
        config: StreamingConfig,
        snapshot_every: Option<u64>,
    ) -> Result<Self, PersistError> {
        let mut journal = Journal::create(backend, snapshot_every)?;
        let stream = StreamingFairKm::bootstrap(dataset, config)?;
        journal.snapshot_now(|buf| stream.write_snapshot_bytes(buf))?;
        Ok(Self { stream, journal })
    }

    /// Recover a durable stream from its state directory: decode the newest
    /// verifying snapshot, replay the WAL suffix, and report what happened.
    /// `threads` is the restoring worker-pool request (`None` =
    /// environment/auto) — it never changes result bits.
    pub fn open(
        backend: B,
        threads: Option<usize>,
        snapshot_every: Option<u64>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (journal, snapshot, entries, report) = Journal::open(backend, snapshot_every)?;
        let mut stream = StreamingFairKm::from_snapshot_bytes(&snapshot, threads)?;
        for (index, entry) in entries.iter().enumerate() {
            let op = StreamOp::from_bytes(entry)?;
            Self::apply(&mut stream, &op)
                .map_err(|source| PersistError::Replay { index, source })?;
        }
        Ok((Self { stream, journal }, report))
    }

    /// Apply one operation to the engine — the single dispatch both live
    /// calls and recovery replay go through, so they cannot diverge.
    fn apply(stream: &mut StreamingFairKm, op: &StreamOp) -> Result<(), FairKmError> {
        match op {
            StreamOp::Ingest(rows) => {
                stream.ingest(rows)?;
            }
            StreamOp::Evict(slots) => {
                stream.evict(slots)?;
            }
            StreamOp::EvictOldest(count) => {
                stream.evict_oldest(*count)?;
            }
            StreamOp::Reoptimize => {
                stream.reoptimize();
            }
            StreamOp::Compact => {
                stream.compact()?;
            }
        }
        Ok(())
    }

    /// Run one mutation on the engine, then journal it as `op()` and seal
    /// it. A rejected mutation journals nothing; a wedged stream runs none.
    fn durably<R>(
        &mut self,
        run: impl FnOnce(&mut StreamingFairKm) -> Result<R, FairKmError>,
        op: impl FnOnce() -> StreamOp,
    ) -> Result<R, PersistError> {
        self.journal.check_wedged()?;
        let report = run(&mut self.stream)?;
        self.journal.append(&op().to_bytes())?;
        let stream = &self.stream;
        self.journal.seal(|buf| stream.write_snapshot_bytes(buf));
        Ok(report)
    }

    /// Durable [`StreamingFairKm::ingest`].
    pub fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<IngestReport, PersistError> {
        self.durably(|s| s.ingest(rows), || StreamOp::Ingest(rows.to_vec()))
    }

    /// Durable [`StreamingFairKm::evict`].
    pub fn evict(&mut self, slots: &[usize]) -> Result<EvictReport, PersistError> {
        self.durably(|s| s.evict(slots), || StreamOp::Evict(slots.to_vec()))
    }

    /// Durable [`StreamingFairKm::evict_oldest`].
    pub fn evict_oldest(&mut self, count: usize) -> Result<EvictReport, PersistError> {
        self.durably(|s| s.evict_oldest(count), || StreamOp::EvictOldest(count))
    }

    /// Durable explicit [`StreamingFairKm::reoptimize`]. Returns the number
    /// of moves.
    pub fn reoptimize(&mut self) -> Result<usize, PersistError> {
        self.durably(|s| Ok(s.reoptimize()), || StreamOp::Reoptimize)
    }

    /// Durable [`StreamingFairKm::compact`]. Returns the kept-slot mapping.
    pub fn compact(&mut self) -> Result<Vec<usize>, PersistError> {
        self.durably(StreamingFairKm::compact, || StreamOp::Compact)
    }

    /// Write a snapshot now ([`Journal::snapshot_now`]). Returns the
    /// snapshot's sequence number.
    pub fn snapshot_now(&mut self) -> Result<u64, PersistError> {
        let stream = &self.stream;
        self.journal
            .snapshot_now(|buf| stream.write_snapshot_bytes(buf))
    }

    /// Read access to the wrapped engine.
    pub fn stream(&self) -> &StreamingFairKm {
        &self.stream
    }

    /// Read access to the underlying store (sequence numbers, backend).
    pub fn store(&self) -> &DurableStore<B> {
        self.journal.store()
    }

    /// Whether a journal failure has wedged this stream (see
    /// [`PersistError::Wedged`]).
    pub fn is_wedged(&self) -> bool {
        self.journal.wedge_cause().is_some()
    }

    /// [`Journal::wedge_cause`].
    pub fn wedge_cause(&self) -> Option<&str> {
        self.journal.wedge_cause()
    }

    /// [`Journal::take_snapshot_failure`].
    pub fn take_snapshot_failure(&mut self) -> Option<PersistError> {
        self.journal.take_snapshot_failure()
    }

    /// Drop durability and keep the in-memory engine (e.g. to hand off to
    /// the sharded deployment via
    /// [`StreamingFairKm::into_shard_parts`]).
    pub fn into_stream(self) -> StreamingFairKm {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairKmConfig, Lambda};
    use fairkm_data::{row, DatasetBuilder, Role};
    use fairkm_store::{BitFlip, FaultPlan, SharedMemBackend, TornWrite};

    fn corpus(n_per_side: usize) -> fairkm_data::Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        for i in 0..n_per_side {
            let jitter = (i % 7) as f64 * 0.05;
            b.push_row(row![jitter, jitter, "a"]).unwrap();
            b.push_row(row![5.0 + jitter, 5.0 - jitter, "b"]).unwrap();
        }
        b.build().unwrap()
    }

    fn arrival(i: usize) -> Vec<Value> {
        let jitter = (i % 5) as f64 * 0.04;
        if i.is_multiple_of(2) {
            row![jitter, jitter, "b"]
        } else {
            row![5.0 - jitter, 5.0 + jitter, "a"]
        }
    }

    fn config(seed: u64) -> StreamingConfig {
        StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(seed)
                .with_lambda(Lambda::Fixed(50.0))
                .with_threads(1),
        )
    }

    fn fingerprint(s: &StreamingFairKm) -> (Vec<Option<usize>>, u64, Vec<u64>) {
        let assignments = (0..s.n_slots()).map(|i| s.assignment_of(i)).collect();
        let objective = s.objective().to_bits();
        let trace = s.trace().iter().map(|v| v.to_bits()).collect();
        (assignments, objective, trace)
    }

    #[test]
    fn snapshot_bytes_round_trip_bitwise() {
        let mut s = StreamingFairKm::bootstrap(corpus(20), config(3)).unwrap();
        for batch in 0..4 {
            let rows: Vec<Vec<Value>> = (batch * 5..batch * 5 + 5).map(arrival).collect();
            s.ingest(&rows).unwrap();
        }
        s.evict(&[0, 3]).unwrap();
        let bytes = s.to_snapshot_bytes();
        let restored = StreamingFairKm::from_snapshot_bytes(&bytes, Some(1)).unwrap();
        assert_eq!(fingerprint(&s), fingerprint(&restored));
        // Identical future behavior, not just identical current state.
        let mut a = s;
        let mut b = restored;
        for i in 20..30 {
            let ra = a.ingest(std::slice::from_ref(&arrival(i))).unwrap();
            let rb = b.ingest(std::slice::from_ref(&arrival(i))).unwrap();
            assert_eq!(ra.clusters, rb.clusters);
        }
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Re-encoding the restored engine reproduces the bytes exactly.
        assert_eq!(bytes, b_bytes_of(&b_reset(&bytes)));
    }

    // Helpers so the byte-stability check reads clearly.
    fn b_reset(bytes: &[u8]) -> StreamingFairKm {
        StreamingFairKm::from_snapshot_bytes(bytes, Some(1)).unwrap()
    }
    fn b_bytes_of(s: &StreamingFairKm) -> Vec<u8> {
        s.to_snapshot_bytes()
    }

    #[test]
    fn snapshot_truncations_are_typed_errors() {
        let s = StreamingFairKm::bootstrap(corpus(8), config(1)).unwrap();
        let bytes = s.to_snapshot_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(StreamingFairKm::from_snapshot_bytes(&bytes[..cut], Some(1)).is_err());
        }
    }

    #[test]
    fn stream_ops_round_trip() {
        let ops = [
            StreamOp::Ingest(vec![arrival(0), arrival(1)]),
            StreamOp::Ingest(Vec::new()),
            StreamOp::Evict(vec![3, 1, 4]),
            StreamOp::EvictOldest(7),
            StreamOp::Reoptimize,
            StreamOp::Compact,
        ];
        for op in &ops {
            let bytes = op.to_bytes();
            assert_eq!(&StreamOp::from_bytes(&bytes).unwrap(), op);
            for cut in 0..bytes.len() {
                assert!(StreamOp::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn crash_and_reopen_reproduces_the_uninterrupted_run() {
        // Reference: one uninterrupted in-memory run.
        let mut reference = StreamingFairKm::bootstrap(corpus(15), config(9)).unwrap();
        // Durable run over a shared in-memory backend.
        let backend = SharedMemBackend::new();
        let mut durable =
            DurableStream::create(backend.clone(), corpus(15), config(9), Some(3)).unwrap();
        for batch in 0..6 {
            let rows: Vec<Vec<Value>> = (batch * 4..batch * 4 + 4).map(arrival).collect();
            reference.ingest(&rows).unwrap();
            durable.ingest(&rows).unwrap();
        }
        reference.evict_oldest(5).unwrap();
        durable.evict_oldest(5).unwrap();
        assert_eq!(fingerprint(&reference), fingerprint(durable.stream()));

        // Crash: drop the handle, shear unsynced bytes, reopen.
        drop(durable);
        backend.crash();
        let (reopened, report) = DurableStream::open(backend.clone(), Some(1), Some(3)).unwrap();
        assert!(report.skipped_snapshots.is_empty());
        assert_eq!(fingerprint(&reference), fingerprint(reopened.stream()));
    }

    #[test]
    fn torn_journal_write_loses_only_unexternalized_ops() {
        let backend = SharedMemBackend::new();
        let mut durable =
            DurableStream::create(backend.clone(), corpus(12), config(4), None).unwrap();
        durable.ingest(&[arrival(0), arrival(1)]).unwrap();
        let durable_fp = fingerprint(durable.stream());

        // Arm a torn write for the next journal append: the op applies in
        // memory, but its journal record is sheared at the crash.
        backend.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 1, keep: 3 }),
            flips: Vec::new(),
        });
        let err = durable.ingest(&[arrival(2)]).unwrap_err();
        assert!(matches!(err, PersistError::Store(_)), "got {err:?}");
        assert!(durable.is_wedged());
        assert!(matches!(
            durable.ingest(&[arrival(3)]),
            Err(PersistError::Wedged)
        ));

        drop(durable);
        backend.crash();
        let (reopened, report) = DurableStream::open(backend, Some(1), None).unwrap();
        // The torn record is truncated away; state matches the last
        // successfully externalized operation.
        assert!(report.truncated_tail.is_some() || report.replayed > 0);
        assert_eq!(durable_fp, fingerprint(reopened.stream()));
    }

    #[test]
    fn failed_cadence_snapshot_reports_the_op_as_committed() {
        let mut reference = StreamingFairKm::bootstrap(corpus(12), config(4)).unwrap();
        let backend = SharedMemBackend::new();
        let mut durable =
            DurableStream::create(backend.clone(), corpus(12), config(4), Some(2)).unwrap();
        reference.ingest(&[arrival(0)]).unwrap();
        durable.ingest(&[arrival(0)]).unwrap();
        reference.ingest(&[arrival(1)]).unwrap();

        // The second ingest triggers the cadence snapshot. Fail exactly
        // that write (op 1 is the WAL append, op 2 the snapshot): the op
        // is already journaled + applied, so the call succeeds with its
        // report and the snapshot failure is stashed as "committed, do
        // not retry" — it must not read as a failed ingest.
        backend.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 2, keep: 0 }),
            flips: Vec::new(),
        });
        let report = durable.ingest(&[arrival(1)]).unwrap();
        assert_eq!(report.slots.len(), 1, "the committed op returns its report");
        let deferred = durable.take_snapshot_failure().unwrap();
        assert!(
            matches!(deferred, PersistError::SnapshotAfterCommit { .. }),
            "got {deferred:?}"
        );
        assert!(
            durable.take_snapshot_failure().is_none(),
            "take drains the stashed failure"
        );
        assert!(
            !durable.is_wedged(),
            "a snapshot failure must not wedge: the WAL already covers the op"
        );
        drop(durable);

        // The op really is committed: recovery replays it, so a caller
        // retrying after the deferred failure would have double-applied it.
        backend.crash();
        let (reopened, _) = DurableStream::open(backend, Some(1), Some(2)).unwrap();
        assert_eq!(fingerprint(&reference), fingerprint(reopened.stream()));
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_base() {
        let backend = SharedMemBackend::new();
        let mut durable =
            DurableStream::create(backend.clone(), corpus(10), config(2), Some(2)).unwrap();
        for batch in 0..4 {
            let rows: Vec<Vec<Value>> = (batch * 3..batch * 3 + 3).map(arrival).collect();
            durable.ingest(&rows).unwrap();
        }
        let expect = fingerprint(durable.stream());
        drop(durable);

        // Flip one bit in the newest snapshot payload.
        let newest = backend
            .list()
            .unwrap()
            .into_iter()
            .rfind(|n| n.starts_with("snap-"))
            .unwrap();
        backend.set_faults(FaultPlan {
            torn: None,
            flips: vec![BitFlip {
                file: newest.clone(),
                offset: 40,
                bit: 2,
            }],
        });
        backend.crash();

        let (reopened, report) = DurableStream::open(backend, Some(1), Some(2)).unwrap();
        assert_eq!(report.skipped_snapshots.len(), 1);
        assert!(report.skipped_snapshots[0].starts_with(&newest));
        assert_eq!(expect, fingerprint(reopened.stream()));
    }

    #[test]
    fn create_refuses_existing_state() {
        let backend = SharedMemBackend::new();
        let durable = DurableStream::create(backend.clone(), corpus(6), config(1), None).unwrap();
        drop(durable);
        assert!(matches!(
            DurableStream::create(backend, corpus(6), config(1), None),
            Err(PersistError::StateDirNotEmpty)
        ));
    }
}
