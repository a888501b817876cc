//! # fairkm-shard — sharded streaming FairKM with bitwise-deterministic merge
//!
//! Scales the incremental streaming engine across `S` shards while keeping
//! the strongest guarantee the single-node engine offers: the merged state
//! — assignments, objective trace, prototypes, every aggregate bit — is
//! **bitwise identical** to a single-node run, at any shard count, under
//! any message schedule the fault model can produce.
//!
//! ## Architecture
//!
//! * **Coordinator (node 0).** Owns the client API, the per-slot payload
//!   table (the only copy of each row), and a totally ordered **mutation
//!   log**. It runs each operation as the single-node engine's own step
//!   machine ([`fairkm_core::Machine`]) over its shared
//!   [`fairkm_core::RowCodec`], with its replica and
//!   [`fairkm_core::DriverLedger`] behind the machine's shared cell: the
//!   machine's read-only requests (arrival scoring, move proposals,
//!   rebuild folds) are scattered to the shards and gathered back, and
//!   each batch of log entries it commits is journaled and broadcast. The
//!   control flow exists once; the coordinator only carries it over the
//!   network.
//! * **Shards (node `s + 1`).** Each holds a full replica of the
//!   single-node aggregate engine ([`fairkm_core::ClusterModel`] —
//!   aggregates, not rows) plus the payloads of the slots the block-cyclic
//!   [`ShardPlan`] assigns to it. Replicas advance only by applying the log
//!   in order.
//!
//! ## Why the merge is bitwise-deterministic
//!
//! 1. **One total order of mutations.** Every state change is a log entry
//!    (`Insert`/`Remove`/`Move`/`Install`) carrying the affected payload.
//!    Applying an entry runs the single-node engine's own code on that
//!    payload, so a replica at log version `v` is bitwise equal
//!    to every other replica at `v` — regardless of how the network
//!    batched, delayed, or reordered the deliveries.
//! 2. **Pure scatters at a pinned version.** Asks carry the log version
//!    they must be evaluated at; the machine commits nothing while a
//!    request is outstanding, and shards defer asks from the future.
//!    Answers are pure functions of replica state at that version, so
//!    re-issuing an ask (crash recovery) cannot change any answer.
//! 3. **Ordered reduction.** The machine applies window proposals in
//!    ascending slot order; rebuild chunks are folded shard-to-shard in
//!    ascending slot order and merged chunk-index-first by the machine —
//!    the same left-fold `fairkm_parallel::fold_chunks` performs, so the
//!    rebuilt aggregates match the single-node bits exactly.
//!
//! ## Fault model
//!
//! Links are not FIFO: messages may be delayed and reordered arbitrarily
//! (bounded delay), shards may lag, and shards may **crash**, losing all
//! volatile state, then rejoin from their latest durable snapshot via a
//! sync handshake (`SyncRequest` → log suffix + re-issue of outstanding
//! requests). The **coordinator crashes too**: it runs on the single
//! node's durability wrapper ([`fairkm_core::persist::Journal`]), so it
//! journals every mutation batch to the write-ahead log *before*
//! broadcasting it (the durable log always covers everything a shard
//! could have applied) and journals a bookkeeping record before surfacing
//! an operation result. A failed journal write wedges it; a failed
//! cadence snapshot after that record does not — the result surfaces and
//! the failure is deferred ([`Coordinator::take_snapshot_failure`]).
//! [`Coordinator::recover`] rebuilds node 0 from the newest checksummed
//! snapshot plus the WAL suffix; a crash at an operation boundary recovers
//! **bitwise**, a crash mid-operation loses only the in-flight operation
//! (its already-replicated entries are kept — the log never rolls back, so
//! shards stay consistent) and reports `interrupted`. Storage faults (torn
//! writes, lost unsynced suffixes, bit flips) surface as typed errors at
//! recovery, never panics. Under every such schedule, once the system
//! quiesces all replicas are bitwise equal to the single-node golden
//! state.
//!
//! Drive it in-process with [`ShardedFairKm`], or inside the
//! deterministic [`fairkm_sim`] simulator with [`build_simulation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod driver;
mod net;
mod plan;
mod protocol;
mod shard;

pub use coordinator::{Coordinator, CoordinatorRecovery};
pub use driver::ShardedFairKm;
pub use fairkm_core::LogEntry;
pub use net::{build_simulation, Node};
pub use plan::ShardPlan;
pub use protocol::{Msg, Op, OpOutcome, Part};
pub use shard::{Outbox, ShardNode};

use fairkm_core::persist::PersistError;
use fairkm_core::wire::WireError;
use fairkm_core::FairKmError;

/// Errors specific to sharded deployment.
#[derive(Debug)]
pub enum ShardError {
    /// Sharding requires the incremental δ engine: the literal engine
    /// recomputes fairness terms from raw rows, which rowless replicas do
    /// not hold.
    LiteralEngine,
    /// A placement plan with zero shards, more than
    /// [`ShardPlan::MAX_SHARDS`], or a zero block size.
    InvalidPlan {
        /// Requested shard count.
        shards: usize,
        /// Requested placement-block size.
        block: usize,
    },
    /// The underlying single-node engine failed.
    Core(FairKmError),
    /// The coordinator's journal failed or refused: a storage fault, no
    /// snapshot to recover from, a state directory that already holds
    /// durable state, or a wedge — a journal write failed earlier and
    /// stopped an operation part-way, so snapshots are refused and the
    /// coordinator must be recovered from the state directory.
    Persist(PersistError),
    /// A durable snapshot or journal record failed to decode.
    Wire(WireError),
    /// [`Coordinator::snapshot_now`] was called while an operation is in
    /// flight: its state is not at an operation boundary.
    OperationInFlight,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::LiteralEngine => {
                write!(f, "sharding requires DeltaEngine::Incremental")
            }
            ShardError::InvalidPlan { shards, block } => {
                write!(f, "invalid shard plan: shards={shards}, block={block}")
            }
            ShardError::Core(e) => write!(f, "core engine error: {e}"),
            ShardError::Persist(e) => write!(f, "coordinator journal: {e}"),
            ShardError::Wire(e) => write!(f, "coordinator durable state: {e}"),
            ShardError::OperationInFlight => {
                write!(f, "an operation is in flight; snapshot once it completes")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Core(e) => Some(e),
            ShardError::Persist(e) => Some(e),
            ShardError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FairKmError> for ShardError {
    fn from(e: FairKmError) -> Self {
        ShardError::Core(e)
    }
}

impl From<PersistError> for ShardError {
    fn from(e: PersistError) -> Self {
        ShardError::Persist(e)
    }
}

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        ShardError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairkm_core::{DeltaEngine, FairKmConfig, StreamingConfig, StreamingFairKm};
    use fairkm_data::{Dataset, Value};
    use fairkm_synth::planted::{PlantedConfig, PlantedGenerator};

    fn planted_config() -> PlantedConfig {
        PlantedConfig {
            n_rows: 300,
            n_blobs: 3,
            dim: 4,
            n_sensitive_attrs: 2,
            cardinality: 3,
            alignment: 0.8,
            separation: 5.0,
            spread: 1.0,
            seed: 17,
        }
    }

    fn workload() -> Dataset {
        PlantedGenerator::new(planted_config()).generate().dataset
    }

    fn config(seed: u64) -> StreamingConfig {
        StreamingConfig::from_base(
            FairKmConfig::new(3)
                .with_seed(seed)
                .with_max_iters(4)
                .with_threads(1),
        )
        .with_drift_threshold(0.02)
    }

    /// The shared workload: ingest the tail in chunks with sliding-window
    /// retention, an explicit eviction, then one explicit re-optimization.
    /// A macro so the same body drives both engine types.
    macro_rules! drive {
        ($engine:expr, $arrivals:expr) => {{
            for chunk in $arrivals.chunks(40) {
                $engine.ingest(chunk).unwrap();
                if $engine.live() > 220 {
                    $engine.evict_oldest($engine.live() - 220).unwrap();
                }
            }
            $engine.evict(&[205, 207]).unwrap();
            $engine.reoptimize();
        }};
    }

    /// An unoptimized bootstrap under a heavy λ: the windows of the
    /// re-optimizations that follow overshoot, so the per-move fallback
    /// scans run on the shards.
    fn fallback_heavy(seed: u64) -> StreamingConfig {
        let mut config = config(seed);
        config.base = config
            .base
            .with_max_iters(0)
            .with_lambda(fairkm_core::Lambda::Fixed(40000.0))
            .with_schedule(fairkm_core::UpdateSchedule::MiniBatch(200));
        config
    }

    #[test]
    fn sharded_run_matches_single_node_bitwise() {
        let data = workload();
        let boot_idx: Vec<usize> = (0..200).collect();
        let arrivals: Vec<Vec<Value>> = (200..300).map(|r| data.row_values(r).unwrap()).collect();

        for (config, fallbacks) in [(config(11), false), (fallback_heavy(11), true)] {
            let boot = || data.select_rows(&boot_idx).unwrap();
            let mut single = StreamingFairKm::bootstrap(boot(), config.clone()).unwrap();
            drive!(single, arrivals);
            for shards in [1usize, 2, 4] {
                let mut sharded =
                    ShardedFairKm::bootstrap(boot(), config.clone(), shards, 16).unwrap();
                drive!(sharded, arrivals);
                assert_eq!(sharded.coordinator().fallbacks() > 0, fallbacks);
                assert_eq!(
                    sharded.objective().to_bits(),
                    single.objective().to_bits(),
                    "objective diverged at {shards} shards"
                );
                let single_trace: Vec<u64> = single.trace().iter().map(|v| v.to_bits()).collect();
                let sharded_trace: Vec<u64> = sharded.trace().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    sharded_trace, single_trace,
                    "trace diverged at {shards} shards"
                );
                assert_eq!(sharded.live_slots(), single.live_slots());
                for slot in sharded.live_slots() {
                    assert_eq!(sharded.assignment_of(slot), single.assignment_of(slot));
                }
                let single_protos: Vec<Vec<u64>> = single
                    .prototypes()
                    .iter()
                    .map(|p| p.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let sharded_protos: Vec<Vec<u64>> = sharded
                    .prototypes()
                    .iter()
                    .map(|p| p.iter().map(|v| v.to_bits()).collect())
                    .collect();
                assert_eq!(sharded_protos, single_protos);
                assert!(sharded.replicas_agree(), "replica drift at {shards} shards");
            }
        }
    }

    #[test]
    fn error_paths_match_single_node() {
        let data = workload();
        let boot_idx: Vec<usize> = (0..120).collect();
        let mut single =
            StreamingFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config(5)).unwrap();
        let mut sharded =
            ShardedFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config(5), 2, 16)
                .unwrap();

        // Duplicate and dead slots are rejected identically, with no state
        // change on either side.
        assert_eq!(
            format!("{:?}", single.evict(&[3, 3]).unwrap_err()),
            format!("{:?}", sharded.evict(&[3, 3]).unwrap_err()),
        );
        single.evict(&[7]).unwrap();
        sharded.evict(&[7]).unwrap();
        assert_eq!(
            format!("{:?}", single.evict(&[7]).unwrap_err()),
            format!("{:?}", sharded.evict(&[7]).unwrap_err()),
        );
        // Arity mismatch on ingest is rejected atomically.
        let bad = vec![vec![Value::Num(0.5)]];
        assert_eq!(
            format!("{:?}", single.ingest(&bad).unwrap_err()),
            format!("{:?}", sharded.ingest(&bad).unwrap_err()),
        );
        assert_eq!(sharded.objective().to_bits(), single.objective().to_bits());
        assert!(sharded.replicas_agree());
    }

    // ---- coordinator durability ------------------------------------

    use crate::shard::Outbox;
    use fairkm_core::ShardParts;
    use fairkm_store::{DurableStore, FaultPlan, SharedMemBackend, StoreError, TornWrite};
    use std::collections::VecDeque;

    fn parts(data: &Dataset, seed: u64) -> ShardParts {
        let boot_idx: Vec<usize> = (0..200).collect();
        StreamingFairKm::bootstrap(data.select_rows(&boot_idx).unwrap(), config(seed))
            .unwrap()
            .into_shard_parts()
    }

    /// Pump the in-process queue until drained; returns the completed
    /// outcome, or `None` if the coordinator withheld one (wedged).
    fn run_op(c: &mut Coordinator, shards: &mut [ShardNode], op: Op) -> Option<OpOutcome> {
        let mut out: Outbox = Vec::new();
        c.handle(Msg::Op(op), &mut out);
        let mut queue: VecDeque<(usize, Msg)> = out.into_iter().collect();
        while let Some((to, msg)) = queue.pop_front() {
            let mut out: Outbox = Vec::new();
            if to == 0 {
                c.handle(msg, &mut out);
            } else {
                shards[to - 1].handle(msg, &mut out);
            }
            queue.extend(out);
        }
        c.take_result()
    }

    /// Everything observable about a quiesced coordinator, bitwise —
    /// except request ids, which recovery deliberately re-blocks.
    #[allow(clippy::type_complexity)]
    fn fingerprint(c: &Coordinator) -> (u64, Vec<u64>, Vec<(usize, usize)>, Vec<u8>, u64) {
        let assignments = c
            .live_slots()
            .iter()
            .map(|&s| (s, c.assignment_of(s).unwrap()))
            .collect();
        (
            c.objective().to_bits(),
            c.trace().iter().map(|v| v.to_bits()).collect(),
            assignments,
            c.model_bytes(),
            c.log_len(),
        )
    }

    fn replicas_agree(c: &Coordinator, shards: &[ShardNode]) -> bool {
        shards
            .iter()
            .all(|s| s.version() == c.log_len() && s.model_bytes() == c.model_bytes())
    }

    /// Every shard asks for the log suffix it is missing; pump to quiet.
    fn resync(c: &mut Coordinator, shards: &mut [ShardNode]) {
        let mut queue: VecDeque<(usize, Msg)> = shards
            .iter()
            .map(|s| {
                let (shard, have) = (s.id(), s.version());
                (0usize, Msg::SyncRequest { shard, have })
            })
            .collect();
        while let Some((to, msg)) = queue.pop_front() {
            let mut out: Outbox = Vec::new();
            if to == 0 {
                c.handle(msg, &mut out);
            } else {
                shards[to - 1].handle(msg, &mut out);
            }
            queue.extend(out);
        }
    }

    #[test]
    fn coordinator_recovers_bitwise_at_an_operation_boundary() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..280).map(|r| data.row_values(r).unwrap()).collect();
        let plan = ShardPlan::new(2, 16).unwrap();
        let script: Vec<Op> = {
            let mut v: Vec<Op> = arrivals
                .chunks(20)
                .map(|c| Op::Ingest(c.to_vec()))
                .collect();
            v.push(Op::EvictOldest(15));
            v.push(Op::Reoptimize);
            v
        };
        let split = 3;

        // Reference: the same script with no journal and no crash.
        let (mut ref_c, mut ref_s) = Coordinator::provision(parts(&data, 11), plan);
        for op in &script {
            run_op(&mut ref_c, &mut ref_s, op.clone()).unwrap();
        }

        // Durable run: crash after `split` ops, recover, finish the script.
        let disk = SharedMemBackend::new();
        let (mut c, mut s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(disk.clone()), Some(2)).unwrap();
        for op in &script[..split] {
            run_op(&mut c, &mut s, op.clone()).unwrap();
        }
        let at_crash = fingerprint(&c);
        let shard_snaps: Vec<Vec<u8>> = s.iter().map(|n| n.snapshot_bytes()).collect();
        drop(c);
        drop(s);

        let (mut c, report) = Coordinator::recover(Box::new(disk.clone()), Some(2)).unwrap();
        assert!(
            !report.interrupted,
            "boundary crash must not be interrupted"
        );
        assert_eq!(fingerprint(&c), at_crash, "recovery is not bitwise");
        let mut s: Vec<ShardNode> = shard_snaps
            .iter()
            .map(|b| ShardNode::from_snapshot(b).unwrap())
            .collect();
        for op in &script[split..] {
            run_op(&mut c, &mut s, op.clone()).unwrap();
        }
        assert_eq!(
            fingerprint(&c),
            fingerprint(&ref_c),
            "post-recovery run diverged from the uncrashed run"
        );
        assert!(replicas_agree(&c, &s));

        // A second crash right here recovers the final state too.
        let final_fp = fingerprint(&c);
        drop(c);
        let (c, report) = Coordinator::recover(Box::new(disk), Some(2)).unwrap();
        assert!(!report.interrupted);
        assert_eq!(fingerprint(&c), final_fp);
    }

    #[test]
    fn make_durable_refuses_a_dirty_backend() {
        let data = workload();
        let plan = ShardPlan::new(2, 16).unwrap();
        let disk = SharedMemBackend::new();
        let (mut c, _s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        let (mut c2, _s2) = Coordinator::provision(parts(&data, 11), plan);
        assert!(matches!(
            c2.make_durable(Box::new(disk), None),
            Err(ShardError::Persist(PersistError::StateDirNotEmpty))
        ));
    }

    #[test]
    fn torn_journal_write_wedges_and_loses_only_the_torn_op() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..260).map(|r| data.row_values(r).unwrap()).collect();
        let plan = ShardPlan::new(2, 16).unwrap();
        let disk = SharedMemBackend::new();
        let (mut c, mut s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        run_op(&mut c, &mut s, Op::Ingest(arrivals[..30].to_vec())).unwrap();
        let last_completed = fingerprint(&c);

        // The next journal append tears after 3 bytes.
        disk.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 1, keep: 3 }),
            flips: Vec::new(),
        });
        let outcome = run_op(&mut c, &mut s, Op::Ingest(arrivals[30..].to_vec()));
        assert!(
            outcome.is_none(),
            "a wedged coordinator must withhold results"
        );
        assert!(c.is_wedged());
        // Wedged means deaf: further operations produce nothing at all.
        let mut out: Outbox = Vec::new();
        c.handle(Msg::Op(Op::Reoptimize), &mut out);
        assert!(out.is_empty());
        assert!(c.take_result().is_none());
        drop(c);

        // Power-cycle the disk (drops the unsynced torn suffix), recover:
        // exactly the pre-tear state, nothing externalized was lost.
        disk.crash();
        let (c, report) = Coordinator::recover(Box::new(disk), None).unwrap();
        assert!(!report.interrupted);
        assert_eq!(fingerprint(&c), last_completed);
    }

    /// A backend whose next append, or next atomic write, fails
    /// *transiently* (ENOSPC-style): nothing reaches the file and the
    /// fault clears by itself, so a later, smaller append would succeed.
    /// Unlike [`TornWrite`], this is exactly the fault where a leaky wedge
    /// lets the small `OP_DONE` record land over the missing entry batch.
    #[derive(Debug, Clone)]
    struct TransientFailBackend {
        inner: SharedMemBackend,
        fail_next_append: std::rc::Rc<std::cell::Cell<bool>>,
        fail_next_write: std::rc::Rc<std::cell::Cell<bool>>,
    }

    impl TransientFailBackend {
        fn new(inner: SharedMemBackend) -> Self {
            Self {
                inner,
                fail_next_append: Default::default(),
                fail_next_write: Default::default(),
            }
        }

        fn fail_next_append(&self) {
            self.fail_next_append.set(true);
        }

        fn fail_next_write_atomic(&self) {
            self.fail_next_write.set(true);
        }

        /// The injected error if `armed` was set (disarming it).
        fn injected(armed: &std::cell::Cell<bool>, name: &str) -> Result<(), StoreError> {
            if !armed.replace(false) {
                return Ok(());
            }
            Err(StoreError::Io {
                op: "write",
                file: name.to_string(),
                message: "no space left on device (injected)".into(),
            })
        }
    }

    impl fairkm_store::StorageBackend for TransientFailBackend {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
            self.inner.read(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            Self::injected(&self.fail_next_write, name)?;
            self.inner.write_atomic(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            Self::injected(&self.fail_next_append, name)?;
            self.inner.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), StoreError> {
            self.inner.sync(name)
        }
        fn list(&self) -> Result<Vec<String>, StoreError> {
            self.inner.list()
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            self.inner.remove(name)
        }
    }

    /// A journal append that fails once and then recovers must wedge the
    /// *whole* operation: the entry batch never reached the log, so
    /// nothing after it — not the `OP_DONE` record, not the client
    /// result, not a snapshot — may externalize. Recovery from the
    /// surviving journal lands exactly on the last sealed operation.
    #[test]
    fn transient_append_failure_wedges_the_whole_operation() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..260).map(|r| data.row_values(r).unwrap()).collect();
        let plan = ShardPlan::new(2, 16).unwrap();
        let disk = SharedMemBackend::new();
        let flaky = TransientFailBackend::new(disk.clone());
        let (mut c, mut s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(flaky.clone()), None).unwrap();
        run_op(&mut c, &mut s, Op::Ingest(arrivals[..30].to_vec())).unwrap();
        let last_completed = fingerprint(&c);

        // The fault hits the large entry-batch append only; the small
        // bookkeeping append that follows would succeed if attempted.
        flaky.fail_next_append();
        let outcome = run_op(&mut c, &mut s, Op::Ingest(arrivals[30..].to_vec()));
        assert!(
            outcome.is_none(),
            "a result not covered by the durable log escaped the wedge"
        );
        assert!(c.is_wedged());
        // A wedged coordinator's model is ahead of its own journal: a
        // snapshot now would persist that divergence.
        assert!(matches!(
            c.snapshot_now(),
            Err(ShardError::Persist(PersistError::Wedged))
        ));
        drop(c);

        // The journal must hold only the sealed prefix — no OP_DONE over
        // a hole, no trailing entry batch.
        let (c, report) = Coordinator::recover(Box::new(disk), None).unwrap();
        assert!(
            !report.interrupted,
            "no part of the wedged operation may reach the journal"
        );
        assert_eq!(fingerprint(&c), last_completed);
    }

    /// A cadence snapshot that fails after the operation's `OP_DONE` record
    /// is durable defers, as on the single node: the committed result
    /// surfaces, the coordinator is not wedged, and recovery lands on the
    /// surfaced state (a client that saw no result would retry, and the
    /// retry would ingest the rows twice).
    #[test]
    fn failed_cadence_snapshot_surfaces_the_committed_result() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..260).map(|r| data.row_values(r).unwrap()).collect();
        let plan = ShardPlan::new(2, 16).unwrap();
        let script: Vec<Op> = arrivals
            .chunks(20)
            .map(|rows| Op::Ingest(rows.to_vec()))
            .collect();
        let (mut ref_c, mut ref_s) = Coordinator::provision(parts(&data, 11), plan);
        for op in &script {
            run_op(&mut ref_c, &mut ref_s, op.clone()).unwrap();
        }

        let disk = SharedMemBackend::new();
        let flaky = TransientFailBackend::new(disk.clone());
        let (mut c, mut s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(flaky.clone()), Some(2)).unwrap();
        run_op(&mut c, &mut s, script[0].clone()).unwrap();
        // The second operation rolls the cadence snapshot; fail its write.
        flaky.fail_next_write_atomic();
        let outcome = run_op(&mut c, &mut s, script[1].clone());
        assert!(
            matches!(outcome, Some(OpOutcome::Ingest(Ok(_)))),
            "the committed result was withheld"
        );
        assert!(!c.is_wedged(), "a cadence snapshot failure must not wedge");
        assert!(matches!(
            c.take_snapshot_failure(),
            Some(PersistError::SnapshotAfterCommit { .. })
        ));
        assert!(c.take_snapshot_failure().is_none(), "take drains it");
        run_op(&mut c, &mut s, script[2].clone()).expect("the next op completes");
        assert_eq!(fingerprint(&c), fingerprint(&ref_c));
        drop(c);

        let (c, report) = Coordinator::recover(Box::new(disk), Some(2)).unwrap();
        assert!(!report.interrupted);
        assert_eq!(fingerprint(&c), fingerprint(&ref_c), "recovery diverged");
    }

    /// A snapshot mid-operation would persist the books of the last
    /// completed operation over aggregates the operation already changed,
    /// and recovery from it would not know the operation was interrupted.
    #[test]
    fn snapshot_now_is_refused_while_an_operation_is_in_flight() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..300).map(|r| data.row_values(r).unwrap()).collect();
        let disk = SharedMemBackend::new();
        let (mut c, mut s) =
            Coordinator::provision(parts(&data, 11), ShardPlan::new(2, 16).unwrap());
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        for chunk in arrivals.chunks(25) {
            run_op(&mut c, &mut s, Op::Ingest(chunk.to_vec())).unwrap();
        }
        let base_log = c.log_len();

        // Pump a re-optimization until it has committed entries.
        let mut out: Outbox = Vec::new();
        c.handle(Msg::Op(Op::Reoptimize), &mut out);
        let mut queue: VecDeque<(usize, Msg)> = out.into_iter().collect();
        while c.log_len() == base_log {
            let (to, msg) = queue.pop_front().expect("the op commits entries");
            let mut out: Outbox = Vec::new();
            if to == 0 {
                c.handle(msg, &mut out);
            } else {
                s[to - 1].handle(msg, &mut out);
            }
            queue.extend(out);
        }
        assert!(!c.is_idle());
        assert!(matches!(
            c.snapshot_now(),
            Err(ShardError::OperationInFlight)
        ));
        drop(c);

        let (_, report) = Coordinator::recover(Box::new(disk), None).unwrap();
        assert!(
            report.interrupted,
            "the refused snapshot hid the interruption"
        );
    }

    #[test]
    fn interrupted_recovery_keeps_replicated_entries_and_resyncs() {
        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..300).map(|r| data.row_values(r).unwrap()).collect();
        let plan = ShardPlan::new(2, 16).unwrap();
        let disk = SharedMemBackend::new();
        let (mut c, mut s) = Coordinator::provision(parts(&data, 11), plan);
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        for chunk in arrivals.chunks(25) {
            run_op(&mut c, &mut s, Op::Ingest(chunk.to_vec())).unwrap();
        }
        let base_log = c.log_len();

        // Start a re-optimization and stop pumping as soon as the log has
        // grown: entries are journaled and broadcast, but no operation
        // record seals them — a mid-operation crash.
        let mut out: Outbox = Vec::new();
        c.handle(Msg::Op(Op::Reoptimize), &mut out);
        let mut queue: VecDeque<(usize, Msg)> = out.into_iter().collect();
        while let Some((to, msg)) = queue.pop_front() {
            let mut out: Outbox = Vec::new();
            if to == 0 {
                c.handle(msg, &mut out);
            } else {
                s[to - 1].handle(msg, &mut out);
            }
            queue.extend(out);
            if c.log_len() > base_log {
                break;
            }
        }
        assert!(
            c.log_len() > base_log && c.take_result().is_none(),
            "workload must leave the re-optimization genuinely mid-flight"
        );
        let in_flight_log = c.log_len();
        drop(c);
        drop(queue);

        let (mut c, report) = Coordinator::recover(Box::new(disk), None).unwrap();
        assert!(report.interrupted, "trailing entry batches must be flagged");
        assert!(report.replayed_entries > 0);
        assert_eq!(
            c.log_len(),
            in_flight_log,
            "replicated entries must never roll back"
        );

        // The lagging shards resync from the recovered log and the system
        // completes fresh operations normally.
        resync(&mut c, &mut s);
        assert!(replicas_agree(&c, &s), "shards failed to resync");
        run_op(&mut c, &mut s, Op::Reoptimize).unwrap();
        assert!(replicas_agree(&c, &s));
    }

    /// The schema of a bootstrap whose sensitive attributes each have one
    /// more category than the model's aggregates: spliced into a
    /// coordinator snapshot in place of the real schema, it must decode to
    /// a typed error — a later ingest would index the categorical counts
    /// out of range.
    #[test]
    fn a_schema_that_disagrees_with_the_model_is_rejected() {
        use fairkm_core::wire::WireError;
        use fairkm_data::wire_io::put_schema;

        let data = workload();
        let (c, _s) = Coordinator::provision(parts(&data, 11), ShardPlan::new(2, 16).unwrap());
        let bytes = c.snapshot_bytes();
        assert!(Coordinator::decode_snapshot(&bytes).is_ok());

        let wider = PlantedGenerator::new(PlantedConfig {
            n_rows: 30,
            cardinality: 4,
            ..planted_config()
        })
        .generate()
        .dataset;
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        put_schema(&mut ours, data.schema());
        put_schema(&mut theirs, wider.schema());
        assert_ne!(ours, theirs);
        let at = bytes
            .windows(ours.len())
            .position(|w| w == ours.as_slice())
            .expect("the snapshot carries the schema");
        let spliced = [&bytes[..at], &theirs, &bytes[at + ours.len()..]].concat();
        assert!(matches!(
            Coordinator::decode_snapshot(&spliced),
            Err(ShardError::Wire(WireError::Invalid { .. }))
        ));
    }

    /// The ledger inside a coordinator snapshot or an operation record is
    /// checked like the single-node one: a λ bootstrap would reject, a λ
    /// that is not the stream's, or an eviction cursor past a live slot or
    /// past the slots is a typed error.
    #[test]
    fn a_bad_lambda_or_eviction_cursor_is_rejected() {
        use fairkm_core::wire::WireError;

        let data = workload();
        let disk = SharedMemBackend::new();
        let (mut c, mut s) =
            Coordinator::provision(parts(&data, 11), ShardPlan::new(2, 16).unwrap());
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        run_op(&mut c, &mut s, Op::EvictOldest(2)).unwrap();
        let invalid = |r: Result<Coordinator, ShardError>| {
            matches!(r, Err(ShardError::Wire(WireError::Invalid { .. })))
        };

        // The plan's two words, then the ledger: λ, the window (no pinned
        // width: one byte), the δ engine and four words before the cursor.
        let bytes = c.snapshot_bytes();
        let (lambda, cursor) = (16, 16 + 8 + 1 + 1 + 4 * 8);
        assert_eq!(bytes[cursor..cursor + 8], 2u64.to_le_bytes());
        let patched = |at: usize, field: [u8; 8]| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&field);
            Coordinator::decode_snapshot(&b)
        };
        assert!(patched(cursor, 1u64.to_le_bytes()).is_ok());
        for bad in [f64::NAN, -1.0] {
            assert!(invalid(patched(lambda, bad.to_le_bytes())), "λ = {bad}");
        }
        for bad in [3, c.n_slots() as u64 + 5] {
            assert!(invalid(patched(cursor, bad.to_le_bytes())), "cursor {bad}");
        }

        // An operation record whose sealed λ differs from the stream's.
        let (mut store, recovered) = DurableStore::open(disk.clone()).unwrap();
        let mut done = recovered.entries.last().unwrap().clone();
        let other = f64::from_le_bytes(done[1..9].try_into().unwrap()) * 2.0;
        done[1..9].copy_from_slice(&other.to_le_bytes());
        store.append(&done).unwrap();
        store.sync().unwrap();
        drop(store);
        assert!(invalid(
            Coordinator::recover(Box::new(disk), None).map(|r| r.0)
        ));
    }

    /// Decode-never-panics for the coordinator snapshot: a mutated payload
    /// either decodes to a typed error, or to a coordinator that — with
    /// shard replicas provisioned from it — runs an ingest of one valid row
    /// without panicking.
    mod mutated_snapshots {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn snapshot() -> &'static [u8] {
            static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
            BYTES.get_or_init(|| {
                let data = workload();
                let (c, _s) =
                    Coordinator::provision(parts(&data, 11), ShardPlan::new(2, 16).unwrap());
                c.snapshot_bytes()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            #[test]
            fn a_mutated_coordinator_snapshot_never_panics(
                edits in proptest::collection::vec((0u16..=u16::MAX, 1u8..=255), 1..4),
            ) {
                let mut bytes = snapshot().to_vec();
                let len = bytes.len();
                for &(pos, mask) in &edits {
                    bytes[pos as usize % len] ^= mask;
                }
                if let Ok(mut c) = Coordinator::decode_snapshot(&bytes) {
                    // The replicas a provisioning hand-off would build
                    // (the snapshot was taken before any log entry).
                    if c.log_len() == 0 {
                        let mut shards = c.shard_nodes();
                        let row = workload().row_values(250).unwrap();
                        let _ = run_op(&mut c, &mut shards, Op::Ingest(vec![row]));
                    }
                }
            }
        }
    }

    /// A buggy writer journals an insert into cluster `k`, with a valid
    /// checksum: recovery must refuse it with a typed error, not apply it.
    #[test]
    fn a_journaled_insert_into_cluster_k_is_a_typed_error() {
        use crate::coordinator::REC_ENTRIES;
        use fairkm_core::wire::{self, WireError};

        let data = workload();
        let arrivals: Vec<Vec<Value>> = (200..220).map(|r| data.row_values(r).unwrap()).collect();
        let disk = SharedMemBackend::new();
        let parts = parts(&data, 11);
        let mut row = parts.slots[0].clone();
        let (mut c, mut s) = Coordinator::provision(parts, ShardPlan::new(2, 16).unwrap());
        c.make_durable(Box::new(disk.clone()), None).unwrap();
        run_op(&mut c, &mut s, Op::Ingest(arrivals)).unwrap();
        row.cluster = c.k();
        let entry = LogEntry::Insert {
            slot: c.n_slots(),
            data: row,
        };
        drop(c);

        let mut record = vec![REC_ENTRIES];
        wire::put_usize(&mut record, 1);
        entry.to_bytes(&mut record);
        let (mut store, _) = DurableStore::open(disk.clone()).unwrap();
        store.append(&record).unwrap();
        store.sync().unwrap();
        drop(store);
        assert!(matches!(
            Coordinator::recover(Box::new(disk), None),
            Err(ShardError::Wire(WireError::Invalid { .. }))
        ));
    }

    /// A shard snapshot whose last owned row names cluster `k` (or any
    /// other out-of-range cluster) decodes to a typed error: the next fold
    /// or proposal over that row would index out of range.
    #[test]
    fn a_shard_snapshot_with_an_out_of_range_cluster_is_rejected() {
        use fairkm_core::wire::WireError;

        let (c, shards) =
            Coordinator::provision(parts(&workload(), 11), ShardPlan::new(2, 16).unwrap());
        let bytes = shards[1].snapshot_bytes();
        assert!(ShardNode::from_snapshot(&bytes).is_ok());
        for cluster in [c.k(), usize::MAX - 1] {
            let mut bad = bytes.clone();
            let at = bad.len() - 8;
            bad[at..].copy_from_slice(&(cluster as u64).to_le_bytes());
            assert!(matches!(
                ShardNode::from_snapshot(&bad),
                Err(WireError::Invalid { .. })
            ));
        }
    }

    /// Recovery-never-panics for the journal: a record with 1–3 bytes
    /// XORed — written by a buggy writer, so its checksum is valid —
    /// recovers to a typed error, or to a coordinator whose shards resync
    /// and run an ingest without panicking.
    mod mutated_journal {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// A short durable run: its base snapshot, its journal records,
        /// its shards' provisioning snapshots, and one more arrival.
        struct Run {
            snapshot: Vec<u8>,
            records: Vec<Vec<u8>>,
            shards: Vec<Vec<u8>>,
            arrival: Vec<Value>,
        }

        fn run() -> &'static Run {
            static RUN: OnceLock<Run> = OnceLock::new();
            RUN.get_or_init(|| {
                let data = workload();
                let rows: Vec<Vec<Value>> =
                    (200..240).map(|r| data.row_values(r).unwrap()).collect();
                let disk = SharedMemBackend::new();
                let (mut c, mut s) =
                    Coordinator::provision(parts(&data, 11), ShardPlan::new(2, 16).unwrap());
                let shards = s.iter().map(ShardNode::snapshot_bytes).collect();
                c.make_durable(Box::new(disk.clone()), None).unwrap();
                for op in [
                    Op::Ingest(rows[..20].to_vec()),
                    Op::EvictOldest(15),
                    Op::Ingest(rows[20..].to_vec()),
                    Op::Evict(vec![40, 201]),
                    Op::Reoptimize,
                ] {
                    run_op(&mut c, &mut s, op).unwrap();
                }
                let (_, recovered) = DurableStore::open(disk).unwrap();
                Run {
                    snapshot: recovered.snapshot.unwrap(),
                    records: recovered.entries,
                    shards,
                    arrival: data.row_values(290).unwrap(),
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            #[test]
            fn a_mutated_journal_record_never_panics(
                which in 0usize..64,
                edits in proptest::collection::vec((0u16..=u16::MAX, 1u8..=255), 1..4),
            ) {
                let run = run();
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
                if let Ok((mut c, _)) = Coordinator::recover(Box::new(disk), None) {
                    let mut shards: Vec<ShardNode> = run
                        .shards
                        .iter()
                        .map(|b| ShardNode::from_snapshot(b).unwrap())
                        .collect();
                    resync(&mut c, &mut shards);
                    let _ = run_op(&mut c, &mut shards, Op::Ingest(vec![run.arrival.clone()]));
                }
            }
        }
    }

    #[test]
    fn literal_engine_is_rejected() {
        let data = workload();
        let cfg = StreamingConfig::from_base(
            FairKmConfig::new(3)
                .with_seed(1)
                .with_delta_engine(DeltaEngine::Literal),
        );
        assert!(matches!(
            ShardedFairKm::bootstrap(data, cfg, 2, 16),
            Err(ShardError::LiteralEngine)
        ));
    }
}
