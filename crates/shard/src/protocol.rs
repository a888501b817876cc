//! The coordinator/shard wire protocol: client operations, the replicated
//! log, state transfers, and the asks and answers a machine request is
//! scattered into.
//!
//! Every mutation of the clustering is a [`LogEntry`] in a single totally
//! ordered log numbered by the coordinator; shards apply the log in order,
//! so every replica walks the exact float-operation sequence of the
//! single-node engine (see the crate docs for the full argument). The
//! coordinator keeps no history: a shard that fell behind adopts its
//! [`ShardState`] at the current version instead. Compute
//! scatters (arrival scoring, move proposals, chunk folds) are the step
//! machine's requests split by owner: **pure reads** at a pinned log
//! version — they can be re-issued after a crash and answered twice
//! without affecting replica state.

use fairkm_core::{
    AggregateDelta, Answer, ClusterModel, EvictReport, FairKmError, IngestReport, LogEntry,
    SlotRow, SlotTable,
};
use fairkm_data::Value;

/// A client operation posted to the coordinator — the message form of the
/// single-node [`fairkm_core::StreamingFairKm`] mutation API.
#[derive(Debug, Clone)]
pub enum Op {
    /// Ingest a batch of raw rows (validated against the frozen schema).
    Ingest(Vec<Vec<Value>>),
    /// Evict the given live slots.
    Evict(Vec<usize>),
    /// Evict the `count` oldest live slots.
    EvictOldest(usize),
    /// Run windowed re-optimization passes to convergence.
    Reoptimize,
}

/// The coordinator's result for one completed [`Op`], mirroring the
/// single-node return types exactly.
#[derive(Debug)]
pub enum OpOutcome {
    /// Result of an [`Op::Ingest`].
    Ingest(Result<IngestReport, FairKmError>),
    /// Result of an [`Op::Evict`] or [`Op::EvictOldest`].
    Evict(Result<EvictReport, FairKmError>),
    /// Moves made by an [`Op::Reoptimize`].
    Reoptimize(usize),
}

/// Protocol messages. Coordinator = node 0, shard `s` = node `s + 1`.
///
/// A [`Msg::Ask`] carries the log `version` it must be answered at; a
/// shard that has not yet applied that much log defers it until it has.
/// A [`Msg::Answer`] echoes the ask's id `req`, which the coordinator uses
/// to discard duplicates from crash-recovery re-issues.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client → coordinator: run one operation.
    Op(Op),
    /// Coordinator → every shard: the log entries
    /// `first..first + entries.len()` one commit appended. Links are not
    /// FIFO, so batches can arrive out of order; shards buffer gaps and
    /// apply in log order.
    Log {
        /// Log index of the first entry in this batch.
        first: u64,
        /// The entries, in log order.
        entries: Vec<LogEntry>,
    },
    /// Coordinator → shard (shard → shard along a fold chain): one
    /// shard's part of the machine's pending request.
    Ask {
        /// Ask id.
        req: u64,
        /// Log version the answer must be computed at.
        version: u64,
        /// What to answer.
        part: Part,
    },
    /// Shard → coordinator: the answer to ask `req` — one part of the
    /// machine's [`Answer`], gathered with [`Answer::absorb`].
    Answer {
        /// Ask id being answered.
        req: u64,
        /// The part.
        answer: Answer,
    },
    /// Coordinator → shard: the reply to a [`Msg::SyncRequest`] from a
    /// shard behind the current version. The shard adopts it only if it
    /// is newer than its replica (a late one must not move it back).
    Transfer(Box<ShardState>),
    /// Shard → coordinator after a restart: "I am shard `shard`, my
    /// replica is at log version `have`." If `have` is behind, the
    /// coordinator replies with a [`Msg::Transfer`]; either way it
    /// re-issues every outstanding ask (answers are pure, duplicates are
    /// discarded by ask id).
    SyncRequest {
        /// Rejoining shard index.
        shard: usize,
        /// Log version the shard recovered to.
        have: u64,
    },
    /// Shard → coordinator in place of an answer: an ask arrived for a log
    /// version the shard's replica has passed, so it was not answered (no
    /// answer is computed at another version than its ask's). A leftover
    /// ask — re-issued, or from a dead coordinator incarnation — needs
    /// nothing more; `have` past the coordinator's log is a replica ahead
    /// of the log ([`crate::ShardError::ShardAhead`]).
    Passed {
        /// Shard index.
        shard: usize,
        /// Log version the shard's replica is at.
        have: u64,
    },
}

/// One shard's replica at one log version: λ, the model, and the slot
/// rows the placement plan assigns to the shard (tombstones included), as
/// one [`SlotTable`] beside the column of their ascending slot ids.
/// Replicas at one version are bitwise equal, so this is the state a
/// shard reaches by applying the log up to `version`. Provisioning builds
/// every shard from one, and a lagging shard resyncs by adopting one.
#[derive(Debug, Clone)]
pub struct ShardState {
    pub(crate) lambda: f64,
    /// Log entries applied so far.
    pub(crate) version: u64,
    pub(crate) model: ClusterModel,
    /// The owned slot ids, ascending: the slot at each position of
    /// `table`. An insert appends the next slot, so they stay sorted.
    pub(crate) slots: Vec<usize>,
    /// The owned rows, in slot order.
    pub(crate) table: SlotTable<'static>,
}

/// One shard's part of a machine [`fairkm_core::Request`].
#[derive(Debug, Clone)]
pub enum Part {
    /// Score the arrivals `(slot, row)` routed to this shard:
    /// [`Answer::Scores`].
    Score(Vec<(usize, SlotRow)>),
    /// Propose moves for the owned live slots in `start..end`:
    /// [`Answer::Proposals`].
    Window {
        /// First slot (inclusive).
        start: usize,
        /// Last slot (exclusive).
        end: usize,
    },
    /// Find the first owned live slot in `start..end` with an improving
    /// move: [`Answer::First`] (the coordinator keeps the lowest slot any
    /// shard found).
    First {
        /// First slot (inclusive).
        start: usize,
        /// Last slot (exclusive).
        end: usize,
    },
    /// One hop of a chunk's fold chain: fold the owned live slots of
    /// `segments[idx]` into `acc` in slot order, then ask the owner of
    /// the next segment — or, after the last, answer [`Answer::Chunks`].
    Fold {
        /// Chunk index in the engine's chunk decomposition.
        chunk: usize,
        /// Maximal same-owner runs `(owner, start, end)` covering the
        /// chunk, in slot order.
        segments: Vec<(usize, usize, usize)>,
        /// Index of the segment this hop folds.
        idx: usize,
        /// The running partial (zeroed at the chain head).
        acc: AggregateDelta,
    },
}
