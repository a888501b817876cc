//! The coordinator/shard wire protocol: client operations, the replicated
//! log, and the asks and answers a machine request is scattered into.
//!
//! Every mutation of the clustering is a [`LogEntry`] in a single totally
//! ordered log owned by the coordinator; shards apply the log in order, so
//! every replica walks the exact float-operation sequence of the
//! single-node engine (see the crate docs for the full argument). Compute
//! scatters (arrival scoring, move proposals, chunk folds) are the step
//! machine's requests split by owner: **pure reads** at a pinned log
//! version — they can be re-issued after a crash and answered twice
//! without affecting replica state.

use fairkm_core::{
    AggregateDelta, Answer, EvictReport, FairKmError, IngestReport, LogEntry, SlotRow,
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
    /// Coordinator → shard: log entries `first..first + entries.len()`.
    /// Also the reply to a `SyncRequest` (the suffix a rejoining shard is
    /// missing). Links are not FIFO, so batches can arrive out of order;
    /// shards buffer gaps and apply in log order.
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
    /// Shard → coordinator after a restart: "I am shard `shard`, my
    /// replica is at log version `have` — send me the rest." The
    /// coordinator replies with a [`Msg::Log`] suffix and re-issues every
    /// outstanding ask (answers are pure, duplicates are discarded by
    /// ask id).
    SyncRequest {
        /// Rejoining shard index.
        shard: usize,
        /// Log version the shard recovered to.
        have: u64,
    },
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
