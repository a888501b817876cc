//! The coordinator: owner of the replicated mutation log, the durable
//! master copy of the slot rows, and the message-driven replay of the
//! single-node streaming driver.
//!
//! Every control-flow decision of [`fairkm_core::StreamingFairKm`] —
//! batch validation order, arrival scoring against frozen caches, the
//! windowed accept/fallback optimizer, the rebuild cadence, drift-triggered
//! re-optimization, trace bookkeeping — is replayed here with the same
//! float arithmetic, with the compute legs scattered to shards. The
//! coordinator also maintains its own full replica (the single-node
//! [`ClusterModel`] itself) so objectives and accept tests are evaluated
//! locally at the exact bits every shard holds.
//!
//! The front-end and the bookkeeping are the single-node types, not
//! copies: arrivals go through the engine's own [`RowCodec`] (shared by
//! `Arc`), and the parameters, drift baseline, eviction cursor, trace and
//! counters live in a [`DriverLedger`] updated through the same methods
//! the single-node driver calls. Sharded and single-node runs accept the
//! same rows and take the same drift decisions by construction.
//!
//! ## Durable layout
//!
//! The *books* — the ledger (with the δ-engine byte, always incremental
//! here), the fallback count and the request-id counter — are encoded
//! once and used twice: a snapshot is the placement plan, the books, the
//! row codec, the model, the slot rows and the log; a `REC_OP_DONE`
//! journal record is its tag followed by the books. Decoding checks the
//! codec against the model ([`RowCodec::check`]) and every slot row
//! against the model's shape and counts.
//!
//! ## Invariants the protocol's determinism rests on
//!
//! * **Frozen log while scattered.** The log never grows while requests
//!   are outstanding, so every accepted response was computed at exactly
//!   the request's pinned version.
//! * **Ordered reduction.** Window proposals are staged in ascending slot
//!   order; rebuild chunk partials are merged in chunk-index order from a
//!   zeroed identity; log entries apply in log order everywhere.
//! * **Pure scatters.** Requests are read-only at a pinned version, so
//!   crash recovery may re-issue them all and discard duplicate responses
//!   by request id.
//! * **Journal before broadcast.** With a journal attached
//!   ([`Coordinator::make_durable`]), every mutation batch is appended and
//!   fsynced to the write-ahead log *before* any shard sees it, and a
//!   bookkeeping record is sealed before an operation's result surfaces.
//!   The durable log therefore always covers every externalized effect:
//!   [`Coordinator::recover`] never has to roll a shard back. A journal
//!   write that fails mid-batch **wedges** the coordinator — it stops
//!   broadcasting and refuses further work rather than let replicas run
//!   ahead of durable state; recovery reopens from the store. The wedge
//!   covers the *whole* operation: once set, no later journal record
//!   (in particular the sealing `OP_DONE`), no client-visible result,
//!   and no snapshot can be written, so a transiently failing backend
//!   can never seal bookkeeping over a missing entry batch.

use crate::plan::ShardPlan;
use crate::protocol::{LogEntry, Msg, Op, OpOutcome};
use crate::shard::{Outbox, ShardNode};
use crate::ShardError;
use fairkm_core::wire::{self, Reader, WireError};
use fairkm_core::{
    AggregateDelta, ClusterModel, DeltaEngine, DriverLedger, EvictReport, IngestReport, RowCodec,
    ShardParts, SlotRow, MOVE_EPS, TOMBSTONE,
};
use fairkm_data::Value;
use fairkm_store::{DurableStore, StorageBackend};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Journal record holding one replicated entry batch.
const REC_ENTRIES: u8 = 0;
/// Journal record sealing one completed operation's bookkeeping.
const REC_OP_DONE: u8 = 1;
/// Request ids are issued in per-incarnation blocks of `2^32`: recovery
/// jumps to the next block so stale responses from a dead in-flight
/// operation can never be claimed by the new incarnation.
const REQ_EPOCH_SHIFT: u32 = 32;

/// What [`Coordinator::recover`] rebuilt from the durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorRecovery {
    /// Sequence of the snapshot recovery was based on.
    pub snapshot_seq: u64,
    /// Log entries replayed from the journal suffix.
    pub replayed_entries: usize,
    /// Completed operations replayed from the journal suffix.
    pub replayed_ops: usize,
    /// `true` when the journal ends with entry batches that no completed
    /// operation sealed — the coordinator crashed mid-operation. The
    /// batches are kept (shards may have applied them; the log never
    /// rolls back) but the in-flight operation produced no result.
    pub interrupted: bool,
    /// Byte offset a torn final journal segment was truncated to.
    pub truncated_tail: Option<u64>,
    /// Corrupt snapshots skipped in favor of an older base.
    pub skipped_snapshots: Vec<String>,
    /// Defective journal segments wholly below the recovery base, skipped
    /// because the base snapshot already covers their entries.
    pub skipped_segments: Vec<String>,
}

/// What triggered the in-flight re-optimization — determines which report
/// is produced when it converges.
#[derive(Debug)]
enum ReoptOrigin {
    /// An explicit [`Op::Reoptimize`].
    Explicit,
    /// Drift after an ingest batch (carries the pending report fields).
    Ingest {
        start: usize,
        len: usize,
        clusters: Vec<usize>,
    },
    /// Drift after an evict batch.
    Evict { count: usize, advance_oldest: bool },
}

/// Continuation after a distributed rebuild completes.
#[derive(Debug, Clone, Copy)]
enum RebuildCont {
    /// Run the sequential fallback scan over the rejected window.
    Fallback { start: usize, end: usize },
    /// End-of-pass rebuild: re-read the objective and close the pass.
    PassEnd,
}

/// The stage a re-optimization is currently in.
#[derive(Debug)]
enum ReoptSub {
    /// Waiting for window proposal responses.
    Propose {
        end: usize,
        await_reqs: usize,
        proposals: Vec<(usize, usize)>,
    },
    /// Sequential fallback scan over a rejected window.
    Fallback {
        end: usize,
        next: usize,
        fallback_moves: usize,
    },
    /// Waiting for chunk-fold chains of a distributed rebuild.
    Rebuild {
        chunks: Vec<Option<AggregateDelta>>,
        remaining: usize,
        cont: RebuildCont,
    },
}

/// An in-flight re-optimization (the state of `run_windowed_passes` +
/// `windowed_pass`, unrolled into a message-driven machine).
#[derive(Debug)]
struct ReoptState {
    origin: ReoptOrigin,
    pass: usize,
    current: f64,
    total_moves: usize,
    w: usize,
    start: usize,
    moved: usize,
    sub: ReoptSub,
}

/// An in-flight ingest batch (waiting for arrival scores).
#[derive(Debug)]
struct IngestPhase {
    start: usize,
    items: Vec<(usize, SlotRow)>,
    scores: BTreeMap<usize, usize>,
    await_reqs: usize,
}

#[derive(Debug)]
enum Phase {
    Idle,
    Ingest(IngestPhase),
    Reopt(ReoptState),
}

/// The coordinator node (node 0). Drive it with [`Coordinator::handle`];
/// completed operations surface through [`Coordinator::take_result`].
#[derive(Debug)]
pub struct Coordinator {
    plan: ShardPlan,
    /// The frozen row front-end arrivals are validated and encoded
    /// through — shared with the single-node engine it was split from.
    codec: Arc<RowCodec>,
    model: ClusterModel,
    /// Per-slot payloads; `cluster` is the current assignment
    /// ([`TOMBSTONE`] for evicted slots) — the durable master copy.
    slots: Vec<SlotRow>,
    log: Vec<LogEntry>,
    /// The single-node driver's parameters and bookkeeping.
    ledger: DriverLedger,
    fallbacks: usize,
    ops: VecDeque<Op>,
    phase: Phase,
    next_req: u64,
    /// Unanswered requests `req → (target node, message)`, kept verbatim
    /// so crash recovery can re-issue them.
    outstanding: BTreeMap<u64, (usize, Msg)>,
    results: VecDeque<OpOutcome>,
    /// Write-ahead journal; `None` runs the coordinator volatile (the
    /// in-process driver and durability-free simulations).
    journal: Option<DurableStore<Box<dyn StorageBackend>>>,
    /// Journal a fresh snapshot after this many completed operations.
    snapshot_every: Option<u64>,
    ops_since_snapshot: u64,
    /// Set when a journal write failed: the coordinator refuses further
    /// mutations rather than externalize effects the durable log missed.
    wedged: bool,
}

impl Coordinator {
    /// Split a bootstrapped single-node engine into a coordinator and its
    /// shard nodes: the coordinator keeps the shared row codec, the
    /// driver ledger, the full payload table, and one replica; every shard
    /// gets a clone of the replica plus its owned slice of the payloads.
    /// All replicas start bitwise identical at log version 0.
    pub fn provision(parts: ShardParts, plan: ShardPlan) -> (Self, Vec<ShardNode>) {
        let coordinator = Self::new(plan, parts.codec, parts.ledger, parts.model, parts.slots);
        let shards = coordinator.shard_nodes();
        (coordinator, shards)
    }

    /// An idle, volatile coordinator with an empty log.
    fn new(
        plan: ShardPlan,
        codec: Arc<RowCodec>,
        ledger: DriverLedger,
        model: ClusterModel,
        slots: Vec<SlotRow>,
    ) -> Self {
        Self {
            plan,
            codec,
            model,
            slots,
            log: Vec::new(),
            ledger,
            fallbacks: 0,
            ops: VecDeque::new(),
            phase: Phase::Idle,
            next_req: 0,
            outstanding: BTreeMap::new(),
            results: VecDeque::new(),
            journal: None,
            snapshot_every: None,
            ops_since_snapshot: 0,
            wedged: false,
        }
    }

    /// Shard replicas at log version 0 built from this coordinator's state:
    /// each gets a clone of the model and the slot rows the plan assigns
    /// to it. Only meaningful while the log is empty.
    pub(crate) fn shard_nodes(&self) -> Vec<ShardNode> {
        (0..self.plan.shards)
            .map(|id| {
                let owned: BTreeMap<usize, SlotRow> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| self.plan.owner(*slot) == id)
                    .map(|(slot, d)| (slot, d.clone()))
                    .collect();
                ShardNode::provision(
                    id,
                    self.plan,
                    self.ledger.lambda(),
                    self.model.clone(),
                    owned,
                )
            })
            .collect()
    }

    /// Handle one protocol message, staging sends on `out`. A wedged
    /// coordinator (failed journal write) ignores everything — reads stay
    /// answerable through the accessors, but no effect may be
    /// externalized past the durable log.
    pub fn handle(&mut self, msg: Msg, out: &mut Outbox) {
        if self.wedged {
            return;
        }
        match msg {
            Msg::Op(op) => {
                self.ops.push_back(op);
                self.try_advance(out);
            }
            Msg::ArrivalScores { req, scores } => {
                if !self.claim(req) {
                    return;
                }
                let Phase::Ingest(mut p) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                    unreachable!("arrival scores outside an ingest phase");
                };
                p.scores.extend(scores);
                p.await_reqs -= 1;
                if p.await_reqs == 0 {
                    self.apply_ingest(p, out);
                } else {
                    self.phase = Phase::Ingest(p);
                }
            }
            Msg::Proposals { req, proposals } => {
                if !self.claim(req) {
                    return;
                }
                let Phase::Reopt(mut r) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                    unreachable!("proposals outside a re-optimization");
                };
                let ReoptSub::Propose {
                    end,
                    ref mut await_reqs,
                    proposals: ref mut collected,
                } = r.sub
                else {
                    unreachable!("proposals outside a propose stage");
                };
                collected.extend(proposals);
                *await_reqs -= 1;
                if *await_reqs == 0 {
                    let staged = std::mem::take(collected);
                    self.window_done(r, end, staged, out);
                } else {
                    self.phase = Phase::Reopt(r);
                }
            }
            Msg::OneProposal { req, slot, to } => {
                if !self.claim(req) {
                    return;
                }
                let Phase::Reopt(mut r) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                    unreachable!("one-proposal outside a re-optimization");
                };
                let ReoptSub::Fallback {
                    ref mut fallback_moves,
                    ..
                } = r.sub
                else {
                    unreachable!("one-proposal outside a fallback scan");
                };
                if let Some(to) = to {
                    // Accepted fallback move: apply + refresh before the
                    // next slot is scored (`per_move_scan`, verbatim).
                    let from = self.slots[slot].cluster;
                    debug_assert_ne!(from, to);
                    let d = &self.slots[slot];
                    self.model
                        .move_row(from, to, &d.row, &d.cat, &d.num, d.sqnorm);
                    self.slots[slot].cluster = to;
                    self.model.refresh_cache();
                    let data = self.slots[slot].clone();
                    if !self.append_and_broadcast(
                        vec![LogEntry::Move {
                            slot,
                            from,
                            to,
                            data,
                        }],
                        out,
                    ) {
                        return; // wedged: abort the fallback scan
                    }
                    *fallback_moves += 1;
                }
                self.step_fallback(r, out);
            }
            Msg::ChunkDone { req, chunk, acc } => {
                if !self.claim(req) {
                    return;
                }
                let Phase::Reopt(mut r) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                    unreachable!("chunk completion outside a re-optimization");
                };
                let ReoptSub::Rebuild {
                    ref mut chunks,
                    ref mut remaining,
                    cont,
                } = r.sub
                else {
                    unreachable!("chunk completion outside a rebuild");
                };
                debug_assert!(chunks[chunk].is_none(), "chunk completed twice");
                chunks[chunk] = Some(acc);
                *remaining -= 1;
                if *remaining == 0 {
                    let parts = std::mem::take(chunks);
                    self.rebuild_done(r, parts, cont, out);
                } else {
                    self.phase = Phase::Reopt(r);
                }
            }
            Msg::SyncRequest { shard, have } => {
                // Ship the missing log suffix, then re-issue every
                // outstanding request: any chain or request dropped while
                // the shard was down is restarted, and duplicate answers
                // are discarded by request id.
                let entries = self.log[have as usize..].to_vec();
                out.push((
                    shard + 1,
                    Msg::Log {
                        first: have,
                        entries,
                    },
                ));
                for (target, msg) in self.outstanding.values() {
                    out.push((*target, msg.clone()));
                }
            }
            // Requests are never addressed to the coordinator.
            _ => unreachable!("unexpected message at the coordinator"),
        }
    }

    /// Start queued operations while idle.
    fn try_advance(&mut self, out: &mut Outbox) {
        while matches!(self.phase, Phase::Idle) && !self.wedged {
            let Some(op) = self.ops.pop_front() else {
                break;
            };
            match op {
                Op::Ingest(rows) => self.start_ingest(rows, out),
                Op::Evict(slots) => self.start_evict(slots, false, out),
                Op::EvictOldest(count) => {
                    // The single-node oldest-live scan, against the
                    // maintained cursor.
                    let slots = self
                        .ledger
                        .oldest_live(count, self.slots.len(), |s| self.is_live(s));
                    self.start_evict(slots, true, out);
                }
                Op::Reoptimize => {
                    if self.ledger.reopt_passes() == 0 {
                        // Zero passes: `run_windowed_passes` loops zero
                        // times; only the counters and baseline move.
                        let objective = self.ledger.objective();
                        self.ledger.close_reopt(objective, self.model.live());
                        self.complete_ok(OpOutcome::Reoptimize(0));
                        continue;
                    }
                    self.start_reopt(ReoptOrigin::Explicit, out);
                }
            }
        }
    }

    // ---- ingest ----------------------------------------------------

    fn start_ingest(&mut self, rows: Vec<Vec<Value>>, out: &mut Outbox) {
        let start = self.slots.len();
        if rows.is_empty() {
            self.complete_ok(OpOutcome::Ingest(Ok(IngestReport {
                slots: start..start,
                clusters: Vec::new(),
                objective: self.ledger.objective(),
                reoptimized: false,
                reopt_moves: 0,
            })));
            return;
        }
        // Validate + encode every row before mutating anything — the
        // single-node atomicity contract.
        let encoded = rows
            .iter()
            .map(|row| self.codec.encode(row, start))
            .collect::<Result<Vec<_>, _>>();
        let items: Vec<(usize, SlotRow)> = match encoded {
            Ok(rows) => (start..).zip(rows).collect(),
            Err(e) => {
                self.results.push_back(OpOutcome::Ingest(Err(e)));
                return;
            }
        };
        // Scatter arrival scoring by owner; every score is computed
        // against the caches frozen at the current version.
        let mut by_shard: BTreeMap<usize, Vec<(usize, SlotRow)>> = BTreeMap::new();
        for (slot, d) in &items {
            by_shard
                .entry(self.plan.owner(*slot))
                .or_default()
                .push((*slot, d.clone()));
        }
        let version = self.version();
        let mut await_reqs = 0;
        for (shard, batch) in by_shard {
            let req = self.fresh_req();
            self.issue(
                req,
                shard + 1,
                Msg::ScoreArrivals {
                    req,
                    version,
                    items: batch,
                },
                out,
            );
            await_reqs += 1;
        }
        self.phase = Phase::Ingest(IngestPhase {
            start,
            items,
            scores: BTreeMap::new(),
            await_reqs,
        });
    }

    fn apply_ingest(&mut self, p: IngestPhase, out: &mut Outbox) {
        let IngestPhase {
            start,
            items,
            scores,
            ..
        } = p;
        let len = items.len();
        let clusters: Vec<usize> = (start..start + len).map(|slot| scores[&slot]).collect();
        // Delta-apply in arrival order, exactly like the single-node
        // ingest loop.
        let mut entries = Vec::with_capacity(len);
        for ((slot, mut item), &c) in items.into_iter().zip(&clusters) {
            item.cluster = c;
            self.model
                .insert_row(c, &item.row, &item.cat, &item.num, item.sqnorm);
            self.slots.push(item.clone());
            entries.push(LogEntry::Insert { slot, data: item });
        }
        if !self.append_and_broadcast(entries, out) {
            return; // wedged: abort the ingest, surface nothing
        }
        self.ledger.record_batch(&mut self.model, len, 0);
        self.maybe_reoptimize(
            ReoptOrigin::Ingest {
                start,
                len,
                clusters,
            },
            out,
        );
    }

    // ---- evict -----------------------------------------------------

    fn start_evict(&mut self, slots: Vec<usize>, advance_oldest: bool, out: &mut Outbox) {
        if let Err(e) = DriverLedger::check_evict(&slots, |s| self.is_live(s)) {
            self.results.push_back(OpOutcome::Evict(Err(e)));
            return;
        }
        if slots.is_empty() {
            if advance_oldest {
                self.advance_oldest_cursor();
            }
            self.complete_ok(OpOutcome::Evict(Ok(EvictReport {
                evicted: 0,
                objective: self.ledger.objective(),
                reoptimized: false,
                reopt_moves: 0,
            })));
            return;
        }
        let mut entries = Vec::with_capacity(slots.len());
        for &slot in &slots {
            let d = &self.slots[slot];
            self.model
                .remove_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm);
            let data = self.slots[slot].clone(); // cluster = the one it left
            self.slots[slot].cluster = TOMBSTONE;
            entries.push(LogEntry::Remove { slot, data });
        }
        if !self.append_and_broadcast(entries, out) {
            return; // wedged: abort the evict, surface nothing
        }
        self.ledger.record_batch(&mut self.model, 0, slots.len());
        self.maybe_reoptimize(
            ReoptOrigin::Evict {
                count: slots.len(),
                advance_oldest,
            },
            out,
        );
    }

    fn advance_oldest_cursor(&mut self) {
        let slots = &self.slots;
        self.ledger
            .advance_oldest(slots.len(), |s| slots[s].cluster != TOMBSTONE);
    }

    // ---- re-optimization -------------------------------------------

    /// The single-node drift check; converges the origin directly when no
    /// re-optimization is needed.
    fn maybe_reoptimize(&mut self, origin: ReoptOrigin, out: &mut Outbox) {
        if !self.ledger.drifted(self.model.live()) {
            return self.finish_origin(origin, false, 0, out);
        }
        self.start_reopt(origin, out);
    }

    /// Start the first pass of a re-optimization from the current
    /// objective.
    fn start_reopt(&mut self, origin: ReoptOrigin, out: &mut Outbox) {
        let r = ReoptState {
            origin,
            pass: 0,
            current: self.ledger.objective(),
            total_moves: 0,
            w: 0,
            start: 0,
            moved: 0,
            sub: ReoptSub::Fallback {
                end: 0,
                next: 0,
                fallback_moves: 0,
            },
        };
        self.begin_pass(r, out);
    }

    fn begin_pass(&mut self, mut r: ReoptState, out: &mut Outbox) {
        r.w = self.ledger.window(self.slots.len());
        r.start = 0;
        r.moved = 0;
        self.begin_window(r, out);
    }

    /// Scatter one window's move proposals (or close the pass when the
    /// slots are exhausted).
    fn begin_window(&mut self, mut r: ReoptState, out: &mut Outbox) {
        let n = self.slots.len();
        if r.start >= n {
            return self.end_pass(r, out);
        }
        let end = r.start.saturating_add(r.w).min(n);
        let mut shards: Vec<usize> = self
            .plan
            .segments(r.start..end)
            .iter()
            .map(|&(owner, _, _)| owner)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        let version = self.version();
        let mut await_reqs = 0;
        for shard in shards {
            let req = self.fresh_req();
            self.issue(
                req,
                shard + 1,
                Msg::ProposeBatch {
                    req,
                    version,
                    start: r.start,
                    end,
                },
                out,
            );
            await_reqs += 1;
        }
        r.sub = ReoptSub::Propose {
            end,
            await_reqs,
            proposals: Vec::new(),
        };
        self.phase = Phase::Reopt(r);
    }

    /// All proposals for a window arrived: stage them in ascending slot
    /// order, apply speculatively, and accept or fall back — the
    /// single-node `windowed_pass` window body.
    fn window_done(
        &mut self,
        mut r: ReoptState,
        end: usize,
        mut proposals: Vec<(usize, usize)>,
        out: &mut Outbox,
    ) {
        proposals.sort_unstable_by_key(|&(slot, _)| slot);
        if proposals.is_empty() {
            r.start = end;
            return self.begin_window(r, out);
        }
        let staged: Vec<(usize, usize, usize)> = proposals
            .iter()
            .map(|&(slot, to)| (slot, self.slots[slot].cluster, to))
            .collect();
        for &(slot, from, to) in &staged {
            let d = &self.slots[slot];
            self.model
                .move_row(from, to, &d.row, &d.cat, &d.num, d.sqnorm);
            self.slots[slot].cluster = to;
        }
        self.model.refresh_cache();
        let after = self.model.objective_cached(self.ledger.lambda());
        if after < r.current - MOVE_EPS {
            // Accept: replicate the moves (the coordinator has already
            // applied them).
            let entries: Vec<LogEntry> = staged
                .iter()
                .map(|&(slot, from, to)| LogEntry::Move {
                    slot,
                    from,
                    to,
                    data: self.slots[slot].clone(),
                })
                .collect();
            if !self.append_and_broadcast(entries, out) {
                return; // wedged: abort the pass
            }
            r.moved += staged.len();
            r.current = after;
            r.start = end;
            self.begin_window(r, out)
        } else {
            // The simultaneous application hurt: restore the assignments
            // and rebuild exactly (shards never applied the window, so
            // their payload clusters already are the restored
            // assignments), then descend one move at a time.
            self.fallbacks += 1;
            for &(slot, from, _) in &staged {
                self.slots[slot].cluster = from;
            }
            let start = r.start;
            self.begin_rebuild(r, RebuildCont::Fallback { start, end }, out)
        }
    }

    /// Launch one chunk-fold chain per engine chunk — the distributed
    /// form of the single-node `rebuild()`.
    fn begin_rebuild(&mut self, mut r: ReoptState, cont: RebuildCont, out: &mut Outbox) {
        let ranges: Vec<std::ops::Range<usize>> =
            fairkm_parallel::chunk_ranges(self.slots.len()).collect();
        if ranges.is_empty() {
            // No slots: the rebuilt aggregates are the zeroed identity.
            let total = self.model.zeroed_delta();
            return self.install_total(r, total, cont, out);
        }
        let version = self.version();
        for (chunk, range) in ranges.iter().enumerate() {
            let segments = self.plan.segments(range.clone());
            let req = self.fresh_req();
            let target = segments[0].0 + 1;
            self.issue(
                req,
                target,
                Msg::ChunkFold {
                    req,
                    version,
                    chunk,
                    segments,
                    idx: 0,
                    acc: self.model.zeroed_delta(),
                },
                out,
            );
        }
        let remaining = ranges.len();
        r.sub = ReoptSub::Rebuild {
            chunks: vec![None; remaining],
            remaining,
            cont,
        };
        self.phase = Phase::Reopt(r);
    }

    /// All chunks arrived: merge them in chunk-index order from the
    /// zeroed identity (the `fold_chunks` left fold, verbatim) and
    /// replicate the install.
    fn rebuild_done(
        &mut self,
        r: ReoptState,
        chunks: Vec<Option<AggregateDelta>>,
        cont: RebuildCont,
        out: &mut Outbox,
    ) {
        let mut total = self.model.zeroed_delta();
        for acc in chunks {
            total = total.merge(acc.expect("rebuild completed with a missing chunk"));
        }
        self.install_total(r, total, cont, out);
    }

    fn install_total(
        &mut self,
        mut r: ReoptState,
        total: AggregateDelta,
        cont: RebuildCont,
        out: &mut Outbox,
    ) {
        if !self.append_and_broadcast(vec![LogEntry::Install { agg: total.clone() }], out) {
            return; // wedged: abort before installing past the log
        }
        self.model.install(total);
        match cont {
            RebuildCont::Fallback { start, end } => {
                r.sub = ReoptSub::Fallback {
                    end,
                    next: start,
                    fallback_moves: 0,
                };
                self.step_fallback(r, out)
            }
            RebuildCont::PassEnd => {
                r.current = self.model.objective_cached(self.ledger.lambda());
                self.finish_pass(r, out)
            }
        }
    }

    /// Advance the sequential fallback scan: request a proposal for the
    /// next live slot, or close the window when the range is exhausted —
    /// `per_move_scan` as a message-driven loop.
    fn step_fallback(&mut self, mut r: ReoptState, out: &mut Outbox) {
        let ReoptSub::Fallback {
            end,
            ref mut next,
            fallback_moves,
        } = r.sub
        else {
            unreachable!("fallback step outside a fallback scan");
        };
        while *next < end {
            let slot = *next;
            *next += 1;
            if self.slots[slot].cluster == TOMBSTONE {
                continue; // tombstones propose no move
            }
            let version = self.version();
            let req = self.fresh_req();
            let target = self.plan.owner(slot) + 1;
            self.issue(req, target, Msg::ProposeOne { req, version, slot }, out);
            self.phase = Phase::Reopt(r);
            return;
        }
        // Scan finished: close the window like the single-node fallback
        // tail.
        if fallback_moves > 0 {
            r.current = self.model.objective_cached(self.ledger.lambda());
        }
        r.moved += fallback_moves;
        r.start = end;
        self.begin_window(r, out)
    }

    /// A pass's windows are exhausted — the tail of `run_windowed_passes`.
    fn end_pass(&mut self, r: ReoptState, out: &mut Outbox) {
        if r.moved > 0 {
            // Same drift-cancelling rebuild cadence as the single-node
            // loop: once per pass that moved anything.
            self.begin_rebuild(r, RebuildCont::PassEnd, out)
        } else {
            self.finish_pass(r, out)
        }
    }

    fn finish_pass(&mut self, mut r: ReoptState, out: &mut Outbox) {
        self.ledger.push_trace(r.current);
        r.total_moves += r.moved;
        r.pass += 1;
        if r.moved == 0 || r.pass >= self.ledger.reopt_passes() {
            self.finish_reopt(r, out)
        } else {
            self.begin_pass(r, out)
        }
    }

    fn finish_reopt(&mut self, r: ReoptState, out: &mut Outbox) {
        self.ledger.close_reopt(r.current, self.model.live());
        self.finish_origin(r.origin, true, r.total_moves, out);
    }

    /// Produce the pending operation's report and resume the queue.
    fn finish_origin(
        &mut self,
        origin: ReoptOrigin,
        reoptimized: bool,
        reopt_moves: usize,
        out: &mut Outbox,
    ) {
        self.phase = Phase::Idle;
        match origin {
            ReoptOrigin::Explicit => {
                self.complete_ok(OpOutcome::Reoptimize(reopt_moves));
            }
            ReoptOrigin::Ingest {
                start,
                len,
                clusters,
            } => {
                self.complete_ok(OpOutcome::Ingest(Ok(IngestReport {
                    slots: start..start + len,
                    clusters,
                    objective: self.ledger.objective(),
                    reoptimized,
                    reopt_moves,
                })));
            }
            ReoptOrigin::Evict {
                count,
                advance_oldest,
            } => {
                if advance_oldest {
                    self.advance_oldest_cursor();
                }
                self.complete_ok(OpOutcome::Evict(Ok(EvictReport {
                    evicted: count,
                    objective: self.ledger.objective(),
                    reoptimized,
                    reopt_moves,
                })));
            }
        }
        self.try_advance(out);
    }

    // ---- plumbing --------------------------------------------------

    fn version(&self) -> u64 {
        self.log.len() as u64
    }

    fn fresh_req(&mut self) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// Record an outstanding request and stage its send.
    fn issue(&mut self, req: u64, target: usize, msg: Msg, out: &mut Outbox) {
        self.outstanding.insert(req, (target, msg.clone()));
        out.push((target, msg));
    }

    /// Claim a response; `false` means the request was already answered
    /// (a crash-recovery duplicate) and the response must be ignored.
    fn claim(&mut self, req: u64) -> bool {
        self.outstanding.remove(&req).is_some()
    }

    /// Append entries to the log, journal them durably, and replicate
    /// them to every shard. Only called while no requests are
    /// outstanding, which is what pins every scattered computation to a
    /// single log version. The journal write comes **first**: a batch no
    /// shard has seen may be lost to a crash, but a batch any shard
    /// applied is always on the durable log — recovery never rolls
    /// replicas back.
    ///
    /// Returns `false` when the journal write wedged the coordinator:
    /// the caller must abort the operation immediately — continuing
    /// would journal later records (e.g. the small `REC_OP_DONE`) over
    /// a hole left by this failed batch.
    #[must_use]
    fn append_and_broadcast(&mut self, entries: Vec<LogEntry>, out: &mut Outbox) -> bool {
        debug_assert!(
            self.outstanding.is_empty(),
            "log must be frozen while scattered"
        );
        if self.journal.is_some() {
            let mut payload = Vec::new();
            payload.push(REC_ENTRIES);
            wire::put_usize(&mut payload, entries.len());
            for entry in &entries {
                entry.to_bytes(&mut payload);
            }
            if !self.journal_append(&payload) {
                return false; // wedged: externalize nothing
            }
        }
        let first = self.log.len() as u64;
        for shard in 0..self.plan.shards {
            out.push((
                shard + 1,
                Msg::Log {
                    first,
                    entries: entries.clone(),
                },
            ));
        }
        self.log.extend(entries);
        true
    }

    /// Seal a completed operation: journal its bookkeeping record, roll
    /// the snapshot cadence, and only then surface the result. A result
    /// the client can observe is always covered by the durable log. A
    /// wedged coordinator seals nothing: an earlier batch never reached
    /// the journal, so an `OP_DONE` record here would cover a hole.
    fn complete_ok(&mut self, outcome: OpOutcome) {
        if self.wedged {
            return;
        }
        if self.journal.is_some() {
            let mut payload = vec![REC_OP_DONE];
            self.put_books(&mut payload);
            if !self.journal_append(&payload) {
                return; // wedged: withhold the result
            }
            self.ops_since_snapshot += 1;
            if self
                .snapshot_every
                .is_some_and(|every| self.ops_since_snapshot >= every)
            {
                let bytes = self.snapshot_bytes();
                let store = self.journal.as_mut().expect("journal checked above");
                if store.snapshot(&bytes).is_err() {
                    self.wedged = true;
                    return;
                }
                self.ops_since_snapshot = 0;
            }
        }
        self.results.push_back(outcome);
    }

    /// Append one record to the journal and fsync it. `false` wedges the
    /// coordinator (or reports it already wedged): the caller must
    /// externalize nothing.
    fn journal_append(&mut self, payload: &[u8]) -> bool {
        if self.wedged {
            return false;
        }
        let store = self.journal.as_mut().expect("journal checked by caller");
        if store.append(payload).is_err() || store.sync().is_err() {
            self.wedged = true;
            return false;
        }
        true
    }

    // ---- durability ------------------------------------------------

    /// Attach a write-ahead journal over `backend` and write the initial
    /// snapshot. Refuses a backend that already holds durable state (use
    /// [`Coordinator::recover`] for that). `snapshot_every` rolls a fresh
    /// snapshot after that many completed operations.
    pub fn make_durable(
        &mut self,
        backend: Box<dyn StorageBackend>,
        snapshot_every: Option<u64>,
    ) -> Result<(), ShardError> {
        let (mut store, recovered) = DurableStore::open(backend)?;
        if recovered.snapshot.is_some() || !recovered.entries.is_empty() {
            return Err(ShardError::StateDirNotEmpty);
        }
        store.snapshot(&self.snapshot_bytes())?;
        self.journal = Some(store);
        self.snapshot_every = snapshot_every;
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// Write a fresh durable snapshot now (no-op without a journal).
    /// Refused on a wedged coordinator ([`ShardError::Wedged`]): the
    /// in-memory model holds mutations the journal does not, so a
    /// snapshot here would persist state inconsistent with its own log.
    pub fn snapshot_now(&mut self) -> Result<(), ShardError> {
        if self.wedged {
            return Err(ShardError::Wedged);
        }
        if self.journal.is_none() {
            return Ok(());
        }
        // Serialize before re-borrowing the journal mutably.
        let bytes = self.snapshot_bytes_inner();
        if let Some(store) = self.journal.as_mut() {
            store.snapshot(&bytes)?;
            self.ops_since_snapshot = 0;
        }
        Ok(())
    }

    /// Whether a failed journal write wedged the coordinator.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Rebuild a coordinator from its durable store: decode the newest
    /// verifying snapshot, then replay the journal suffix — entry batches
    /// re-apply the exact aggregate mutations, completed
    /// operations restore the bookkeeping they sealed. Every corruption
    /// mode surfaces as a typed error; trailing entry batches with no
    /// sealing operation record mark the recovery `interrupted` (the
    /// in-flight operation is lost, its replicated entries are kept).
    pub fn recover(
        backend: Box<dyn StorageBackend>,
        snapshot_every: Option<u64>,
    ) -> Result<(Self, CoordinatorRecovery), ShardError> {
        let (store, recovered) = DurableStore::open(backend)?;
        let snapshot = recovered.snapshot.ok_or(ShardError::NoSnapshot)?;
        let mut c = Self::decode_snapshot(&snapshot)?;
        let mut replayed_entries = 0;
        let mut replayed_ops = 0;
        let mut interrupted = false;
        for record in &recovered.entries {
            let mut r = Reader::new(record);
            match r.take(1)?[0] {
                REC_ENTRIES => {
                    let n_entries = r.get_len(1)?;
                    for _ in 0..n_entries {
                        let entry = LogEntry::from_reader(&mut r)?;
                        c.replay_entry(entry)?;
                        replayed_entries += 1;
                    }
                    r.expect_empty()?;
                    c.model.refresh_cache();
                    interrupted = true;
                }
                REC_OP_DONE => {
                    (c.ledger, c.fallbacks, c.next_req) = get_books(&mut r)?;
                    r.expect_empty()?;
                    replayed_ops += 1;
                    interrupted = false;
                }
                tag => {
                    return Err(ShardError::Wire(WireError::UnknownTag {
                        what: "coordinator journal record",
                        tag: tag as u64,
                    }))
                }
            }
        }
        if interrupted {
            // The sealed bookkeeping predates the trailing batches; the
            // objective must match the aggregates that shards hold.
            c.ledger.reread(&mut c.model);
        }
        // Start a fresh request-id block so the new incarnation can never
        // reuse an id the dead in-flight operation already put on the
        // wire — a delayed stale response must not be claimable by a
        // fresh request. Request ids are correlation-only, so the jump
        // does not perturb any state bits.
        c.next_req = ((c.next_req >> REQ_EPOCH_SHIFT) + 1) << REQ_EPOCH_SHIFT;
        let report = CoordinatorRecovery {
            snapshot_seq: recovered.snapshot_seq,
            replayed_entries,
            replayed_ops,
            interrupted,
            truncated_tail: recovered.truncated_tail,
            skipped_snapshots: recovered.skipped_snapshots,
            skipped_segments: recovered.skipped_segments,
        };
        c.journal = Some(store);
        c.snapshot_every = snapshot_every;
        c.ops_since_snapshot = 0;
        // Persist the epoch bump (and bound the next replay) with a fresh
        // snapshot: a second crash before the next completed operation
        // must still land in a new id block.
        c.snapshot_now()?;
        Ok((c, report))
    }

    /// Re-apply one journaled log entry — the exact mutation sequence the
    /// pre-crash coordinator (and every shard) performed for it.
    fn replay_entry(&mut self, entry: LogEntry) -> Result<(), WireError> {
        match &entry {
            LogEntry::Insert { slot, data } => {
                if *slot != self.slots.len() || data.cluster == TOMBSTONE {
                    return Err(WireError::Invalid {
                        what: "journaled insert entry",
                    });
                }
                self.model
                    .insert_row(data.cluster, &data.row, &data.cat, &data.num, data.sqnorm);
                self.slots.push(data.clone());
            }
            LogEntry::Remove { slot, data } => {
                if *slot >= self.slots.len() || data.cluster == TOMBSTONE {
                    return Err(WireError::Invalid {
                        what: "journaled remove entry",
                    });
                }
                self.model
                    .remove_row(data.cluster, &data.row, &data.cat, &data.num, data.sqnorm);
                self.slots[*slot].cluster = TOMBSTONE;
            }
            LogEntry::Move {
                slot,
                from,
                to,
                data,
            } => {
                if *slot >= self.slots.len() {
                    return Err(WireError::Invalid {
                        what: "journaled move entry",
                    });
                }
                self.model
                    .move_row(*from, *to, &data.row, &data.cat, &data.num, data.sqnorm);
                self.slots[*slot].cluster = *to;
            }
            LogEntry::Install { agg } => self.model.install(agg.clone()),
        }
        self.log.push(entry);
        Ok(())
    }

    /// Serialize the coordinator's full durable state. Volatile machinery
    /// (the phase machine, outstanding requests, queued operations,
    /// undelivered results) is deliberately absent: snapshots are only
    /// taken at operation boundaries, where all of it is empty.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        debug_assert!(
            matches!(self.phase, Phase::Idle),
            "coordinator snapshots only at idle"
        );
        self.snapshot_bytes_inner()
    }

    fn snapshot_bytes_inner(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_usize(&mut out, self.plan.shards);
        wire::put_usize(&mut out, self.plan.block);
        self.put_books(&mut out);
        self.codec.put(&mut out);
        out.extend(self.model.to_bytes());
        wire::put_usize(&mut out, self.slots.len());
        for d in &self.slots {
            d.to_bytes(&mut out);
        }
        wire::put_usize(&mut out, self.log.len());
        for entry in &self.log {
            entry.to_bytes(&mut out);
        }
        out
    }

    /// Append the bookkeeping every completed operation seals — the
    /// driver ledger, the fallback count and the request-id counter — in
    /// the layout [`get_books`] reads. Both the snapshot and the
    /// `REC_OP_DONE` journal record carry it.
    fn put_books(&self, out: &mut Vec<u8>) {
        self.ledger.put(out, DeltaEngine::Incremental);
        wire::put_usize(out, self.fallbacks);
        wire::put_u64(out, self.next_req);
    }

    /// Decode [`Self::snapshot_bytes`]; typed errors on truncation,
    /// corruption, or cross-field inconsistency — never a panic. The row
    /// codec must fit the model ([`RowCodec::check`]), every slot row must
    /// fit the model's shape, and the model's counts must be the rows'.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Self, ShardError> {
        let mut r = Reader::new(bytes);
        let shards = r.get_usize()?;
        let block = r.get_usize()?;
        let plan = ShardPlan::new(shards, block).map_err(|_| WireError::Invalid {
            what: "shard placement plan",
        })?;
        let (ledger, fallbacks, next_req) = get_books(&mut r)?;
        let codec = RowCodec::get(&mut r)?;
        let model = ClusterModel::from_reader(&mut r)?;
        codec.check(&model)?;
        let n_slots = r.get_len(8)?;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let d = SlotRow::from_reader(&mut r)?;
            if !model.fits(&d) {
                return Err(ShardError::Wire(WireError::Invalid {
                    what: "slot row vs model",
                }));
            }
            slots.push(d);
        }
        let live_rows = slots
            .iter()
            .filter(|d| d.cluster != TOMBSTONE)
            .map(|d| (d.cluster, d.cat.as_slice()));
        if !model.counts_match(live_rows) {
            return Err(ShardError::Wire(WireError::Invalid {
                what: "aggregate counts vs slot rows",
            }));
        }
        let n_log = r.get_len(1)?;
        let mut log = Vec::with_capacity(n_log);
        for _ in 0..n_log {
            log.push(LogEntry::from_reader(&mut r)?);
        }
        r.expect_empty()?;
        let mut c = Self::new(plan, Arc::new(codec), ledger, model, slots);
        c.log = log;
        c.fallbacks = fallbacks;
        c.next_req = next_req;
        Ok(c)
    }

    // ---- read API --------------------------------------------------

    /// Take the oldest completed operation result, if any.
    pub fn take_result(&mut self) -> Option<OpOutcome> {
        self.results.pop_front()
    }

    /// Whether an operation is still in flight.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle) && self.ops.is_empty()
    }

    /// Current objective over the live partition.
    pub fn objective(&self) -> f64 {
        self.ledger.objective()
    }

    /// Bounded objective trace (single-node bookkeeping, bit for bit).
    pub fn trace(&self) -> &[f64] {
        self.ledger.trace()
    }

    /// Live (assigned) point count.
    pub fn live(&self) -> usize {
        self.model.live()
    }

    /// Total backing-store slots, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether `slot` holds a live point.
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.slots.len() && self.slots[slot].cluster != TOMBSTONE
    }

    /// Cluster of `slot`, `None` for tombstones and out-of-range slots.
    pub fn assignment_of(&self, slot: usize) -> Option<usize> {
        self.slots
            .get(slot)
            .map(|d| d.cluster)
            .filter(|&c| c != TOMBSTONE)
    }

    /// Live slot ids in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&s| self.is_live(s)).collect()
    }

    /// Cluster prototypes (means), zeros for empty clusters.
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        self.model.prototypes()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.model.k()
    }

    /// Re-optimizations run (drift-triggered plus explicit).
    pub fn reopts(&self) -> usize {
        self.ledger.reopts()
    }

    /// Windows whose simultaneous application hurt and fell back to the
    /// sequential scan.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// Length of the replicated log.
    pub fn log_len(&self) -> u64 {
        self.log.len() as u64
    }

    /// Serialized coordinator replica — the reference bits for replica
    /// agreement checks.
    pub fn model_bytes(&self) -> Vec<u8> {
        self.model.to_bytes()
    }
}

/// Decode the bookkeeping [`Coordinator::put_books`] wrote. A ledger that
/// names the literal δ engine is [`WireError::Invalid`]: sharding runs only
/// the incremental one.
fn get_books(r: &mut Reader<'_>) -> Result<(DriverLedger, usize, u64), WireError> {
    let (ledger, engine) = DriverLedger::get(r)?;
    if engine != DeltaEngine::Incremental {
        return Err(WireError::Invalid {
            what: "coordinator delta engine",
        });
    }
    Ok((ledger, r.get_usize()?, r.get_u64()?))
}
