//! The coordinator: sequencer of the replicated mutation log, the durable
//! master copy of the slot rows, and the host of the single-node driver's
//! step machine.
//!
//! Every operation runs as the [`Machine`] the single-node
//! [`fairkm_core::StreamingFairKm`] runs — batch validation, arrival
//! scoring against frozen caches, the windowed accept/fallback optimizer,
//! the rebuild cadence, drift-triggered re-optimization and the trace are
//! that one control flow, not a copy of it. The coordinator only scatters
//! each request the machine yields to the shards owning the slots it
//! names, gathers their parts into the answer, and journals and broadcasts
//! each batch of entries the machine commits. Objectives and accept tests
//! are read from the coordinator's own replica (the single-node
//! [`ClusterModel`]), at the exact bits every shard holds.
//!
//! The replica — the driver ledger (the one copy of λ), the model, the
//! slot rows, the log version and the journal — sits behind the shared
//! [`Host`] cell the machine reads and commits through, only between
//! requests. Committed entries are not kept: the log exists only as the
//! broadcast batches and the journal, and a shard that missed some gets
//! its state at the current version instead ([`ShardState`]).
//!
//! ## Durable layout
//!
//! A snapshot (`FKCOORD2`) is the format tag, the placement plan, the
//! request-id counter, the log version, and then the stream payload
//! ([`StreamPayload`], `FKSTRM03`): the row codec, the ledger (with the
//! δ-engine byte, always incremental here), the fallback count, the model
//! and the slot table. That payload is written and checked by the code the
//! single-node engine runs, so at an operation boundary it equals the
//! single node's byte for byte ([`Coordinator::stream_payload`]). A
//! `REC_OP_DONE` journal record is its tag followed by the *books*: the
//! ledger, the fallback count and the request-id counter.
//!
//! ## Invariants the protocol's determinism rests on
//!
//! The machine's three (frozen log while asked, pure requests, ordered
//! reduction; see [`fairkm_core::machine`]) carry over message by message:
//! every request is pinned to the log version it was issued at, and
//! duplicate responses are discarded by request id. On top of them:
//!
//! * **Journal before broadcast.** With a journal attached
//!   ([`Coordinator::make_durable`], on the single node's [`Journal`]), every
//!   mutation batch is appended and fsynced to the write-ahead log
//!   *before* any shard sees it, and a bookkeeping record is appended
//!   before an operation's result surfaces. The durable log therefore
//!   always covers every externalized effect: [`Coordinator::recover`]
//!   never has to roll a shard back. A journal write that fails
//!   **wedges** the coordinator — it stops broadcasting and refuses
//!   further work rather than let replicas run ahead of durable state;
//!   recovery reopens from the store. The wedge covers the *whole*
//!   operation: once set, no later journal record (in particular the
//!   sealing `OP_DONE`), no client-visible result, and no snapshot can be
//!   written, so a transiently failing backend can never seal bookkeeping
//!   over a missing entry batch. A failed *cadence snapshot* after a
//!   durable `OP_DONE` does not wedge: the operation is committed, so its
//!   result surfaces and the failure is deferred to
//!   [`Coordinator::take_snapshot_failure`], as on the single node.

use crate::plan::ShardPlan;
use crate::protocol::{Msg, Op, OpOutcome, Part, ShardState};
use crate::shard::{Outbox, ShardNode};
use crate::ShardError;
use fairkm_core::persist::{Journal, PersistError, RecoveryReport};
use fairkm_core::wire::{self, Reader, WireError};
use fairkm_core::{
    Answer, ClusterModel, DeltaEngine, DriverLedger, Entry, Host, LogEntry, Machine, Replica,
    Request, RowCodec, SlotRow, SlotTable, Step, StreamPayload, Ticket, TOMBSTONE,
};
use fairkm_store::StorageBackend;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Journal record holding one replicated entry batch.
pub(crate) const REC_ENTRIES: u8 = 0;
/// Journal record sealing one completed operation's bookkeeping.
const REC_OP_DONE: u8 = 1;
/// Leading `u64` of every [`Coordinator::snapshot_bytes`] payload: the
/// bytes `FKCOORD2`. `FKCOORD1` snapshots wrote their own slot-row layout;
/// payloads written before the tag existed start with a shard count far
/// below 2^56. Neither can carry it.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"FKCOORD2");
/// Request ids are issued in per-incarnation blocks of `2^32`: recovery
/// jumps to the next block so stale responses from a dead in-flight
/// operation can never be claimed by the new incarnation.
const REQ_EPOCH_SHIFT: u32 = 32;

/// What [`Coordinator::recover`] rebuilt from the durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorRecovery {
    /// The base snapshot and the journal records replayed over it.
    pub journal: RecoveryReport,
    /// Log entries replayed from the journal suffix.
    pub replayed_entries: usize,
    /// `true` when the journal ends with entry batches that no completed
    /// operation sealed — the coordinator crashed mid-operation. The
    /// batches are kept (shards may have applied them; the log never
    /// rolls back) but the in-flight operation produced no result.
    pub interrupted: bool,
}

/// The coordinator's replica of the clustering and everything a committed
/// entry touches: the driver ledger, the model, the slot rows, the log
/// version and the journal. This is the [`Replica`] the step machine runs
/// against.
#[derive(Debug)]
struct Replicated {
    plan: ShardPlan,
    /// The single-node driver's parameters and bookkeeping; λ is its.
    ledger: DriverLedger,
    model: ClusterModel,
    /// Per-slot payloads; `cluster` is the current assignment
    /// ([`TOMBSTONE`] for evicted slots) — the durable master copy.
    slots: Vec<SlotRow>,
    /// Log entries applied so far.
    version: u64,
    fallbacks: usize,
    /// Write-ahead journal; `None` runs the coordinator volatile (the
    /// in-process driver and durability-free simulations). Once a write
    /// fails it is wedged, and the coordinator refuses further mutations
    /// rather than externalize effects the durable log missed.
    journal: Option<Journal<Box<dyn StorageBackend>>>,
    /// Log broadcasts staged by commits, handed to the caller's outbox.
    sent: Outbox,
}

impl Replicated {
    /// Apply one entry to the replica and the slot rows.
    fn apply(&mut self, entry: LogEntry) {
        entry.apply_to(&mut self.model);
        match entry {
            LogEntry::Insert { data, .. } => self.slots.push(data),
            LogEntry::Remove { slot, .. } => self.slots[slot].cluster = TOMBSTONE,
            LogEntry::Move { slot, to, .. } => self.slots[slot].cluster = to,
            LogEntry::Install { .. } => {}
        }
        self.version += 1;
    }
}

impl Replica for Replicated {
    fn lambda(&self) -> f64 {
        self.ledger.lambda()
    }

    fn model(&self) -> &ClusterModel {
        &self.model
    }

    fn n_slots(&self) -> usize {
        self.slots.len()
    }

    fn cluster(&self, slot: usize) -> usize {
        self.slots[slot].cluster
    }

    fn trial_move(&self, model: &mut ClusterModel, slot: usize, from: usize, to: usize) {
        let d = &self.slots[slot];
        model.move_row(from, to, &d.row, &d.cat, &d.num, d.sqnorm);
    }

    /// Attach each entry's row, journal the batch durably, broadcast it to
    /// every shard, and apply it. The machine commits only while no
    /// request is outstanding, which pins every scattered computation to a
    /// single log version. The journal write comes **first**: a batch no
    /// shard has seen may be lost to a crash, but a batch any shard
    /// applied is always on the durable log — recovery never rolls
    /// replicas back. `false` means the write wedged the coordinator.
    fn commit(&mut self, entries: &mut Vec<Entry>) -> bool {
        let slots = &self.slots;
        let entries: Vec<LogEntry> = entries
            .drain(..)
            .map(|entry| match entry {
                LogEntry::Insert { slot, data } => LogEntry::Insert { slot, data },
                LogEntry::Remove { slot, .. } => LogEntry::Remove {
                    slot,
                    data: slots[slot].clone(),
                },
                LogEntry::Move { slot, from, to, .. } => LogEntry::Move {
                    slot,
                    from,
                    to,
                    data: SlotRow {
                        cluster: to,
                        ..slots[slot].clone()
                    },
                },
                LogEntry::Install { agg } => LogEntry::Install { agg },
            })
            .collect();
        if let Some(journal) = &mut self.journal {
            let mut payload = vec![REC_ENTRIES];
            wire::put_usize(&mut payload, entries.len());
            for entry in &entries {
                entry.to_bytes(&mut payload);
            }
            if journal.append(&payload).is_err() {
                return false; // wedged: externalize nothing
            }
        }
        let first = self.version;
        for shard in 0..self.plan.shards {
            let entries = entries.clone();
            self.sent.push((shard + 1, Msg::Log { first, entries }));
        }
        for entry in entries {
            self.apply(entry);
        }
        self.model.refresh_cache();
        true
    }

    fn fallback(&mut self) {
        self.fallbacks += 1;
    }

    fn ledger(&mut self) -> &mut DriverLedger {
        &mut self.ledger
    }
}

/// The coordinator (node 0). Drive it with [`Coordinator::handle`];
/// completed operations surface through [`Coordinator::take_result`].
#[derive(Debug)]
pub struct Coordinator {
    /// The frozen row front-end arrivals are validated and encoded
    /// through — shared with the single-node engine it was split from.
    codec: Arc<RowCodec>,
    /// The replica, shared with the operation in flight.
    rep: Host<Replicated>,
    ops: VecDeque<Op>,
    /// The operation in flight.
    machine: Option<Machine<'static, OpOutcome>>,
    /// The pending request's ticket and the parts of its answer so far.
    gather: Option<(u64, Answer)>,
    next_req: u64,
    /// Unanswered messages `req → (target node, message)`, kept verbatim
    /// so a rejoining shard gets them again. All belong to the machine's
    /// one pending request.
    outstanding: BTreeMap<u64, (usize, Msg)>,
    results: VecDeque<OpOutcome>,
    /// The first report of a shard replica past the log
    /// ([`ShardError::ShardAhead`]).
    fault: Option<ShardError>,
}

impl Coordinator {
    /// Split a bootstrapped single-node engine into a coordinator and its
    /// shard nodes: the coordinator keeps the shared row codec, the
    /// driver ledger, the full payload table, and one replica; every shard
    /// gets a clone of the replica plus its owned slice of the payloads.
    /// All replicas start bitwise identical at log version 0.
    pub fn provision(payload: StreamPayload, plan: ShardPlan) -> (Self, Vec<ShardNode>) {
        let coordinator = Self::new(plan, payload);
        let shards = coordinator.shard_nodes();
        (coordinator, shards)
    }

    /// An idle, volatile coordinator at log version 0.
    fn new(plan: ShardPlan, payload: StreamPayload) -> Self {
        Self {
            codec: payload.codec,
            rep: Rc::new(RefCell::new(Replicated {
                plan,
                ledger: payload.ledger,
                slots: payload.table.into_rows(&payload.model),
                model: payload.model,
                version: 0,
                fallbacks: payload.fallbacks,
                journal: None,
                sent: Vec::new(),
            })),
            ops: VecDeque::new(),
            machine: None,
            gather: None,
            next_req: 0,
            outstanding: BTreeMap::new(),
            results: VecDeque::new(),
            fault: None,
        }
    }

    /// Shard replicas built from this coordinator's state, at its log
    /// version.
    pub(crate) fn shard_nodes(&self) -> Vec<ShardNode> {
        let plan = self.rep.borrow().plan;
        (0..plan.shards)
            .map(|id| ShardNode::provision(id, plan, self.shard_state(id)))
            .collect()
    }

    /// Shard `shard`'s replica at the current log version: λ, a clone of
    /// the model, and the slot rows the plan assigns to it. The one way a
    /// shard's state is built, at provisioning and at resync.
    pub(crate) fn shard_state(&self, shard: usize) -> ShardState {
        let rep = self.rep.borrow();
        let owned = rep
            .slots
            .iter()
            .enumerate()
            .filter(|&(slot, _)| rep.plan.owner(slot) == shard)
            .map(|(slot, d)| (slot, d.clone()))
            .collect();
        ShardState {
            lambda: rep.ledger.lambda(),
            version: rep.version,
            model: rep.model.clone(),
            owned,
        }
    }

    /// Handle one protocol message, staging sends on `out`. A wedged
    /// coordinator (failed journal write) ignores everything — reads stay
    /// answerable through the accessors, but no effect may be
    /// externalized past the durable log.
    pub fn handle(&mut self, msg: Msg, out: &mut Outbox) {
        if self.is_wedged() {
            return;
        }
        match msg {
            Msg::Op(op) => {
                self.ops.push_back(op);
                if self.machine.is_none() {
                    self.drive(None, out);
                }
            }
            Msg::Answer { req, answer } => self.gathered(req, answer, out),
            Msg::SyncRequest { shard, have } => {
                if self.ahead(shard, have) {
                    return; // re-issued asks could never be answered
                }
                // Hand a lagging shard its state at the current version,
                // then re-issue every outstanding request: any chain or
                // request dropped while the shard was down is restarted,
                // and duplicate answers are discarded by request id.
                if have < self.log_len() {
                    out.push((shard + 1, Msg::Transfer(Box::new(self.shard_state(shard)))));
                }
                for (target, msg) in self.outstanding.values() {
                    out.push((*target, msg.clone()));
                }
            }
            Msg::Passed { shard, have } => {
                self.ahead(shard, have);
            }
            // Requests are never addressed to the coordinator.
            _ => unreachable!("unexpected message at the coordinator"),
        }
    }

    /// Whether shard `shard`'s replica, at log version `have`, is past
    /// this coordinator's log. No transfer or resend repairs that, so the
    /// first such report is kept as [`Self::shard_fault`].
    fn ahead(&mut self, shard: usize, have: u64) -> bool {
        let log_len = self.log_len();
        if have <= log_len {
            return false;
        }
        self.fault.get_or_insert(ShardError::ShardAhead {
            shard,
            have,
            log_len,
        });
        true
    }

    /// Resume the operation in flight with `answer` (starting queued
    /// operations while idle) until its machine asks something of the
    /// shards, or the queue is empty.
    fn drive(&mut self, mut answer: Option<(u64, Answer)>, out: &mut Outbox) {
        while !self.is_wedged() {
            if self.machine.is_none() {
                let Some(op) = self.ops.pop_front() else {
                    return;
                };
                match self.start(op) {
                    Ok(machine) => self.machine = Some(machine),
                    Err(rejected) => {
                        self.results.push_back(rejected);
                        continue;
                    }
                }
            }
            let machine = self.machine.as_mut().expect("started above");
            let step = machine.resume(answer.take());
            out.append(&mut self.rep.borrow_mut().sent);
            match step {
                Step::Ask(ticket) => return self.scatter(ticket, out),
                Step::Done(outcome) => {
                    self.machine = None;
                    self.complete_ok(outcome);
                }
                Step::Stopped => self.machine = None, // wedged: abort the operation
            }
        }
    }

    /// The machine for one operation, or its rejection: rows are validated
    /// and encoded, and evicted slots checked, before anything mutates —
    /// the single-node atomicity contract.
    fn start(&self, op: Op) -> Result<Machine<'static, OpOutcome>, OpOutcome> {
        let rep = &self.rep;
        let evicted = |report| OpOutcome::Evict(Ok(report));
        match op {
            Op::Ingest(rows) => match self.codec.encode_all(&rows, self.n_slots()) {
                Ok(rows) => {
                    Ok(Machine::ingest(rep, rows).map(|report| OpOutcome::Ingest(Ok(report))))
                }
                Err(e) => Err(OpOutcome::Ingest(Err(e))),
            },
            Op::Evict(slots) => match Machine::evict(rep, slots) {
                Ok(machine) => Ok(machine.map(evicted)),
                Err(e) => Err(OpOutcome::Evict(Err(e))),
            },
            Op::EvictOldest(count) => Ok(Machine::evict_oldest(rep, count).map(evicted)),
            Op::Reoptimize => Ok(Machine::reoptimize(rep).map(OpOutcome::Reoptimize)),
        }
    }

    /// Scatter the machine's request to the shards owning the slots it
    /// names.
    fn scatter(&mut self, ticket: Ticket, out: &mut Outbox) {
        debug_assert!(self.outstanding.is_empty(), "one request at a time");
        let plan = self.rep.borrow().plan;
        let answer = match ticket.request {
            Request::Score { start } => {
                let machine = self.machine.as_ref().expect("a request has a machine");
                let mut by_shard: BTreeMap<usize, Vec<(usize, SlotRow)>> = BTreeMap::new();
                for (slot, d) in (start..).zip(machine.arrivals().iter()) {
                    let items = by_shard.entry(plan.owner(slot)).or_default();
                    items.push((slot, d.clone()));
                }
                for (shard, items) in by_shard {
                    self.ask(shard, Part::Score(items), out);
                }
                Answer::Scores(Vec::new())
            }
            Request::Window { start, end } | Request::First { start, end } => {
                let mut shards: Vec<usize> =
                    plan.segments(start..end).iter().map(|s| s.0).collect();
                shards.sort_unstable();
                shards.dedup();
                let (part, answer) = match ticket.request {
                    Request::Window { .. } => {
                        (Part::Window { start, end }, Answer::Proposals(Vec::new()))
                    }
                    _ => (Part::First { start, end }, Answer::First(None)),
                };
                for shard in shards {
                    self.ask(shard, part.clone(), out);
                }
                answer
            }
            Request::Rebuild => {
                // One fold chain per engine chunk, hopping through the
                // chunk's owners in slot order.
                let n = self.n_slots();
                for (chunk, range) in fairkm_parallel::chunk_ranges(n).enumerate() {
                    let segments = plan.segments(range);
                    let (owner, acc) = (segments[0].0, self.rep.borrow().model.zeroed_delta());
                    let idx = 0;
                    let part = Part::Fold {
                        chunk,
                        segments,
                        idx,
                        acc,
                    };
                    self.ask(owner, part, out);
                }
                Answer::Chunks(Vec::new())
            }
        };
        self.gather = Some((ticket.id, answer));
        if self.outstanding.is_empty() {
            // Nothing to ask (a rebuild over zero slots): answer at once.
            let answer = self.gather.take();
            self.drive(answer, out);
        }
    }

    /// Ask `shard` for `part` at the current log version, recording the
    /// ask as outstanding.
    fn ask(&mut self, shard: usize, part: Part, out: &mut Outbox) {
        let (req, version) = (self.next_req, self.log_len());
        self.next_req += 1;
        let msg = Msg::Ask { req, version, part };
        self.outstanding.insert(req, (shard + 1, msg.clone()));
        out.push((shard + 1, msg));
    }

    /// Gather one part of the pending request's answer, resuming the
    /// machine once every part is in. A response whose request was already
    /// answered (a crash-recovery duplicate) is ignored.
    fn gathered(&mut self, req: u64, part: Answer, out: &mut Outbox) {
        if self.outstanding.remove(&req).is_none() {
            return;
        }
        let (_, answer) = self
            .gather
            .as_mut()
            .expect("an outstanding request is gathered");
        answer.absorb(part);
        if self.outstanding.is_empty() {
            let answer = self.gather.take();
            self.drive(answer, out);
        }
    }

    /// Seal a completed operation: journal its bookkeeping record and run
    /// the snapshot cadence, then surface the result. A result the client
    /// can observe is always covered by the durable log; a failed cadence
    /// snapshot only defers ([`Journal::seal`]). A wedged journal refuses
    /// the record: an earlier batch never reached it, so an `OP_DONE`
    /// record here would cover a hole.
    fn complete_ok(&mut self, outcome: OpOutcome) {
        let sealed = self.with_journal(|journal, c| {
            let mut payload = vec![REC_OP_DONE];
            c.put_books(&mut payload);
            journal.append(&payload)?;
            journal.seal(|buf| buf.extend(c.snapshot_bytes()));
            Ok::<_, PersistError>(())
        });
        if let Some(Err(_)) = sealed {
            return; // wedged: withhold the result
        }
        self.results.push_back(outcome);
    }

    /// Run `f` on the journal, taken out of the replica cell meanwhile so
    /// that `f` may read the cell (the snapshot writer does). `None`
    /// without a journal.
    fn with_journal<T>(
        &mut self,
        f: impl FnOnce(&mut Journal<Box<dyn StorageBackend>>, &Self) -> T,
    ) -> Option<T> {
        let mut journal = self.rep.borrow_mut().journal.take()?;
        let out = f(&mut journal, self);
        self.rep.borrow_mut().journal = Some(journal);
        Some(out)
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
        let mut journal = Journal::create(backend, snapshot_every)?;
        journal.snapshot_now(|buf| buf.extend(self.snapshot_bytes()))?;
        self.rep.borrow_mut().journal = Some(journal);
        Ok(())
    }

    /// Write a fresh durable snapshot now (no-op without a journal).
    /// Refused while an operation is in flight
    /// ([`ShardError::OperationInFlight`]): a snapshot is the state at an
    /// operation boundary. Refused on a wedged coordinator
    /// ([`PersistError::Wedged`]): its operation stopped part-way, so a
    /// snapshot here would persist bookkeeping that no operation record
    /// seals.
    pub fn snapshot_now(&mut self) -> Result<(), ShardError> {
        // Queued operations that have not started change nothing yet.
        if self.machine.is_some() {
            return Err(ShardError::OperationInFlight);
        }
        self.with_journal(|journal, c| journal.snapshot_now(|buf| buf.extend(c.snapshot_bytes())))
            .transpose()?;
        Ok(())
    }

    /// Whether a failed journal write wedged the coordinator.
    pub fn is_wedged(&self) -> bool {
        self.wedge_cause().is_some()
    }

    /// The storage failure that wedged the coordinator, if any.
    pub fn wedge_cause(&self) -> Option<String> {
        let rep = self.rep.borrow();
        rep.journal.as_ref()?.wedge_cause().map(str::to_string)
    }

    /// The first shard that reported a replica past this coordinator's log
    /// ([`ShardError::ShardAhead`]): its asks are never answered, so an
    /// operation that needs it does not complete.
    pub fn shard_fault(&self) -> Option<&ShardError> {
        self.fault.as_ref()
    }

    /// Take the stashed cadence-snapshot failure, if the last completed
    /// operation's follow-up snapshot failed
    /// ([`PersistError::SnapshotAfterCommit`]). The operation is durable
    /// and its result surfaced; it must not be retried.
    pub fn take_snapshot_failure(&mut self) -> Option<PersistError> {
        let mut rep = self.rep.borrow_mut();
        rep.journal.as_mut()?.take_snapshot_failure()
    }

    /// Rebuild a coordinator from its durable store: decode the newest
    /// verifying snapshot, then replay the journal suffix — entry batches
    /// re-apply the exact aggregate mutations (each entry checked against
    /// the slot rows first, [`LogEntry::check`]), completed operations
    /// restore the bookkeeping they sealed. Every corruption
    /// mode surfaces as a typed error, as does an operation record whose λ
    /// is not the stream's, or a last sealed eviction cursor that does not
    /// fit the replayed slot rows; trailing entry batches with no
    /// sealing operation record mark the recovery `interrupted` (the
    /// in-flight operation is lost, its replicated entries are kept).
    pub fn recover(
        backend: Box<dyn StorageBackend>,
        snapshot_every: Option<u64>,
    ) -> Result<(Self, CoordinatorRecovery), ShardError> {
        let (journal, snapshot, records, report) = Journal::open(backend, snapshot_every)?;
        let mut c = Self::decode_snapshot(&snapshot)?;
        let mut replayed_entries = 0;
        let mut interrupted = false;
        let mut guard = c.rep.borrow_mut();
        let rep = &mut *guard;
        for record in &records {
            let mut r = Reader::new(record);
            match r.take(1)?[0] {
                REC_ENTRIES => {
                    for _ in 0..r.get_len(1)? {
                        let entry = LogEntry::from_reader(&mut r)?;
                        entry.check(&rep.model, &rep.slots)?;
                        rep.apply(entry);
                        replayed_entries += 1;
                    }
                    r.expect_empty()?;
                    interrupted = true;
                }
                REC_OP_DONE => {
                    let (ledger, fallbacks, next_req) = get_books(&mut r)?;
                    // The shards score with the λ they were provisioned with.
                    if ledger.lambda().to_bits() != rep.ledger.lambda().to_bits() {
                        return Err(ShardError::Wire(WireError::Invalid {
                            what: "ledger λ vs stream",
                        }));
                    }
                    (rep.ledger, rep.fallbacks, c.next_req) = (ledger, fallbacks, next_req);
                    r.expect_empty()?;
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
        // Later entries only kill slots or append them, so the last
        // sealed cursor must still hold over the replayed slot rows.
        rep.ledger
            .check_cursor(rep.slots.len(), |s| rep.is_live(s))?;
        rep.model.refresh_cache();
        if interrupted {
            // The sealed bookkeeping predates the trailing batches; the
            // objective must match the aggregates that shards hold.
            rep.ledger.reread(&mut rep.model);
        }
        rep.journal = Some(journal);
        drop(guard);
        // Start a fresh request-id block so the new incarnation can never
        // reuse an id the dead in-flight operation already put on the
        // wire — a delayed stale response must not be claimable by a
        // fresh request. Request ids are correlation-only, so the jump
        // does not perturb any state bits.
        c.next_req = ((c.next_req >> REQ_EPOCH_SHIFT) + 1) << REQ_EPOCH_SHIFT;
        let report = CoordinatorRecovery {
            journal: report,
            replayed_entries,
            interrupted,
        };
        // Persist the epoch bump (and bound the next replay) with a fresh
        // snapshot: a second crash before the next completed operation
        // must still land in a new id block.
        c.snapshot_now()?;
        Ok((c, report))
    }

    /// Serialize the coordinator's full durable state, the current one
    /// with no history: its size follows the slot rows, not the log.
    /// Volatile machinery (the machine in flight, outstanding requests,
    /// queued operations, undelivered results) is deliberately absent:
    /// snapshots are only taken at operation boundaries, where all of it
    /// is empty.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        debug_assert!(self.machine.is_none(), "coordinator snapshots only at idle");
        let mut out = Vec::new();
        let rep = self.rep.borrow();
        wire::put_u64(&mut out, SNAPSHOT_FORMAT);
        wire::put_usize(&mut out, rep.plan.shards);
        wire::put_usize(&mut out, rep.plan.block);
        wire::put_u64(&mut out, self.next_req);
        wire::put_u64(&mut out, rep.version);
        out.extend(self.stream_payload());
        out
    }

    /// The stream payload embedded in [`Self::snapshot_bytes`]: at an
    /// operation boundary, byte for byte the single-node engine's snapshot
    /// ([`fairkm_core::StreamingFairKm::to_snapshot_bytes`]).
    pub fn stream_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let rep = self.rep.borrow();
        let (ledger, fallbacks, model) = (&rep.ledger, rep.fallbacks, &rep.model);
        StreamPayload::put(
            &mut out,
            &self.codec,
            ledger,
            fallbacks,
            model,
            rep.slots.len(),
            |out| SlotTable::put_rows(out, rep.slots.iter()),
        );
        out
    }

    /// Append the bookkeeping every completed operation seals — the
    /// driver ledger, the fallback count and the request-id counter — in
    /// the layout [`get_books`] reads, for the `REC_OP_DONE` journal
    /// record.
    fn put_books(&self, out: &mut Vec<u8>) {
        let rep = self.rep.borrow();
        rep.ledger.put(out);
        wire::put_usize(out, rep.fallbacks);
        wire::put_u64(out, self.next_req);
    }

    /// Decode [`Self::snapshot_bytes`]; typed errors on truncation,
    /// corruption, or cross-field inconsistency — never a panic. A payload
    /// that does not start with this build's format tag is
    /// [`WireError::UnsupportedVersion`]. The embedded stream payload is
    /// checked whole by [`StreamPayload::get`] (its slot rows are shipped
    /// to resyncing shards), and must name the incremental δ engine.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Self, ShardError> {
        let mut r = Reader::new(bytes);
        let found = r.get_u64()?;
        if found != SNAPSHOT_FORMAT {
            return Err(ShardError::Wire(WireError::UnsupportedVersion {
                found,
                expected: SNAPSHOT_FORMAT,
            }));
        }
        let shards = r.get_usize()?;
        let block = r.get_usize()?;
        let plan = ShardPlan::new(shards, block).map_err(|_| WireError::Invalid {
            what: "shard placement plan",
        })?;
        let next_req = r.get_u64()?;
        let version = r.get_u64()?;
        let payload = StreamPayload::get(&mut r)?;
        r.expect_empty()?;
        incremental(payload.ledger.engine())?;
        let c = Self {
            next_req,
            ..Self::new(plan, payload)
        };
        c.rep.borrow_mut().version = version;
        Ok(c)
    }

    // ---- read API --------------------------------------------------

    /// Take the oldest completed operation result, if any.
    pub fn take_result(&mut self) -> Option<OpOutcome> {
        self.results.pop_front()
    }

    /// Whether an operation is still in flight.
    pub fn is_idle(&self) -> bool {
        self.machine.is_none() && self.ops.is_empty()
    }

    /// Current objective over the live partition.
    pub fn objective(&self) -> f64 {
        self.rep.borrow().ledger.objective()
    }

    /// A copy of the bounded objective trace (single-node bookkeeping, bit
    /// for bit).
    pub fn trace(&self) -> Vec<f64> {
        self.rep.borrow().ledger.trace().to_vec()
    }

    /// Live (assigned) point count.
    pub fn live(&self) -> usize {
        self.rep.borrow().model.live()
    }

    /// Total backing-store slots, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.rep.borrow().slots.len()
    }

    /// Whether `slot` holds a live point.
    pub fn is_live(&self, slot: usize) -> bool {
        self.rep.borrow().is_live(slot)
    }

    /// Cluster of `slot`, `None` for tombstones and out-of-range slots.
    pub fn assignment_of(&self, slot: usize) -> Option<usize> {
        self.rep
            .borrow()
            .slots
            .get(slot)
            .map(|d| d.cluster)
            .filter(|&c| c != TOMBSTONE)
    }

    /// Live slot ids in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        let rep = self.rep.borrow();
        (0..rep.slots.len()).filter(|&s| rep.is_live(s)).collect()
    }

    /// Cluster prototypes (means), zeros for empty clusters.
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        self.rep.borrow().model.prototypes()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.rep.borrow().model.k()
    }

    /// Re-optimizations run (drift-triggered plus explicit).
    pub fn reopts(&self) -> usize {
        self.rep.borrow().ledger.reopts()
    }

    /// Windows whose simultaneous application hurt and fell back to the
    /// sequential scan.
    pub fn fallbacks(&self) -> usize {
        self.rep.borrow().fallbacks
    }

    /// Log version: the number of entries committed since provisioning.
    pub fn log_len(&self) -> u64 {
        self.rep.borrow().version
    }

    /// Serialized coordinator replica — the reference bits for replica
    /// agreement checks.
    pub fn model_bytes(&self) -> Vec<u8> {
        self.rep.borrow().model.to_bytes()
    }
}

/// Decode the bookkeeping [`Coordinator::put_books`] wrote. A ledger that
/// names the literal δ engine is [`WireError::Invalid`].
fn get_books(r: &mut Reader<'_>) -> Result<(DriverLedger, usize, u64), WireError> {
    let ledger = DriverLedger::get(r)?;
    incremental(ledger.engine())?;
    Ok((ledger, r.get_usize()?, r.get_u64()?))
}

/// [`WireError::Invalid`] unless `engine` is the incremental δ engine, the
/// only one sharding runs.
fn incremental(engine: DeltaEngine) -> Result<(), WireError> {
    if engine != DeltaEngine::Incremental {
        return Err(WireError::Invalid {
            what: "coordinator delta engine",
        });
    }
    Ok(())
}
