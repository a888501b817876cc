//! The coordinator: owner of the replicated mutation log, the durable
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
//! slot rows, the log and the journal — sits behind the shared [`Host`]
//! cell the machine reads and commits through, only between requests.
//!
//! ## Durable layout
//!
//! The *books* — the ledger (with the δ-engine byte, always incremental
//! here), the fallback count and the request-id counter — are encoded
//! once and used twice: a snapshot is the placement plan, the books, the
//! row codec, the provisioning model and slot rows, and the log; a
//! `REC_OP_DONE` journal record is its tag followed by the books. Decoding
//! checks the codec against the model ([`RowCodec::check`]) and every slot
//! row against the model's shape and counts, then replays the log through
//! the same entry check ([`LogEntry::check`]) as journal replay.
//!
//! ## Invariants the protocol's determinism rests on
//!
//! The machine's three (frozen log while asked, pure requests, ordered
//! reduction; see [`fairkm_core::machine`]) carry over message by message:
//! every request is pinned to the log version it was issued at, and
//! duplicate responses are discarded by request id. On top of them:
//!
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
use crate::protocol::{Msg, Op, OpOutcome, Part};
use crate::shard::{Outbox, ShardNode};
use crate::ShardError;
use fairkm_core::wire::{self, Reader, WireError};
use fairkm_core::{
    Answer, ClusterModel, DeltaEngine, DriverLedger, Entry, Host, LogEntry, Machine, Replica,
    Request, RowCodec, ShardParts, SlotRow, Step, Ticket, TOMBSTONE,
};
use fairkm_store::{DurableStore, StorageBackend};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Journal record holding one replicated entry batch.
pub(crate) const REC_ENTRIES: u8 = 0;
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

/// The coordinator's replica of the clustering and everything a committed
/// entry touches: the driver ledger, the model, the slot rows, the log, the
/// journal, and the provisioning state a snapshot replays the log over.
/// This is the [`Replica`] the step machine runs against.
#[derive(Debug)]
struct Replicated {
    plan: ShardPlan,
    /// The single-node driver's parameters and bookkeeping; λ is its.
    ledger: DriverLedger,
    model: ClusterModel,
    /// Per-slot payloads; `cluster` is the current assignment
    /// ([`TOMBSTONE`] for evicted slots) — the durable master copy.
    slots: Vec<SlotRow>,
    log: Vec<LogEntry>,
    /// The model and the slot clusters at log version 0. Rows are
    /// write-once, so the provisioned rows are a prefix of `slots`.
    base: (ClusterModel, Vec<usize>),
    fallbacks: usize,
    /// Write-ahead journal; `None` runs the coordinator volatile (the
    /// in-process driver and durability-free simulations).
    journal: Option<DurableStore<Box<dyn StorageBackend>>>,
    /// Set when a journal write failed: the coordinator refuses further
    /// mutations rather than externalize effects the durable log missed.
    wedged: bool,
    /// Log broadcasts staged by commits, handed to the caller's outbox.
    sent: Outbox,
}

impl Replicated {
    /// Apply one entry to the replica and the slot rows, and log it.
    fn apply(&mut self, entry: LogEntry) {
        entry.apply_to(&mut self.model);
        match &entry {
            LogEntry::Insert { data, .. } => self.slots.push(data.clone()),
            LogEntry::Remove { slot, .. } => self.slots[*slot].cluster = TOMBSTONE,
            LogEntry::Move { slot, to, .. } => self.slots[*slot].cluster = *to,
            LogEntry::Install { .. } => {}
        }
        self.log.push(entry);
    }

    /// Apply a journaled or stored entry once [`LogEntry::check`] accepts
    /// it against the replica and the slot rows.
    fn replay(&mut self, entry: LogEntry) -> Result<(), WireError> {
        entry.check(&self.model, &self.slots)?;
        self.apply(entry);
        Ok(())
    }

    /// Check the ledger's eviction cursor against the slot rows.
    fn check_cursor(&self) -> Result<(), WireError> {
        let slots = &self.slots;
        self.ledger
            .check_cursor(slots.len(), |s| slots[s].cluster != TOMBSTONE)
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
        if self.journal.is_some() {
            let mut payload = vec![REC_ENTRIES];
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
    /// Journal a fresh snapshot after this many completed operations.
    snapshot_every: Option<u64>,
    ops_since_snapshot: u64,
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
        let base = (model.clone(), slots.iter().map(|d| d.cluster).collect());
        Self {
            codec,
            rep: Rc::new(RefCell::new(Replicated {
                plan,
                ledger,
                model,
                slots,
                log: Vec::new(),
                base,
                fallbacks: 0,
                journal: None,
                wedged: false,
                sent: Vec::new(),
            })),
            ops: VecDeque::new(),
            machine: None,
            gather: None,
            next_req: 0,
            outstanding: BTreeMap::new(),
            results: VecDeque::new(),
            snapshot_every: None,
            ops_since_snapshot: 0,
        }
    }

    /// Shard replicas at log version 0 built from this coordinator's state:
    /// each gets a clone of the model and the slot rows the plan assigns
    /// to it. Only meaningful while the log is empty.
    pub(crate) fn shard_nodes(&self) -> Vec<ShardNode> {
        let rep = self.rep.borrow();
        (0..rep.plan.shards)
            .map(|id| {
                let owned: BTreeMap<usize, SlotRow> = rep
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| rep.plan.owner(*slot) == id)
                    .map(|(slot, d)| (slot, d.clone()))
                    .collect();
                let lambda = rep.ledger.lambda();
                ShardNode::provision(id, rep.plan, lambda, rep.model.clone(), owned)
            })
            .collect()
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
                // Ship the missing log suffix, then re-issue every
                // outstanding request: any chain or request dropped while
                // the shard was down is restarted, and duplicate answers
                // are discarded by request id.
                let entries = self.rep.borrow().log[have as usize..].to_vec();
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

    /// Seal a completed operation: journal its bookkeeping record, roll
    /// the snapshot cadence, and only then surface the result. A result
    /// the client can observe is always covered by the durable log. A
    /// wedged coordinator seals nothing: an earlier batch never reached
    /// the journal, so an `OP_DONE` record here would cover a hole.
    fn complete_ok(&mut self, outcome: OpOutcome) {
        if self.is_wedged() {
            return;
        }
        if self.rep.borrow().journal.is_some() {
            let mut payload = vec![REC_OP_DONE];
            self.put_books(&mut payload);
            if !self.rep.borrow_mut().journal_append(&payload) {
                return; // wedged: withhold the result
            }
            self.ops_since_snapshot += 1;
            if self
                .snapshot_every
                .is_some_and(|every| self.ops_since_snapshot >= every)
            {
                let bytes = self.snapshot_bytes();
                let mut rep = self.rep.borrow_mut();
                let store = rep.journal.as_mut().expect("journal checked above");
                if store.snapshot(&bytes).is_err() {
                    rep.wedged = true;
                    return;
                }
                self.ops_since_snapshot = 0;
            }
        }
        self.results.push_back(outcome);
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
        self.rep.borrow_mut().journal = Some(store);
        self.snapshot_every = snapshot_every;
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// Write a fresh durable snapshot now (no-op without a journal).
    /// Refused on a wedged coordinator ([`ShardError::Wedged`]): its
    /// operation stopped part-way, so a snapshot here would persist
    /// bookkeeping that no operation record seals.
    pub fn snapshot_now(&mut self) -> Result<(), ShardError> {
        if self.is_wedged() {
            return Err(ShardError::Wedged);
        }
        if self.rep.borrow().journal.is_none() {
            return Ok(());
        }
        // Serialize before borrowing the journal mutably.
        let bytes = self.snapshot_bytes();
        if let Some(store) = self.rep.borrow_mut().journal.as_mut() {
            store.snapshot(&bytes)?;
            self.ops_since_snapshot = 0;
        }
        Ok(())
    }

    /// Whether a failed journal write wedged the coordinator.
    pub fn is_wedged(&self) -> bool {
        self.rep.borrow().wedged
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
        let (store, recovered) = DurableStore::open(backend)?;
        let snapshot = recovered.snapshot.ok_or(ShardError::NoSnapshot)?;
        let mut c = Self::decode_snapshot(&snapshot)?;
        let mut replayed_entries = 0;
        let mut replayed_ops = 0;
        let mut interrupted = false;
        let mut guard = c.rep.borrow_mut();
        let rep = &mut *guard;
        for record in &recovered.entries {
            let mut r = Reader::new(record);
            match r.take(1)?[0] {
                REC_ENTRIES => {
                    for _ in 0..r.get_len(1)? {
                        rep.replay(LogEntry::from_reader(&mut r)?)?;
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
        // Later entries only kill slots or append them, so the last
        // sealed cursor must still hold over the replayed slot rows.
        rep.check_cursor()?;
        rep.model.refresh_cache();
        if interrupted {
            // The sealed bookkeeping predates the trailing batches; the
            // objective must match the aggregates that shards hold.
            rep.ledger.reread(&mut rep.model);
        }
        rep.journal = Some(store);
        drop(guard);
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
        c.snapshot_every = snapshot_every;
        c.ops_since_snapshot = 0;
        // Persist the epoch bump (and bound the next replay) with a fresh
        // snapshot: a second crash before the next completed operation
        // must still land in a new id block.
        c.snapshot_now()?;
        Ok((c, report))
    }

    /// Serialize the coordinator's full durable state: the provisioning
    /// state and the log, which replays to the current one. Volatile
    /// machinery (the machine in flight, outstanding requests, queued
    /// operations, undelivered results) is deliberately absent: snapshots
    /// are only taken at operation boundaries, where all of it is empty.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        debug_assert!(self.machine.is_none(), "coordinator snapshots only at idle");
        let rep = self.rep.borrow();
        let mut out = Vec::new();
        wire::put_usize(&mut out, rep.plan.shards);
        wire::put_usize(&mut out, rep.plan.block);
        self.put_books(&mut out);
        self.codec.put(&mut out);
        let (model, clusters) = &rep.base;
        out.extend(model.to_bytes());
        wire::put_usize(&mut out, clusters.len());
        for (d, &cluster) in rep.slots.iter().zip(clusters) {
            let base = SlotRow {
                cluster,
                ..d.clone()
            };
            base.to_bytes(&mut out);
        }
        wire::put_usize(&mut out, rep.log.len());
        for entry in &rep.log {
            entry.to_bytes(&mut out);
        }
        out
    }

    /// Append the bookkeeping every completed operation seals — the
    /// driver ledger, the fallback count and the request-id counter — in
    /// the layout [`get_books`] reads. Both the snapshot and the
    /// `REC_OP_DONE` journal record carry it.
    fn put_books(&self, out: &mut Vec<u8>) {
        let rep = self.rep.borrow();
        rep.ledger.put(out, DeltaEngine::Incremental);
        wire::put_usize(out, rep.fallbacks);
        wire::put_u64(out, self.next_req);
    }

    /// Decode [`Self::snapshot_bytes`]; typed errors on truncation,
    /// corruption, or cross-field inconsistency — never a panic. The row
    /// codec must fit the model ([`RowCodec::check`]), every provisioned
    /// slot row must fit the model's shape, the model's counts must be the
    /// rows', every stored log entry must pass [`LogEntry::check`] as it
    /// replays — the log is shipped to resyncing shards — and the ledger's
    /// eviction cursor must fit the replayed rows.
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
        let mut c = Self::new(plan, Arc::new(codec), ledger, model, slots);
        c.next_req = next_req;
        let mut rep = c.rep.borrow_mut();
        rep.fallbacks = fallbacks;
        for _ in 0..r.get_len(1)? {
            rep.replay(LogEntry::from_reader(&mut r)?)?;
        }
        r.expect_empty()?;
        rep.check_cursor()?;
        rep.model.refresh_cache();
        drop(rep);
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

    /// Length of the replicated log.
    pub fn log_len(&self) -> u64 {
        self.rep.borrow().log.len() as u64
    }

    /// Serialized coordinator replica — the reference bits for replica
    /// agreement checks.
    pub fn model_bytes(&self) -> Vec<u8> {
        self.rep.borrow().model.to_bytes()
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
