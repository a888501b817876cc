//! The shard node: a full replica of the aggregate engine plus the
//! payloads of the slots this shard owns.

use crate::plan::ShardPlan;
use crate::protocol::{LogEntry, Msg};
use fairkm_core::wire::{self, Reader, WireError};
use fairkm_core::{ClusterModel, SlotRow, MOVE_EPS, TOMBSTONE};
use std::collections::BTreeMap;

/// Messages a handler wants delivered: `(destination node, message)`.
pub type Outbox = Vec<(usize, Msg)>;

/// One shard: applies the coordinator's replicated log to a
/// [`ClusterModel`] replica (so it can score and propose for **any** point)
/// and stores the full payloads of the slots the placement plan assigns to
/// it (so it can fold rebuild chunks and propose moves for its slice
/// without the coordinator shipping rows).
///
/// All request handlers are pure reads of the replica at the request's log
/// version — a request can be processed twice (crash-recovery re-issue)
/// without corrupting anything, and a request that arrives before the
/// shard has applied enough log is deferred, not rejected.
#[derive(Debug)]
pub struct ShardNode {
    id: usize,
    plan: ShardPlan,
    lambda: f64,
    /// Log entries applied so far (the replica's version).
    version: u64,
    model: ClusterModel,
    owned: BTreeMap<usize, SlotRow>,
    /// Out-of-order log batches keyed by their first index (links are not
    /// FIFO); drained in log order as gaps fill.
    buffered: BTreeMap<u64, Vec<LogEntry>>,
    /// Requests pinned to a log version this replica has not reached yet,
    /// in arrival order.
    deferred: Vec<Msg>,
}

impl ShardNode {
    /// Provision a shard at log version 0 from the hand-off replica and
    /// its owned slice of the slot payloads.
    pub(crate) fn provision(
        id: usize,
        plan: ShardPlan,
        lambda: f64,
        model: ClusterModel,
        owned: BTreeMap<usize, SlotRow>,
    ) -> Self {
        Self {
            id,
            plan,
            lambda,
            version: 0,
            model,
            owned,
            buffered: BTreeMap::new(),
            deferred: Vec::new(),
        }
    }

    /// This shard's index (its node id is `id + 1`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Log version the replica has applied.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Serialized replica model — for bitwise replica-agreement checks.
    pub fn model_bytes(&self) -> Vec<u8> {
        self.model.to_bytes()
    }

    /// Number of slots this shard owns (tombstones included).
    pub fn owned_slots(&self) -> usize {
        self.owned.len()
    }

    /// Handle one protocol message, staging replies/forwards on `out`.
    pub fn handle(&mut self, msg: Msg, out: &mut Outbox) {
        match msg {
            Msg::Log { first, entries } => {
                self.buffered.insert(first, entries);
                self.pump_log();
                self.retry_deferred(out);
            }
            Msg::ScoreArrivals { version, .. }
            | Msg::ProposeBatch { version, .. }
            | Msg::ProposeOne { version, .. }
            | Msg::ChunkFold { version, .. }
                if version > self.version =>
            {
                self.deferred.push(msg);
            }
            other => self.process(other, out),
        }
    }

    /// Apply every buffered batch that is contiguous with the applied
    /// prefix, in log order, refreshing the scoring cache once per applied
    /// run (any refresh schedule that ends fresh yields identical bits —
    /// each cache entry is a pure function of the current aggregates).
    fn pump_log(&mut self) {
        while let Some((&first, _)) = self.buffered.range(..=self.version).next_back() {
            let entries = self.buffered.remove(&first).expect("key just observed");
            let skip = (self.version - first) as usize;
            if skip >= entries.len() {
                continue; // fully stale re-send
            }
            for entry in entries.into_iter().skip(skip) {
                self.apply(entry);
                self.version += 1;
            }
            self.model.refresh_cache();
        }
    }

    /// Apply one log entry — the exact aggregate mutation the coordinator
    /// (and the single-node engine) performed for it.
    fn apply(&mut self, entry: LogEntry) {
        match entry {
            LogEntry::Insert { slot, data } => {
                self.model
                    .insert_row(data.cluster, &data.row, &data.cat, &data.num, data.sqnorm);
                if self.plan.owner(slot) == self.id {
                    self.owned.insert(slot, data);
                }
            }
            LogEntry::Remove { slot, data } => {
                self.model
                    .remove_row(data.cluster, &data.row, &data.cat, &data.num, data.sqnorm);
                if self.plan.owner(slot) == self.id {
                    self.owned
                        .get_mut(&slot)
                        .expect("remove of a slot this shard never saw")
                        .cluster = TOMBSTONE;
                }
            }
            LogEntry::Move {
                slot,
                from,
                to,
                data,
            } => {
                self.model
                    .move_row(from, to, &data.row, &data.cat, &data.num, data.sqnorm);
                if self.plan.owner(slot) == self.id {
                    self.owned
                        .get_mut(&slot)
                        .expect("move of a slot this shard never saw")
                        .cluster = to;
                }
            }
            LogEntry::Install { agg } => self.model.install(agg),
        }
    }

    /// Retry deferred requests that the applied log has unblocked, in
    /// arrival order.
    fn retry_deferred(&mut self, out: &mut Outbox) {
        let pending = std::mem::take(&mut self.deferred);
        for msg in pending {
            self.handle(msg, out);
        }
    }

    /// Process a request at a satisfied version (pure read of the
    /// replica).
    fn process(&mut self, msg: Msg, out: &mut Outbox) {
        match msg {
            Msg::ScoreArrivals {
                req,
                version,
                items,
            } => {
                debug_assert_eq!(version, self.version, "stale request escaped deferral");
                let scores = items
                    .iter()
                    .map(|(slot, d)| {
                        let (c, _) =
                            self.model
                                .score_insertion(&d.row, &d.cat, &d.num, self.lambda);
                        (*slot, c)
                    })
                    .collect();
                out.push((0, Msg::ArrivalScores { req, scores }));
            }
            Msg::ProposeBatch {
                req,
                version,
                start,
                end,
            } => {
                debug_assert_eq!(version, self.version, "stale request escaped deferral");
                let mut proposals = Vec::new();
                for (&slot, d) in self.owned.range(start..end) {
                    if d.cluster == TOMBSTONE {
                        continue;
                    }
                    let (to, delta) = self.model.propose_move_row(
                        d.cluster,
                        &d.row,
                        &d.cat,
                        &d.num,
                        d.sqnorm,
                        self.lambda,
                    );
                    // The single-node staging filter, verbatim.
                    if to != d.cluster && delta < -MOVE_EPS {
                        proposals.push((slot, to));
                    }
                }
                out.push((0, Msg::Proposals { req, proposals }));
            }
            Msg::ProposeOne { req, version, slot } => {
                debug_assert_eq!(version, self.version, "stale request escaped deferral");
                let d = self
                    .owned
                    .get(&slot)
                    .expect("proposal for a slot this shard does not own");
                let to = if d.cluster == TOMBSTONE {
                    None
                } else {
                    let (to, delta) = self.model.propose_move_row(
                        d.cluster,
                        &d.row,
                        &d.cat,
                        &d.num,
                        d.sqnorm,
                        self.lambda,
                    );
                    (to != d.cluster && delta < -MOVE_EPS).then_some(to)
                };
                out.push((0, Msg::OneProposal { req, slot, to }));
            }
            Msg::ChunkFold {
                req,
                version,
                chunk,
                segments,
                idx,
                mut acc,
            } => {
                debug_assert_eq!(version, self.version, "stale request escaped deferral");
                let (owner, start, end) = segments[idx];
                debug_assert_eq!(owner, self.id, "chunk hop routed to the wrong shard");
                for (_, d) in self.owned.range(start..end) {
                    if d.cluster == TOMBSTONE {
                        continue;
                    }
                    acc.add_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm);
                }
                if idx + 1 < segments.len() {
                    let next = segments[idx + 1].0 + 1;
                    out.push((
                        next,
                        Msg::ChunkFold {
                            req,
                            version,
                            chunk,
                            segments,
                            idx: idx + 1,
                            acc,
                        },
                    ));
                } else {
                    out.push((0, Msg::ChunkDone { req, chunk, acc }));
                }
            }
            // Responses and client ops are never addressed to shards.
            _ => unreachable!("unexpected message at a shard"),
        }
    }

    /// Serialize the durable state: identity, plan, λ, log version, the
    /// replica model, and the owned payloads. Buffered batches and
    /// deferred requests are volatile by design — the sync handshake and
    /// the coordinator's re-issue of outstanding requests recover them.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut outb = Vec::new();
        wire::put_usize(&mut outb, self.id);
        wire::put_usize(&mut outb, self.plan.shards);
        wire::put_usize(&mut outb, self.plan.block);
        wire::put_u64(&mut outb, self.version);
        wire::put_f64(&mut outb, self.lambda);
        outb.extend(self.model.to_bytes());
        wire::put_usize(&mut outb, self.owned.len());
        for (&slot, d) in &self.owned {
            wire::put_usize(&mut outb, slot);
            d.to_bytes(&mut outb);
        }
        outb
    }

    /// Rebuild a shard from [`Self::snapshot_bytes`]; a typed error on a
    /// truncated or malformed buffer — decoding never panics and never
    /// silently accepts wrong bits.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let id = r.get_usize()?;
        let shards = r.get_usize()?;
        let block = r.get_usize()?;
        let version = r.get_u64()?;
        let lambda = r.get_f64()?;
        let model = ClusterModel::from_reader(&mut r)?;
        let n_owned = r.get_len(8)?;
        let mut owned = BTreeMap::new();
        for _ in 0..n_owned {
            let slot = r.get_usize()?;
            owned.insert(slot, SlotRow::from_reader(&mut r)?);
        }
        r.expect_empty()?;
        let plan = ShardPlan::new(shards, block).map_err(|_| WireError::Invalid {
            what: "shard placement plan",
        })?;
        if id >= plan.shards {
            return Err(WireError::Invalid {
                what: "shard id out of plan range",
            });
        }
        Ok(Self {
            id,
            plan,
            lambda,
            version,
            model,
            owned,
            buffered: BTreeMap::new(),
            deferred: Vec::new(),
        })
    }
}
