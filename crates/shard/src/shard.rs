//! The shard node: a full replica of the aggregate engine plus the
//! payloads of the slots this shard owns.

use crate::plan::ShardPlan;
use crate::protocol::{Msg, Part, ShardState};
use fairkm_core::wire::{self, Reader, WireError};
use fairkm_core::{improving, Answer, ClusterModel, LogEntry, SlotTable, WindowMemo, TOMBSTONE};
use std::collections::BTreeMap;

/// Leading `u64` of every [`ShardNode::snapshot_bytes`] payload: the bytes
/// `FKSHARD1`. Payloads written before the tag existed start with a shard
/// id far below 2^56, so they can never carry it.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"FKSHARD1");

/// Messages a handler wants delivered: `(destination node, message)`.
pub type Outbox = Vec<(usize, Msg)>;

/// One shard: applies the coordinator's replicated log to a
/// [`ClusterModel`] replica (so it can score and propose for **any** point)
/// and stores the full payloads of the slots the placement plan assigns to
/// it (so it can fold rebuild chunks and propose moves for its slice
/// without the coordinator shipping rows). A shard that fell behind jumps
/// ahead by adopting a newer state ([`Msg::Transfer`]).
///
/// Every ask is a pure read of the replica at the ask's log version — it
/// can be answered twice (crash-recovery re-issue) without corrupting
/// anything, and an ask that arrives before the shard has applied enough
/// log is deferred, not rejected. An ask the replica has passed is never
/// answered: the shard reports its version instead ([`Msg::Passed`]).
#[derive(Debug)]
pub struct ShardNode {
    id: usize,
    plan: ShardPlan,
    state: ShardState,
    /// Out-of-order log batches keyed by their first index (links are not
    /// FIFO); drained in log order as gaps fill.
    buffered: BTreeMap<u64, Vec<LogEntry>>,
    /// Asks pinned to a log version this replica has not reached yet, in
    /// arrival order.
    deferred: Vec<Msg>,
    /// The distance bounds of the owned slots of the last window this
    /// shard answered, read by the descent steps that follow it. Dropped
    /// when a transfer replaces the owned rows.
    memo: WindowMemo,
}

impl ShardNode {
    /// Provision shard `id` with the replica `state`.
    pub(crate) fn provision(id: usize, plan: ShardPlan, state: ShardState) -> Self {
        Self {
            id,
            plan,
            state,
            buffered: BTreeMap::new(),
            deferred: Vec::new(),
            memo: WindowMemo::default(),
        }
    }

    /// This shard's index (its node id is `id + 1`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Log version the replica has applied.
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Serialized replica model — for bitwise replica-agreement checks.
    pub fn model_bytes(&self) -> Vec<u8> {
        self.state.model.to_bytes()
    }

    /// Handle one protocol message, staging replies/forwards on `out`.
    pub fn handle(&mut self, msg: Msg, out: &mut Outbox) {
        match msg {
            Msg::Log { first, entries } => {
                self.buffered.insert(first, entries);
                self.pump_log();
                self.retry_deferred(out);
            }
            // Links reorder, so a transfer can arrive after a newer one or
            // after the log it covers: only a newer one is adopted. The
            // buffered batches and deferred asks stay for the new version.
            Msg::Transfer(state) if state.version > self.state.version => {
                self.state = *state;
                self.memo.clear();
                self.pump_log();
                self.retry_deferred(out);
            }
            Msg::Transfer(_) => {}
            Msg::Ask { version, .. } if version > self.state.version => self.deferred.push(msg),
            Msg::Ask { version, .. } if version < self.state.version => {
                let (shard, have) = (self.id, self.state.version);
                out.push((0, Msg::Passed { shard, have }));
            }
            Msg::Ask { req, version, part } => out.push(self.answer(req, version, part)),
            // Answers and client ops are never addressed to shards.
            _ => unreachable!("unexpected message at a shard"),
        }
    }

    /// Apply every buffered batch that is contiguous with the applied
    /// prefix, in log order, refreshing the scoring cache once per applied
    /// run (any refresh schedule that ends fresh yields identical bits —
    /// each cache entry is a pure function of the current aggregates).
    fn pump_log(&mut self) {
        while let Some((&first, _)) = self.buffered.range(..=self.state.version).next_back() {
            let entries = self.buffered.remove(&first).expect("key just observed");
            let skip = (self.state.version - first) as usize;
            if skip >= entries.len() {
                continue; // fully stale re-send
            }
            for entry in entries.into_iter().skip(skip) {
                self.apply(entry);
                self.state.version += 1;
            }
            self.state.model.refresh_cache();
        }
    }

    /// Apply one log entry — the exact aggregate mutation the coordinator
    /// (and the single-node engine) performed for it — and track the
    /// cluster of an owned slot.
    fn apply(&mut self, entry: LogEntry) {
        entry.apply_to(&mut self.state.model);
        let (slot, cluster) = match &entry {
            LogEntry::Insert { slot, data } => (*slot, data.cluster),
            LogEntry::Remove { slot, .. } => (*slot, TOMBSTONE),
            LogEntry::Move { slot, to, .. } => (*slot, *to),
            LogEntry::Install { .. } => return,
        };
        if self.plan.owner(slot) != self.id {
            return;
        }
        match entry {
            LogEntry::Insert { data, .. } => {
                self.state.owned.insert(slot, data);
            }
            _ => {
                self.state
                    .owned
                    .get_mut(&slot)
                    .expect("a logged slot this shard never saw")
                    .cluster = cluster
            }
        }
    }

    /// Retry deferred asks that the applied log has unblocked, in arrival
    /// order.
    fn retry_deferred(&mut self, out: &mut Outbox) {
        let pending = std::mem::take(&mut self.deferred);
        for msg in pending {
            self.handle(msg, out);
        }
    }

    /// Answer an ask at its version (a pure read of the replica, which may
    /// record a window's distance bounds in the memo): to the coordinator, or —
    /// for a fold chain's inner hop — onward to the next segment's owner.
    fn answer(&mut self, req: u64, version: u64, part: Part) -> (usize, Msg) {
        let ShardState {
            lambda,
            model,
            owned,
            ..
        } = &self.state;
        let answer = match part {
            Part::Score(items) => Answer::Scores(
                items
                    .iter()
                    .map(|(slot, d)| {
                        let scored = model.score_insertion(&d.row, &d.cat, &d.num, *lambda);
                        (*slot, scored.0)
                    })
                    .collect(),
            ),
            Part::Window { start, end } => {
                let (k, reach) = (model.k(), self.memo.record(model, start..end));
                let proposals = owned.range(start..end).filter_map(|(&slot, d)| {
                    let reach = &mut reach[(slot - start) * k..(slot - start + 1) * k];
                    let best = model.propose_recording(
                        d.cluster, &d.row, &d.cat, &d.num, d.sqnorm, *lambda, reach,
                    );
                    Some((slot, improving(d.cluster, best)?))
                });
                Answer::Proposals(proposals.collect())
            }
            Part::First { start, end } => {
                let descent = self.memo.descent(model, start..end, *lambda);
                Answer::First(owned.range(start..end).find_map(|(&slot, d)| {
                    if d.cluster == TOMBSTONE
                        || descent.as_ref().is_some_and(|descent| {
                            !descent.may_improve(slot, d.cluster, &d.cat, &d.num, d.sqnorm)
                        })
                    {
                        return None;
                    }
                    let best = model
                        .propose_move_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm, *lambda);
                    Some((slot, improving(d.cluster, best)?))
                }))
            }
            Part::Fold {
                chunk,
                segments,
                idx,
                mut acc,
            } => {
                let (owner, start, end) = segments[idx];
                debug_assert_eq!(owner, self.id, "fold hop routed to the wrong shard");
                for (_, d) in owned.range(start..end) {
                    if d.cluster != TOMBSTONE {
                        acc.add_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm);
                    }
                }
                if let Some(&(next, _, _)) = segments.get(idx + 1) {
                    let idx = idx + 1;
                    let part = Part::Fold {
                        chunk,
                        segments,
                        idx,
                        acc,
                    };
                    return (next + 1, Msg::Ask { req, version, part });
                }
                Answer::Chunks(vec![(chunk, acc)])
            }
        };
        (0, Msg::Answer { req, answer })
    }

    /// Serialize the durable state: the format tag, identity, plan, log
    /// version, λ, the replica model, the owned slot ids, and the owned
    /// rows as one [`SlotTable`]. Buffered batches and deferred requests
    /// are volatile by design — the sync handshake and the coordinator's
    /// re-issue of outstanding requests recover them.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u64(&mut out, SNAPSHOT_FORMAT);
        wire::put_usize(&mut out, self.id);
        wire::put_usize(&mut out, self.plan.shards);
        wire::put_usize(&mut out, self.plan.block);
        wire::put_u64(&mut out, self.state.version);
        wire::put_f64(&mut out, self.state.lambda);
        out.extend(self.state.model.to_bytes());
        let slots: Vec<usize> = self.state.owned.keys().copied().collect();
        wire::put_usizes(&mut out, &slots);
        SlotTable::put_rows(&mut out, self.state.owned.values());
        out
    }

    /// Rebuild a shard from [`Self::snapshot_bytes`]; a typed error on a
    /// truncated or malformed buffer — never a panic, never silently
    /// accepted wrong bits. A payload without this build's format tag is
    /// [`WireError::UnsupportedVersion`]. A λ bootstrap would reject
    /// (negative or non-finite), an owned row that does not fit the model
    /// ([`SlotTable::get`]), or slot ids that are not ascending, one per
    /// row and this shard's are [`WireError::Invalid`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, WireError> {
        let invalid = |what: &'static str| Err(WireError::Invalid { what });
        let mut r = Reader::new(bytes);
        let found = r.get_u64()?;
        if found != SNAPSHOT_FORMAT {
            return Err(WireError::UnsupportedVersion {
                found,
                expected: SNAPSHOT_FORMAT,
            });
        }
        let id = r.get_usize()?;
        let shards = r.get_usize()?;
        let block = r.get_usize()?;
        let version = r.get_u64()?;
        let lambda = r.get_f64()?;
        if !lambda.is_finite() || lambda < 0.0 {
            return invalid("λ");
        }
        let model = ClusterModel::from_reader(&mut r)?;
        let slots = r.get_usizes()?;
        let table = SlotTable::get(&mut r, &model)?;
        r.expect_empty()?;
        let plan = ShardPlan::new(shards, block).map_err(|_| WireError::Invalid {
            what: "shard placement plan",
        })?;
        if id >= plan.shards {
            return invalid("shard id out of plan range");
        }
        // One ascending id per row, each owned by this shard, or a fold or
        // proposal would skip or misplace a row.
        if slots.len() != table.n_slots()
            || slots.windows(2).any(|w| w[0] >= w[1])
            || slots.iter().any(|&slot| plan.owner(slot) != id)
        {
            return invalid("owned slot ids");
        }
        let owned = slots.into_iter().zip(table.into_rows(&model)).collect();
        let state = ShardState {
            lambda,
            version,
            model,
            owned,
        };
        Ok(Self::provision(id, plan, state))
    }
}
