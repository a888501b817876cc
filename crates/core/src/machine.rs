//! The streaming driver's control flow, written once as a sans-IO step
//! machine.
//!
//! Ingest, eviction, re-optimization, the bootstrap fit and single
//! optimizer passes (the batch fit's `MiniBatch` and `PerMove` schedules)
//! all run through [`Machine`]: round-robin reassignment under the Eq. 7/22
//! objective (Algorithm 1) as windowed passes with the exact per-move
//! fallback. The machine does no I/O and stores no rows. It yields
//! read-only [`Request`]s, takes their [`Answer`]s back, and changes the
//! clustering only by committing [`LogEntry`]s to its host
//! ([`Replica::commit`]). Two hosts run it:
//!
//! * the single-node engine ([`crate::StreamingFairKm`], [`crate::FairKm`])
//!   answers every request with a local call on its slot rows;
//! * the sharded coordinator scatters each request to the shards that own
//!   the slots it names, gathers their parts, and journals and broadcasts
//!   every commit.
//!
//! Sharded and single-node runs therefore take the same decisions by
//! construction. Three invariants make every answer a pure function of the
//! committed log:
//!
//! * **Frozen log while asked.** At most one request is pending, and
//!   nothing is committed until it is answered, so every answer is computed
//!   at the log version the request was issued at.
//! * **Pure requests.** Answering reads only. A request may be re-issued
//!   ([`Machine::resume`] without an answer) and answered again; an answer
//!   whose ticket is not the pending one is ignored.
//! * **Ordered reduction.** An answer may arrive in parts, in any order
//!   ([`Answer::absorb`]). The machine orders scores and proposals by slot,
//!   takes the lowest slot of a scan step, and merges rebuild chunks in
//!   chunk-index order from the zeroed identity — the left fold of the
//!   single-node rebuild.

use crate::agg::{AggregateDelta, SlotRow, MOVE_EPS, TOMBSTONE};
use crate::config::{DeltaEngine, FairKmError, UpdateSchedule};
use crate::fairkm::propose_move;
use crate::state::{ClusterModel, State};
use crate::streaming::{DriverLedger, EvictReport, IngestReport};
use crate::wire::{self, Reader, WireError};
use std::ops::{ControlFlow, Range};

/// The staging filter of every optimizer path: the destination of a
/// proposal `(to, delta)` for a point in cluster `from`, when the move
/// lowers the objective by more than [`MOVE_EPS`].
pub fn improving(from: usize, (to, delta): (usize, f64)) -> Option<usize> {
    (to != from && delta < -MOVE_EPS).then_some(to)
}

/// One mutation of the clustering. The wire form (`D = SlotRow`) carries the
/// affected point's row inline, so a replica that does not own the point
/// can still apply the exact aggregate delta. The machine commits the thin
/// form ([`Entry`]): its host looks removed and moved rows up itself.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry<D = SlotRow> {
    /// A point entered the clustering.
    Insert {
        /// Backing-store slot of the arrival (always the next free one).
        slot: usize,
        /// The arrival's row; `cluster` is its assignment.
        data: SlotRow,
    },
    /// The point at `slot` left the clustering.
    Remove {
        /// Slot being tombstoned.
        slot: usize,
        /// The stored row (cluster = the cluster it left).
        data: D,
    },
    /// The point at `slot` moved `from → to`.
    Move {
        /// Slot being moved.
        slot: usize,
        /// Cluster it left.
        from: usize,
        /// Cluster it joined.
        to: usize,
        /// The stored row (cluster = `to`).
        data: D,
    },
    /// Replace the aggregates wholesale with an exact, ordered rebuild —
    /// which cancels per-move float drift.
    Install {
        /// The rebuilt aggregates.
        agg: AggregateDelta,
    },
}

/// A log entry as the machine commits it: removals and moves name their
/// slot, not its row.
pub type Entry = LogEntry<()>;

impl LogEntry {
    /// Serialize one entry (bit-exact).
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        match self {
            LogEntry::Insert { slot, data } => {
                out.push(0);
                wire::put_usize(out, *slot);
                data.to_bytes(out);
            }
            LogEntry::Remove { slot, data } => {
                out.push(1);
                wire::put_usize(out, *slot);
                data.to_bytes(out);
            }
            LogEntry::Move {
                slot,
                from,
                to,
                data,
            } => {
                out.push(2);
                wire::put_usize(out, *slot);
                wire::put_usize(out, *from);
                wire::put_usize(out, *to);
                data.to_bytes(out);
            }
            LogEntry::Install { agg } => {
                out.push(3);
                agg.to_bytes(out);
            }
        }
    }

    /// Decode one entry; a typed error on truncated or malformed bytes.
    /// The result still has to pass [`Self::check`] before it is applied.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take(1)?[0] {
            0 => LogEntry::Insert {
                slot: r.get_usize()?,
                data: SlotRow::from_reader(r)?,
            },
            1 => LogEntry::Remove {
                slot: r.get_usize()?,
                data: SlotRow::from_reader(r)?,
            },
            2 => LogEntry::Move {
                slot: r.get_usize()?,
                from: r.get_usize()?,
                to: r.get_usize()?,
                data: SlotRow::from_reader(r)?,
            },
            3 => LogEntry::Install {
                agg: AggregateDelta::from_reader(r)?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "log entry",
                    tag: tag as u64,
                })
            }
        })
    }

    /// Check a decoded entry against `model` and the slot table `slots` it
    /// is about to be applied to, so that applying it cannot index out of
    /// range or underflow a count:
    ///
    /// * `Insert`: the next slot, a row that [`ClusterModel::fits`], and a
    ///   live cluster;
    /// * `Remove`: a live slot, and `data` is its stored row;
    /// * `Move`: a live slot in cluster `from`, a different `to` below `k`,
    ///   and `data` is the stored row;
    /// * `Install`: the model's aggregate shape and its exact member and
    ///   categorical counts — a rebuild moves no point.
    pub fn check(&self, model: &ClusterModel, slots: &[SlotRow]) -> Result<(), WireError> {
        let stored = |slot: usize, data: &SlotRow| {
            slots
                .get(slot)
                .filter(|d| d.cluster != TOMBSTONE && same_row(d, data))
        };
        let valid = match self {
            LogEntry::Insert { slot, data } => {
                *slot == slots.len() && model.fits(data) && data.cluster != TOMBSTONE
            }
            LogEntry::Remove { slot, data } => {
                stored(*slot, data).is_some_and(|d| d.cluster == data.cluster)
            }
            LogEntry::Move {
                slot,
                from,
                to,
                data,
            } => {
                stored(*slot, data).is_some_and(|d| d.cluster == *from)
                    && to != from
                    && *to < model.k()
                    && data.cluster == *to
            }
            LogEntry::Install { agg } => {
                let now = &model.agg;
                agg.size == now.size
                    && agg.cat_counts == now.cat_counts
                    && agg.centroid_sum.len() == now.centroid_sum.len()
                    && agg
                        .num_sums
                        .iter()
                        .map(Vec::len)
                        .eq(now.num_sums.iter().map(Vec::len))
                    && agg.member_sqnorm.len() == now.member_sqnorm.len()
            }
        };
        if valid {
            Ok(())
        } else {
            Err(WireError::Invalid {
                what: "log entry vs slot table",
            })
        }
    }

    /// Apply the entry's aggregate mutation to `model` — the exact delta
    /// the committing host applied. The caller updates its own slot rows.
    pub fn apply_to(&self, model: &mut ClusterModel) {
        match self {
            LogEntry::Insert { data: d, .. } => {
                model.insert_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm)
            }
            LogEntry::Remove { data: d, .. } => {
                model.remove_row(d.cluster, &d.row, &d.cat, &d.num, d.sqnorm)
            }
            LogEntry::Move {
                from, to, data: d, ..
            } => model.move_row(*from, *to, &d.row, &d.cat, &d.num, d.sqnorm),
            LogEntry::Install { agg } => model.install(agg.clone()),
        }
    }
}

/// Whether two slot rows hold the same point, bit for bit (clusters aside).
fn same_row(a: &SlotRow, b: &SlotRow) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.row) == bits(&b.row)
        && a.cat == b.cat
        && bits(&a.num) == bits(&b.num)
        && a.sqnorm.to_bits() == b.sqnorm.to_bits()
}

/// What a [`Machine`] reads from its host and commits to it. Reads see the
/// host's replica at the current log version; the scoring cache is fresh
/// between steps.
pub trait Replica {
    /// The frozen λ.
    fn lambda(&self) -> f64;
    /// The host's replica of the aggregate engine.
    fn model(&self) -> &ClusterModel;
    /// Backing-store slots, tombstones included.
    fn n_slots(&self) -> usize;
    /// Cluster of a slot below [`Self::n_slots`] ([`TOMBSTONE`] if dead).
    fn cluster(&self, slot: usize) -> usize;
    /// Apply the move of `slot` (`from → to`) to `model`, a scratch copy
    /// of [`Self::model`], with the slot's stored row.
    fn trial_move(&self, model: &mut ClusterModel, slot: usize, from: usize, to: usize);
    /// Apply `entries` in order, draining them, and refresh the scoring
    /// cache. `false` means the host could not make them durable: the
    /// machine stops and the operation produces no outcome.
    fn commit(&mut self, entries: &mut Vec<Entry>) -> bool;
    /// Count a window that failed monotone acceptance.
    fn fallback(&mut self);

    /// Whether `slot` holds a live point.
    fn is_live(&self, slot: usize) -> bool {
        slot < self.n_slots() && self.cluster(slot) != TOMBSTONE
    }
}

/// A read-only question the machine needs answered before it can go on.
/// Every answer is a pure function of the host's state at the log version
/// the request was issued at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Score the arrivals ([`Machine::arrivals`], slot `start + i` for row
    /// `i`) against the frozen caches: [`Answer::Scores`] with each slot's
    /// [`ClusterModel::score_insertion`] cluster.
    Score {
        /// Slot of the first arrival.
        start: usize,
    },
    /// Propose moves for the live slots in `start..end`:
    /// [`Answer::Proposals`] with the [`improving`] ones.
    Window {
        /// First slot (inclusive).
        start: usize,
        /// Last slot (exclusive).
        end: usize,
    },
    /// Find the first live slot in `start..end`, in slot order, with an
    /// [`improving`] move: [`Answer::First`]. One step of a per-move scan —
    /// the scan commits that move and asks again from the next slot.
    First {
        /// First slot (inclusive).
        start: usize,
        /// Last slot (exclusive).
        end: usize,
    },
    /// Fold the live slots of each chunk of
    /// `fairkm_parallel::chunk_ranges(n_slots)` in slot order:
    /// [`Answer::Chunks`] with `(chunk index, partial)` pairs.
    Rebuild,
}

/// The answer to a [`Request`], possibly gathered from parts.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `(slot, cluster)` per arrival, in any order.
    Scores(Vec<(usize, usize)>),
    /// Improving `(slot, destination)` pairs, in any order.
    Proposals(Vec<(usize, usize)>),
    /// The first improving `(slot, destination)`, if any.
    First(Option<(usize, usize)>),
    /// `(chunk index, partial)` pairs, in any order.
    Chunks(Vec<(usize, AggregateDelta)>),
}

impl Answer {
    /// Fold in another part of the same request's answer. Parts may come
    /// in any order: the machine orders them when it resumes.
    pub fn absorb(&mut self, part: Answer) {
        match (self, part) {
            (Answer::Scores(all), Answer::Scores(part))
            | (Answer::Proposals(all), Answer::Proposals(part)) => all.extend(part),
            (Answer::Chunks(all), Answer::Chunks(part)) => all.extend(part),
            (Answer::First(all), Answer::First(part)) => {
                *all = all
                    .take()
                    .into_iter()
                    .chain(part)
                    .min_by_key(|&(slot, _)| slot)
            }
            _ => panic!("answer parts of different requests"),
        }
    }
}

/// A pending request and the id its answer must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Id of this request within the machine's run.
    pub id: u64,
    /// The request.
    pub request: Request,
}

/// What [`Machine::resume`] wants next.
#[derive(Debug)]
pub enum Step {
    /// Answer this request (again, if it was asked before).
    Ask(Ticket),
    /// The operation completed; surfaced exactly once.
    Done(Outcome),
    /// The host refused a commit, or the operation already completed:
    /// nothing more will happen.
    Stopped,
}

/// The result of a completed [`Machine`].
#[derive(Debug)]
pub enum Outcome {
    /// An ingest.
    Ingest(IngestReport),
    /// An eviction.
    Evict(EvictReport),
    /// Moves made by a re-optimization or a bootstrap fit.
    Reoptimize(usize),
    /// One optimizer pass: moves made and the objective after them.
    Pass {
        /// Accepted moves.
        moved: usize,
        /// Cached-form objective after the pass.
        objective: f64,
    },
}

/// One streaming operation (or one optimizer pass) in progress. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Machine {
    op: Op,
    stage: Stage,
    /// The ledger-driven convergence loop, while optimizing.
    passes: Option<Passes>,
    /// The optimizer pass in progress.
    pass: Option<Pass>,
    /// Commit buffer, reused: committing a move allocates nothing.
    entries: Vec<Entry>,
    /// Scratch copy of the model that windows are scored on, reused.
    scratch: Option<ClusterModel>,
    tickets: u64,
}

#[derive(Debug)]
enum Op {
    Ingest {
        rows: Vec<SlotRow>,
        start: usize,
        clusters: Vec<usize>,
    },
    Evict {
        slots: Vec<usize>,
        oldest: bool,
    },
    Reoptimize,
    Bootstrap(usize),
    Pass,
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    Start,
    Wait(Ticket),
    Over,
}

/// Passes run to convergence from the ledger's objective: after each pass
/// that moved anything, one drift-cancelling rebuild (never per window);
/// the objective after each pass goes on the ledger's trace.
#[derive(Debug)]
struct Passes {
    left: usize,
    moved: usize,
    total: usize,
    current: f64,
}

/// One pass over `cursor..end` under the windowed mini-batch schedule
/// (§6.1). A window's proposals are scored against the aggregates and
/// caches frozen at the window start, then applied together on a scratch
/// copy of the model: as deltas, with only the dirtied clusters refreshed
/// and the objective assembled from the cached contributions in O(k) — no
/// rebuild. Per-move deltas assume one move at a time, so applying a whole
/// window can *raise* the objective (in the worst case the clustering
/// oscillates forever). Hence **monotone acceptance**: a window is
/// committed only if it lowers the objective by more than [`MOVE_EPS`];
/// otherwise the pass rebuilds exactly and descends through the window
/// one move at a time (the scan, which is the whole of a `PerMove` pass).
/// The objective trace therefore never rises, and every counted move is a
/// real improvement. Scoring is read-only and every mutation is applied
/// in slot order, so the result is the same for any thread count.
#[derive(Debug)]
struct Pass {
    window: usize,
    cursor: usize,
    end: usize,
    moved: usize,
    current: f64,
    rebuild: bool,
    scan: Option<Scan>,
}

/// A sequential per-move scan of `next..end`: each accepted move is
/// committed before the next slot is scored.
#[derive(Debug)]
struct Scan {
    next: usize,
    end: usize,
    moved: usize,
}

impl Pass {
    fn new(range: Range<usize>, schedule: UpdateSchedule, current: f64) -> Self {
        let scan = Scan {
            next: range.start,
            end: range.end,
            moved: 0,
        };
        let (window, scan) = match schedule {
            UpdateSchedule::MiniBatch(w) => (w, None),
            UpdateSchedule::PerMove => (0, Some(scan)),
        };
        Self {
            window,
            cursor: range.start,
            end: range.end,
            moved: 0,
            current,
            rebuild: false,
            scan,
        }
    }

    /// The pass's next request, or `None` once its range is exhausted.
    fn next(&mut self, rep: &impl Replica) -> Option<Request> {
        if self.rebuild {
            return Some(Request::Rebuild);
        }
        if let Some(scan) = &mut self.scan {
            if scan.next < scan.end {
                let (start, end) = (scan.next, scan.end);
                return Some(Request::First { start, end });
            }
            if scan.moved > 0 {
                self.current = rep.model().objective_cached(rep.lambda());
            }
            self.moved += scan.moved;
            self.cursor = scan.end;
            self.scan = None;
        }
        (self.cursor < self.end).then(|| Request::Window {
            start: self.cursor,
            end: self.cursor.saturating_add(self.window).min(self.end),
        })
    }
}

/// The ledger of a streaming operation; a bare pass runs without one.
fn books<'l>(ledger: &'l mut Option<&mut DriverLedger>) -> &'l mut DriverLedger {
    ledger
        .as_deref_mut()
        .expect("streaming operations keep a ledger")
}

fn commit(rep: &mut impl Replica, entries: &mut Vec<Entry>) -> Option<()> {
    rep.commit(entries).then_some(())
}

impl Machine {
    fn new(op: Op) -> Self {
        Self {
            op,
            stage: Stage::Start,
            passes: None,
            pass: None,
            entries: Vec::new(),
            scratch: None,
            tickets: 0,
        }
    }

    /// Ingest encoded arrivals ([`crate::RowCodec::encode_all`]) as the
    /// next slots: score them all against the caches frozen at batch start,
    /// insert them in arrival order, then run the drift check.
    pub fn ingest(rows: Vec<SlotRow>) -> Self {
        Self::new(Op::Ingest {
            rows,
            start: 0,
            clusters: Vec::new(),
        })
    }

    /// Evict the live `slots`, then run the drift check. Dead,
    /// out-of-range or duplicated slots are rejected here, before anything
    /// mutates.
    pub fn evict(slots: Vec<usize>, rep: &impl Replica) -> Result<Self, FairKmError> {
        DriverLedger::check_evict(&slots, |s| rep.is_live(s))?;
        Ok(Self::new(Op::Evict {
            slots,
            oldest: false,
        }))
    }

    /// Evict the `count` oldest live slots, found from the ledger's cursor,
    /// which advances past the dead prefix afterwards.
    pub fn evict_oldest(count: usize, ledger: &DriverLedger, rep: &impl Replica) -> Self {
        let slots = ledger.oldest_live(count, rep.n_slots(), |s| rep.is_live(s));
        Self::new(Op::Evict {
            slots,
            oldest: true,
        })
    }

    /// Run up to the ledger's re-optimization passes, then reset the drift
    /// baseline.
    pub fn reoptimize() -> Self {
        Self::new(Op::Reoptimize)
    }

    /// The bootstrap fit: up to `max_passes` passes, then set the drift
    /// baseline without counting a re-optimization.
    pub fn bootstrap(max_passes: usize) -> Self {
        Self::new(Op::Bootstrap(max_passes))
    }

    /// One optimizer pass over `range` from the cached-form objective
    /// `current`: windows of `MiniBatch(w)` slots, or one per-move scan for
    /// `PerMove`. Ends with [`Outcome::Pass`] and runs without a ledger.
    pub fn pass(range: Range<usize>, schedule: UpdateSchedule, current: f64) -> Self {
        let mut machine = Self::new(Op::Pass);
        machine.pass = Some(Pass::new(range, schedule, current));
        machine
    }

    /// The arrivals a [`Request::Score`] asks about.
    pub fn arrivals(&self) -> &[SlotRow] {
        match &self.op {
            Op::Ingest { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Advance the machine: start it (first call), or take the pending
    /// request's answer, committing through `rep` until the next request
    /// or the end. Without an answer, or with one whose ticket is not the
    /// pending one, it changes nothing and returns the pending request
    /// again. `ledger` is the stream's ledger; only [`Self::pass`] runs
    /// without one.
    pub fn resume(
        &mut self,
        mut ledger: Option<&mut DriverLedger>,
        rep: &mut impl Replica,
        answer: Option<(u64, Answer)>,
    ) -> Step {
        let ledger = &mut ledger;
        let ran = match (std::mem::replace(&mut self.stage, Stage::Over), answer) {
            (Stage::Start, _) => self.start(ledger, rep),
            (Stage::Wait(t), Some((id, answer))) if id == t.id => {
                self.take(ledger, rep, t.request, answer)
            }
            (Stage::Wait(t), _) => {
                self.stage = Stage::Wait(t);
                return Step::Ask(t);
            }
            (Stage::Over, _) => return Step::Stopped,
        };
        if ran.is_none() {
            return Step::Stopped;
        }
        match self.next(ledger, rep) {
            ControlFlow::Continue(request) => {
                self.tickets += 1;
                let ticket = Ticket {
                    id: self.tickets,
                    request,
                };
                self.stage = Stage::Wait(ticket);
                Step::Ask(ticket)
            }
            ControlFlow::Break(outcome) => Step::Done(outcome),
        }
    }

    /// The operation's first mutations, before any request.
    fn start(
        &mut self,
        ledger: &mut Option<&mut DriverLedger>,
        rep: &mut impl Replica,
    ) -> Option<()> {
        match &mut self.op {
            Op::Ingest { start, .. } => *start = rep.n_slots(),
            Op::Evict { slots, .. } if !slots.is_empty() => {
                let evicted = slots.len();
                self.entries.extend(
                    slots
                        .iter()
                        .map(|&slot| LogEntry::Remove { slot, data: () }),
                );
                commit(rep, &mut self.entries)?;
                self.record(books(ledger), rep, 0, evicted);
            }
            Op::Reoptimize => {
                let ledger = books(ledger);
                self.optimize(ledger.reopt_passes(), ledger.objective());
            }
            &mut Op::Bootstrap(max_passes) => self.optimize(max_passes, books(ledger).objective()),
            Op::Evict { .. } | Op::Pass => {}
        }
        Some(())
    }

    /// Take the answer to `request`, committing what it decides.
    fn take(
        &mut self,
        ledger: &mut Option<&mut DriverLedger>,
        rep: &mut impl Replica,
        request: Request,
        answer: Answer,
    ) -> Option<()> {
        let lambda = rep.lambda();
        match (request, answer) {
            (Request::Score { start }, Answer::Scores(scores)) => {
                let Op::Ingest { rows, clusters, .. } = &mut self.op else {
                    unreachable!("scores outside an ingest");
                };
                *clusters = vec![TOMBSTONE; rows.len()];
                for (slot, c) in scores {
                    clusters[slot - start] = c;
                }
                let inserted = clusters.len();
                let arrivals = rows.drain(..).zip(clusters.iter()).enumerate();
                self.entries.extend(arrivals.map(|(i, (mut data, &c))| {
                    data.cluster = c;
                    LogEntry::Insert {
                        slot: start + i,
                        data,
                    }
                }));
                commit(rep, &mut self.entries)?;
                self.record(books(ledger), rep, inserted, 0);
            }
            (Request::Window { end, .. }, Answer::Proposals(mut proposals)) => {
                let pass = self.pass.as_mut().expect("proposals outside a pass");
                proposals.sort_unstable_by_key(|&(slot, _)| slot);
                let staged = proposals.iter().map(|&(slot, to)| LogEntry::Move {
                    slot,
                    from: rep.cluster(slot),
                    to,
                    data: (),
                });
                self.entries.extend(staged);
                if self.entries.is_empty() {
                    pass.cursor = end;
                    return Some(());
                }
                // Score the window's simultaneous application on a scratch
                // copy of the model: only an accepted window is committed.
                let trial = match &mut self.scratch {
                    Some(trial) => {
                        trial.copy_state_from(rep.model());
                        trial
                    }
                    None => self.scratch.insert(rep.model().clone()),
                };
                for entry in &self.entries {
                    if let LogEntry::Move { slot, from, to, .. } = *entry {
                        rep.trial_move(trial, slot, from, to);
                    }
                }
                trial.refresh_cache();
                let after = trial.objective_cached(lambda);
                if after < pass.current - MOVE_EPS {
                    pass.moved += self.entries.len();
                    pass.current = after;
                    pass.cursor = end;
                    commit(rep, &mut self.entries)?;
                } else {
                    // The simultaneous application hurt: rebuild exactly,
                    // then descend through the window one move at a time.
                    self.entries.clear();
                    rep.fallback();
                    pass.rebuild = true;
                    pass.scan = Some(Scan {
                        next: pass.cursor,
                        end,
                        moved: 0,
                    });
                }
            }
            (Request::First { end, .. }, Answer::First(found)) => {
                let pass = self.pass.as_mut().expect("a proposal outside a pass");
                let scan = pass.scan.as_mut().expect("a proposal outside a scan");
                scan.next = end;
                if let Some((slot, to)) = found {
                    scan.next = slot + 1;
                    scan.moved += 1;
                    let from = rep.cluster(slot);
                    self.entries.push(LogEntry::Move {
                        slot,
                        from,
                        to,
                        data: (),
                    });
                    commit(rep, &mut self.entries)?;
                }
            }
            (Request::Rebuild, Answer::Chunks(mut chunks)) => {
                chunks.sort_unstable_by_key(|&(chunk, _)| chunk);
                let zeroed = rep.model().zeroed_delta();
                let agg = chunks
                    .into_iter()
                    .fold(zeroed, |total, (_, part)| total.merge(part));
                self.entries.push(LogEntry::Install { agg });
                commit(rep, &mut self.entries)?;
                match &mut self.pass {
                    Some(pass) => pass.rebuild = false,
                    None => self.end_pass(books(ledger), rep.model().objective_cached(lambda)),
                }
            }
            (request, _) => panic!("an answer that does not fit {request:?}"),
        }
        Some(())
    }

    /// Find the next request, running the bookkeeping between requests, or
    /// finish the operation.
    fn next(
        &mut self,
        ledger: &mut Option<&mut DriverLedger>,
        rep: &mut impl Replica,
    ) -> ControlFlow<Outcome, Request> {
        if let Op::Ingest { rows, start, .. } = &self.op {
            if !rows.is_empty() {
                return ControlFlow::Continue(Request::Score { start: *start });
            }
        }
        loop {
            if let Some(pass) = &mut self.pass {
                if let Some(request) = pass.next(rep) {
                    return ControlFlow::Continue(request);
                }
                let Some(Pass { moved, current, .. }) = self.pass.take() else {
                    unreachable!("the pass was just asked");
                };
                let Some(passes) = &mut self.passes else {
                    return ControlFlow::Break(Outcome::Pass {
                        moved,
                        objective: current,
                    });
                };
                passes.moved = moved;
                passes.current = current;
                if moved > 0 {
                    return ControlFlow::Continue(Request::Rebuild);
                }
                self.end_pass(books(ledger), current);
            }
            match &mut self.passes {
                Some(passes) if passes.left > 0 => {
                    passes.left -= 1;
                    let n = rep.n_slots();
                    let window = UpdateSchedule::MiniBatch(books(ledger).window(n));
                    self.pass = Some(Pass::new(0..n, window, passes.current));
                }
                _ => return ControlFlow::Break(self.finish(books(ledger), rep)),
            }
        }
    }

    /// Start the ledger's convergence loop.
    fn optimize(&mut self, max_passes: usize, current: f64) {
        self.passes = Some(Passes {
            left: max_passes,
            moved: 0,
            total: 0,
            current,
        });
    }

    /// Close a pass that ended at objective `current`.
    fn end_pass(&mut self, ledger: &mut DriverLedger, current: f64) {
        let passes = self.passes.as_mut().expect("a pass end outside a loop");
        passes.current = current;
        ledger.push_trace(current);
        passes.total += passes.moved;
        if passes.moved == 0 {
            passes.left = 0;
        }
    }

    /// Record an applied ingest or evict batch and run the drift check.
    fn record(&mut self, ledger: &mut DriverLedger, rep: &impl Replica, ins: usize, ev: usize) {
        ledger.record_batch(rep.model(), ins, ev);
        if ledger.drifted(rep.model().live()) {
            self.optimize(ledger.reopt_passes(), ledger.objective());
        }
    }

    fn finish(&mut self, ledger: &mut DriverLedger, rep: &impl Replica) -> Outcome {
        let live = rep.model().live();
        let reopt = self.passes.take().map(|passes| {
            match self.op {
                Op::Bootstrap(_) => ledger.rebase(passes.current, live),
                _ => ledger.close_reopt(passes.current, live),
            }
            passes.total
        });
        let (reoptimized, reopt_moves) = (reopt.is_some(), reopt.unwrap_or(0));
        let objective = ledger.objective();
        match std::mem::replace(&mut self.op, Op::Pass) {
            Op::Ingest {
                start, clusters, ..
            } => Outcome::Ingest(IngestReport {
                slots: start..start + clusters.len(),
                clusters,
                objective,
                reoptimized,
                reopt_moves,
            }),
            Op::Evict { slots, oldest } => {
                if oldest {
                    ledger.advance_oldest(rep.n_slots(), |s| rep.is_live(s));
                }
                Outcome::Evict(EvictReport {
                    evicted: slots.len(),
                    objective,
                    reoptimized,
                    reopt_moves,
                })
            }
            Op::Reoptimize | Op::Bootstrap(_) => Outcome::Reoptimize(reopt_moves),
            Op::Pass => unreachable!("a bare pass ends with its pass"),
        }
    }
}

/// The single-node host: a [`State`] answering every request with a local
/// call.
pub(crate) struct Local<'s, 'a> {
    pub state: &'s mut State<'a>,
    pub lambda: f64,
    pub engine: DeltaEngine,
}

impl Local<'_, '_> {
    /// Run `machine` to completion.
    pub fn run(&mut self, mut ledger: Option<&mut DriverLedger>, mut machine: Machine) -> Outcome {
        let mut answer = None;
        loop {
            match machine.resume(ledger.as_deref_mut(), self, answer.take()) {
                Step::Ask(t) => answer = Some((t.id, self.answer(t.request, machine.arrivals()))),
                Step::Done(outcome) => {
                    self.state.debug_validate_cache(self.lambda);
                    return outcome;
                }
                Step::Stopped => unreachable!("a local commit cannot fail"),
            }
        }
    }

    /// One optimizer pass ([`Machine::pass`]): `(moved, objective)`.
    pub fn pass(
        &mut self,
        range: Range<usize>,
        schedule: UpdateSchedule,
        current: f64,
    ) -> (usize, f64) {
        match self.run(None, Machine::pass(range, schedule, current)) {
            Outcome::Pass { moved, objective } => (moved, objective),
            _ => unreachable!("a bare pass ends with its pass"),
        }
    }

    /// Answer `request` from the state.
    pub fn answer(&self, request: Request, arrivals: &[SlotRow]) -> Answer {
        let (state, lambda, engine) = (&*self.state, self.lambda, self.engine);
        let threads = state.threads;
        let propose =
            |x: usize| improving(state.assignment[x], propose_move(state, x, lambda, engine));
        match request {
            Request::Score { start } => {
                let model = &state.model;
                Answer::Scores(fairkm_parallel::map_indexed(
                    threads,
                    0..arrivals.len(),
                    |i| {
                        let r = &arrivals[i];
                        (
                            start + i,
                            model.score_insertion(&r.row, &r.cat, &r.num, lambda).0,
                        )
                    },
                ))
            }
            Request::Window { start, end } => {
                let proposals = fairkm_parallel::map_indexed(threads, start..end, |x| {
                    propose(x).map(|to| (x, to))
                });
                Answer::Proposals(proposals.into_iter().flatten().collect())
            }
            Request::First { start, end } => {
                Answer::First((start..end).find_map(|x| Some((x, propose(x)?))))
            }
            Request::Rebuild => {
                let chunks =
                    fairkm_parallel::map_chunks(threads, state.n, |r| state.rebuild_partial(r));
                Answer::Chunks(chunks.into_iter().enumerate().collect())
            }
        }
    }
}

impl Replica for Local<'_, '_> {
    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn model(&self) -> &ClusterModel {
        &self.state.model
    }

    fn n_slots(&self) -> usize {
        self.state.n
    }

    fn cluster(&self, slot: usize) -> usize {
        self.state.assignment[slot]
    }

    fn trial_move(&self, model: &mut ClusterModel, slot: usize, from: usize, to: usize) {
        let s = &self.state;
        let (row, sqnorm) = (s.matrix.row(slot), s.point_sqnorm[slot]);
        model.move_row(from, to, row, s.cat_row(slot), s.num_row(slot), sqnorm);
    }

    fn commit(&mut self, entries: &mut Vec<Entry>) -> bool {
        self.state.commit(entries);
        true
    }

    fn fallback(&mut self) {
        self.state.fallbacks += 1;
    }
}

#[cfg(test)]
mod tests {
    //! The determinism invariants, as properties of the machine alone: a
    //! host that re-issues requests, offers stale and duplicate answers and
    //! delivers answers in shuffled parts must end bitwise where a host that
    //! answers each request once, whole, ends.
    use super::*;
    use crate::config::{FairKmConfig, Lambda};
    use crate::streaming::{StreamingConfig, StreamingFairKm};
    use fairkm_data::{row, Dataset, DatasetBuilder, Role, Value};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Two blobs, group aligned with blob identity. The jitter has full
    /// mantissas, so float sums depend on the order they are taken in.
    fn blobs(n_per_side: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        for i in 0..n_per_side {
            let jitter = (i as f64 * 0.7).sin() * 0.3;
            b.push_row(row![jitter, jitter, "a"]).unwrap();
            b.push_row(row![5.0 + jitter, 5.0 - jitter, "b"]).unwrap();
        }
        b.build().unwrap()
    }

    /// Mid-gap arrivals whose groups fight the reference: they drift the
    /// objective past a tight threshold.
    fn arrivals(batch: usize) -> Vec<Vec<Value>> {
        (0..12)
            .map(|i| {
                let j = ((batch * 12 + i) % 5) as f64 * 0.3;
                row![2.5 + j, 2.5 - j, if i % 3 == 0 { "b" } else { "a" }]
            })
            .collect()
    }

    fn engine() -> StreamingFairKm {
        // An unoptimized start and a heavy λ: windows' simultaneous moves
        // overshoot, so the per-move fallback runs too. 200+ slots make
        // the rebuild several chunks.
        let base = FairKmConfig::new(3)
            .with_seed(7)
            .with_max_iters(0)
            .with_lambda(Lambda::Fixed(4000.0))
            .with_schedule(UpdateSchedule::MiniBatch(64))
            .with_threads(1);
        let config = StreamingConfig::from_base(base).with_drift_threshold(1e-3);
        StreamingFairKm::bootstrap(blobs(100), config).unwrap()
    }

    /// The operations both hosts run: ingests with drift re-optimization,
    /// evictions, and an explicit re-optimization.
    enum Op {
        Ingest(usize),
        Evict(Vec<usize>),
        EvictOldest(usize),
        Reoptimize,
    }

    fn ops() -> Vec<Op> {
        let mut ops: Vec<Op> = (0..6).map(Op::Ingest).collect();
        ops.extend([Op::EvictOldest(10), Op::Evict(vec![61, 70]), Op::Reoptimize]);
        ops
    }

    /// The requests a run asked, by kind: scores, windows, scan steps,
    /// rebuilds.
    type Asked = [usize; 4];

    /// Split `items` into a shuffled sequence of parts, absorbed like a
    /// coordinator gathers shard responses.
    fn in_parts<T>(mut items: Vec<T>, rng: &mut StdRng, wrap: fn(Vec<T>) -> Answer) -> Answer {
        items.shuffle(rng);
        let mut answer = wrap(Vec::new());
        while !items.is_empty() {
            let take = rng.gen_range(1..=items.len());
            answer.absorb(wrap(items.split_off(items.len() - take)));
        }
        answer
    }

    /// Run one operation's machine on `s`, returning the model bytes after
    /// every answered request. A perturbed host re-issues every request,
    /// answers it twice, offers a stale answer before the real one and a
    /// duplicate after it, and delivers the real one in shuffled parts.
    fn run(
        s: &mut StreamingFairKm,
        op: &Op,
        rng: Option<&mut StdRng>,
        asked: &mut Asked,
    ) -> Vec<Vec<u8>> {
        let mut steps = Vec::new();
        let (codec, mut local, ledger) = s.host();
        let mut machine = match op {
            Op::Ingest(batch) => {
                Machine::ingest(codec.encode_all(&arrivals(*batch), local.state.n).unwrap())
            }
            Op::Evict(slots) => Machine::evict(slots.clone(), &local).unwrap(),
            Op::EvictOldest(count) => Machine::evict_oldest(*count, ledger, &local),
            Op::Reoptimize => Machine::reoptimize(),
        };
        let mut rng = rng;
        let mut step = machine.resume(Some(&mut *ledger), &mut local, None);
        while let Step::Ask(ticket) = step {
            let kind = match ticket.request {
                Request::Score { .. } => 0,
                Request::Window { .. } => 1,
                Request::First { .. } => 2,
                Request::Rebuild => 3,
            };
            asked[kind] += 1;
            let answer = local.answer(ticket.request, machine.arrivals());
            let Some(rng) = rng.as_deref_mut() else {
                step = machine.resume(Some(&mut *ledger), &mut local, Some((ticket.id, answer)));
                steps.push(local.state.model.to_bytes());
                continue;
            };
            let frozen = (local.state.model.to_bytes(), local.state.assignment.clone());
            let unchanged = |local: &Local<'_, '_>| {
                (local.state.model.to_bytes(), local.state.assignment.clone()) == frozen
            };
            // (b) Pure: asking again gives the same answer.
            assert_eq!(local.answer(ticket.request, machine.arrivals()), answer);
            // (a) Nothing is committed while the request is unanswered:
            // a re-issue and a stale answer return the same ticket.
            let again = machine.resume(Some(&mut *ledger), &mut local, None);
            assert!(matches!(again, Step::Ask(t) if t == ticket));
            let stale = Some((ticket.id + 1, answer.clone()));
            let again = machine.resume(Some(&mut *ledger), &mut local, stale);
            assert!(matches!(again, Step::Ask(t) if t == ticket));
            assert!(unchanged(&local), "a pending request committed");
            // (c) Parts in any order.
            let parts = match answer.clone() {
                Answer::Scores(v) => in_parts(v, rng, Answer::Scores),
                Answer::Proposals(v) => in_parts(v, rng, Answer::Proposals),
                Answer::Chunks(v) => in_parts(v, rng, Answer::Chunks),
                first @ Answer::First(_) => first,
            };
            step = machine.resume(Some(&mut *ledger), &mut local, Some((ticket.id, parts)));
            steps.push(local.state.model.to_bytes());
            // (b) A duplicate of the answer just taken changes nothing.
            let frozen = (local.state.model.to_bytes(), local.state.assignment.clone());
            let dup = machine.resume(Some(&mut *ledger), &mut local, Some((ticket.id, answer)));
            match (&step, dup) {
                (Step::Ask(next), Step::Ask(t)) => assert_eq!(*next, t),
                (Step::Done(_), Step::Stopped) => {}
                (step, dup) => panic!("a duplicate answer moved {step:?} to {dup:?}"),
            }
            let after = (local.state.model.to_bytes(), local.state.assignment.clone());
            assert!(after == frozen, "a duplicate answer committed");
        }
        assert!(matches!(step, Step::Done(_)), "the operation stopped");
        steps
    }

    #[test]
    fn perturbed_delivery_ends_bitwise_where_direct_delivery_does() {
        let mut direct = engine();
        let mut asked = [0; 4];
        let mut runs = Vec::new();
        for op in &ops() {
            let steps = run(&mut direct, op, None, &mut asked);
            runs.push((steps, direct.to_snapshot_bytes()));
        }
        // The workload reaches every request kind, the fallback included.
        assert!(asked.iter().all(|&n| n > 0), "requests asked: {asked:?}");
        assert!(direct.host().1.state.fallbacks > 0, "no window fell back");

        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut perturbed = engine();
            for (op, (steps, snapshot)) in ops().iter().zip(&runs) {
                let perturbed_steps = run(&mut perturbed, op, Some(&mut rng), &mut [0; 4]);
                assert!(perturbed_steps == *steps, "seed {seed}: a step diverged");
                assert!(perturbed.to_snapshot_bytes() == *snapshot, "seed {seed}");
            }
        }
    }

    #[test]
    fn the_machine_is_the_public_driver() {
        // Driving the machine by hand is exactly what the engine's own
        // methods do.
        let mut by_hand = engine();
        let mut by_api = engine();
        for op in &ops() {
            run(&mut by_hand, op, None, &mut [0; 4]);
            match op {
                Op::Ingest(batch) => drop(by_api.ingest(&arrivals(*batch)).unwrap()),
                Op::Evict(slots) => drop(by_api.evict(slots).unwrap()),
                Op::EvictOldest(count) => drop(by_api.evict_oldest(*count).unwrap()),
                Op::Reoptimize => drop(by_api.reoptimize()),
            }
            assert!(by_hand.to_snapshot_bytes() == by_api.to_snapshot_bytes());
        }
    }
}
