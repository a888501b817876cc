//! The streaming driver's control flow, written once as sequential
//! `async fn`s that a host steps through.
//!
//! Ingest, eviction, re-optimization, the bootstrap fit and single
//! optimizer passes (the batch fit's `MiniBatch` and `PerMove` schedules)
//! all run through [`Machine`]: round-robin reassignment under the Eq. 7/22
//! objective (Algorithm 1) as windowed passes with the exact per-move
//! fallback. Each operation is plain sequential code — ingest, evict, the
//! optimize loop, one pass, the per-move scan, the rebuild — boxed as one
//! future. Its only suspension point is `ask(request).await`, and
//! [`Machine::resume`] polls it with a no-op waker: no executor, no
//! threads, no I/O. The body stores no rows. It yields read-only
//! [`Request`]s, takes their [`Answer`]s back, and changes the clustering
//! only by committing [`LogEntry`]s to its host ([`Replica::commit`]).
//!
//! The body reaches the host's replica and the stream's
//! [`crate::DriverLedger`] through one shared cell ([`Host`]), and never
//! holds a borrow of it across an `.await`: between two requests the host
//! is free to read it. Two hosts run the body:
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
//! * **Pure requests.** Answering reads the clustering only (a host may
//!   keep a [`crate::WindowMemo`] of a window's scan, which changes no
//!   answer). A request may be re-issued ([`Machine::resume`] without an
//!   answer) and answered again; an answer
//!   whose ticket is not the pending one is ignored, and the body is not
//!   polled.
//! * **Ordered reduction.** An answer may arrive in parts, in any order
//!   ([`Answer::absorb`]). The body orders scores and proposals by slot,
//!   takes the lowest slot of a scan step, and merges rebuild chunks in
//!   chunk-index order from the zeroed identity — the left fold of the
//!   single-node rebuild.

use crate::agg::{AggregateDelta, SlotRow, MOVE_EPS, TOMBSTONE};
use crate::config::{DeltaEngine, FairKmError, UpdateSchedule};
use crate::fairkm::propose_move;
use crate::state::{ClusterModel, State, WindowMemo};
use crate::streaming::{DriverLedger, EvictReport, IngestReport};
use crate::wire::{self, Reader, WireError};
use std::cell::{Cell, Ref, RefCell};
use std::future::{poll_fn, Future};
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

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
    /// * `Insert`: the next slot, a row that [`SlotRow::fits`] the model, and a
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
                *slot == slots.len() && data.fits(model) && data.cluster != TOMBSTONE
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
    /// The stream's ledger. Only a bare [`Machine::pass`] runs without one.
    fn ledger(&mut self) -> &mut DriverLedger;

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
pub enum Step<T> {
    /// Answer this request (again, if it was asked before).
    Ask(Ticket),
    /// The operation completed with this result; surfaced exactly once.
    Done(T),
    /// The host refused a commit, or the operation already completed:
    /// nothing more will happen.
    Stopped,
}

/// A host's replica, shared with the operation running on it. The
/// operation borrows it only between requests, never across one.
pub type Host<R> = Rc<RefCell<R>>;

/// One streaming operation (or one optimizer pass) in progress, ending
/// with a `T`: a boxed `async` body whose only suspension point is a
/// request to the host. See the [module docs](self).
pub struct Machine<'h, T> {
    mail: Rc<Mailbox>,
    /// The operation's body; `None` once it has finished or stopped.
    body: Option<Pin<Box<dyn Future<Output = Option<T>> + 'h>>>,
}

/// Where a body's requests go out and their answers come in.
#[derive(Default)]
struct Mailbox {
    /// The arrivals of an ingest, until its scores are in.
    arrivals: RefCell<Vec<SlotRow>>,
    /// The request the body waits on (the last one it asked).
    asked: Cell<Option<Ticket>>,
    /// Its answer, from [`Machine::resume`] until the body takes it.
    answer: Cell<Option<Answer>>,
}

impl<T> std::fmt::Debug for Machine<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("asked", &self.mail.asked.get())
            .field("running", &self.body.is_some())
            .finish_non_exhaustive()
    }
}

impl<'h, T: 'h> Machine<'h, T> {
    fn new<R: Replica + 'h, F: Future<Output = Option<T>> + 'h>(
        host: &Host<R>,
        arrivals: Vec<SlotRow>,
        body: impl FnOnce(Body<R>) -> F,
    ) -> Self {
        let mail = Rc::new(Mailbox {
            arrivals: RefCell::new(arrivals),
            ..Mailbox::default()
        });
        let body = body(Body {
            host: Rc::clone(host),
            mail: Rc::clone(&mail),
            entries: Vec::new(),
            scratch: None,
        });
        Self {
            mail,
            body: Some(Box::pin(body)),
        }
    }

    /// The same operation, its result mapped through `f`.
    pub fn map<U: 'h>(self, f: impl FnOnce(T) -> U + 'h) -> Machine<'h, U> {
        let body = self.body.expect("an operation maps before it runs");
        Machine {
            mail: self.mail,
            body: Some(Box::pin(async move { body.await.map(f) })),
        }
    }

    /// The arrivals a [`Request::Score`] asks about.
    pub fn arrivals(&self) -> Ref<'_, [SlotRow]> {
        Ref::map(self.mail.arrivals.borrow(), Vec::as_slice)
    }

    /// Advance the machine: start it (first call), or take the pending
    /// request's answer, committing to the host until the next request or
    /// the end. Without an answer, or with one whose ticket is not the
    /// pending one, it changes nothing and returns the pending request
    /// again.
    pub fn resume(&mut self, answer: Option<(u64, Answer)>) -> Step<T> {
        let Some(body) = &mut self.body else {
            return Step::Stopped;
        };
        if let Some(pending) = self.mail.asked.get() {
            match answer {
                Some((id, answer)) if id == pending.id => self.mail.answer.set(Some(answer)),
                _ => return Step::Ask(pending),
            }
        }
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Pending => Step::Ask(self.mail.asked.get().expect("a waiting body asked")),
            Poll::Ready(done) => {
                self.body = None;
                done.map_or(Step::Stopped, Step::Done)
            }
        }
    }
}

impl<'h> Machine<'h, IngestReport> {
    /// Ingest encoded arrivals ([`crate::RowCodec::encode_all`]) as the
    /// next slots: score them all against the caches frozen at batch start,
    /// insert them in arrival order, then run the drift check.
    pub fn ingest<R: Replica + 'h>(host: &Host<R>, rows: Vec<SlotRow>) -> Self {
        Self::new(host, rows, Body::ingest)
    }
}

impl<'h> Machine<'h, EvictReport> {
    /// Evict the live `slots`, then run the drift check. Dead,
    /// out-of-range or duplicated slots are rejected here, before anything
    /// mutates.
    pub fn evict<R: Replica + 'h>(host: &Host<R>, slots: Vec<usize>) -> Result<Self, FairKmError> {
        DriverLedger::check_evict(&slots, |s| host.borrow().is_live(s))?;
        Ok(Self::new(host, Vec::new(), |body| body.evict(slots, false)))
    }

    /// Evict the `count` oldest live slots, found from the ledger's cursor,
    /// which advances past the dead prefix afterwards.
    pub fn evict_oldest<R: Replica + 'h>(host: &Host<R>, count: usize) -> Self {
        let mut rep = host.borrow_mut();
        let from = rep.ledger().oldest();
        let slots = (from..rep.n_slots())
            .filter(|&s| rep.is_live(s))
            .take(count)
            .collect();
        drop(rep);
        Self::new(host, Vec::new(), |body| body.evict(slots, true))
    }
}

/// Ends with the moves made.
impl<'h> Machine<'h, usize> {
    /// Run up to the ledger's re-optimization passes, then reset the drift
    /// baseline.
    pub fn reoptimize<R: Replica + 'h>(host: &Host<R>) -> Self {
        Self::new(host, Vec::new(), |mut body| async move {
            let passes = body.host.borrow_mut().ledger().reopt_passes();
            body.optimize(passes, false).await
        })
    }

    /// The bootstrap fit: up to `max_passes` passes, then set the drift
    /// baseline without counting a re-optimization.
    pub fn bootstrap<R: Replica + 'h>(host: &Host<R>, max_passes: usize) -> Self {
        Self::new(host, Vec::new(), move |mut body| async move {
            body.optimize(max_passes, true).await
        })
    }
}

impl<'h> Machine<'h, (usize, f64)> {
    /// One optimizer pass over `range` from the cached-form objective
    /// `current`: windows of `MiniBatch(w)` slots, or one per-move scan for
    /// `PerMove`. Ends with the moves made and the objective after them,
    /// and runs without a ledger.
    pub fn pass<R: Replica + 'h>(
        host: &Host<R>,
        range: Range<usize>,
        schedule: UpdateSchedule,
        current: f64,
    ) -> Self {
        Self::new(host, Vec::new(), move |mut body| async move {
            body.pass(range, schedule, current).await
        })
    }
}

/// What an operation's body keeps between requests. Every step returns
/// `None` once the host refuses a commit, and the body stops there.
struct Body<R> {
    host: Host<R>,
    mail: Rc<Mailbox>,
    /// Commit buffer, reused: committing a move allocates nothing.
    entries: Vec<Entry>,
    /// Scratch copy of the model that windows are scored on, reused.
    scratch: Option<ClusterModel>,
}

impl<R: Replica> Body<R> {
    /// Ask the host `request` and wait for its answer: the body's only
    /// suspension point.
    async fn ask(&self, request: Request) -> Answer {
        let id = self.mail.asked.get().map_or(1, |t| t.id + 1);
        self.mail.asked.set(Some(Ticket { id, request }));
        poll_fn(|_| self.mail.answer.take().map_or(Poll::Pending, Poll::Ready)).await
    }

    fn commit(&mut self) -> Option<()> {
        self.host
            .borrow_mut()
            .commit(&mut self.entries)
            .then_some(())
    }

    /// The cached-form objective of the host's model.
    fn objective(&self) -> f64 {
        let rep = self.host.borrow();
        rep.model().objective_cached(rep.lambda())
    }

    async fn ingest(mut self) -> Option<IngestReport> {
        let start = self.host.borrow().n_slots();
        let mut clusters = Vec::new();
        let mut reopt = (false, 0);
        if !self.mail.arrivals.borrow().is_empty() {
            let Answer::Scores(scores) = self.ask(Request::Score { start }).await else {
                panic!("a score request answered with another kind");
            };
            let rows = self.mail.arrivals.take();
            clusters = vec![TOMBSTONE; rows.len()];
            for (slot, c) in scores {
                clusters[slot - start] = c;
            }
            let arrivals = rows.into_iter().zip(&clusters).enumerate();
            self.entries.extend(arrivals.map(|(i, (mut data, &c))| {
                data.cluster = c;
                LogEntry::Insert {
                    slot: start + i,
                    data,
                }
            }));
            self.commit()?;
            reopt = self.settle(clusters.len(), 0).await?;
        }
        let objective = self.host.borrow_mut().ledger().objective();
        Some(IngestReport {
            slots: start..start + clusters.len(),
            clusters,
            objective,
            reoptimized: reopt.0,
            reopt_moves: reopt.1,
        })
    }

    /// Remove `slots`; `oldest` advances the ledger's eviction cursor past
    /// the dead prefix afterwards.
    async fn evict(mut self, slots: Vec<usize>, oldest: bool) -> Option<EvictReport> {
        let evicted = slots.len();
        let mut reopt = (false, 0);
        if evicted > 0 {
            let removals = slots
                .into_iter()
                .map(|slot| LogEntry::Remove { slot, data: () });
            self.entries.extend(removals);
            self.commit()?;
            reopt = self.settle(0, evicted).await?;
        }
        let mut rep = self.host.borrow_mut();
        if oldest {
            let (from, n) = (rep.ledger().oldest(), rep.n_slots());
            let cursor = (from..n).find(|&s| rep.is_live(s)).unwrap_or(n);
            rep.ledger().set_oldest(cursor);
        }
        Some(EvictReport {
            evicted,
            objective: rep.ledger().objective(),
            reoptimized: reopt.0,
            reopt_moves: reopt.1,
        })
    }

    /// Record an applied ingest or evict batch and run the drift check:
    /// `(reoptimized, moves)`.
    async fn settle(&mut self, inserted: usize, evicted: usize) -> Option<(bool, usize)> {
        let (drifted, passes) = {
            let mut rep = self.host.borrow_mut();
            let model = rep.model();
            let (objective, live) = (model.objective_cached(rep.lambda()), model.live());
            let ledger = rep.ledger();
            ledger.record_batch(objective, inserted, evicted);
            (ledger.drifted(live), ledger.reopt_passes())
        };
        if !drifted {
            return Some((false, 0));
        }
        Some((true, self.optimize(passes, false).await?))
    }

    /// Passes to convergence from the ledger's objective, at most
    /// `max_passes`: after each pass that moved anything, one
    /// drift-cancelling rebuild, the only one a pass makes (no window
    /// rebuilds, accepted or failed); the objective after
    /// each pass goes on the ledger's trace. Then the ledger takes the
    /// final objective as its drift baseline — counted as a
    /// re-optimization unless this is the `bootstrap` fit. Returns the
    /// moves made.
    async fn optimize(&mut self, max_passes: usize, bootstrap: bool) -> Option<usize> {
        let mut current = self.host.borrow_mut().ledger().objective();
        let mut total = 0;
        for _ in 0..max_passes {
            let (n, window) = {
                let mut rep = self.host.borrow_mut();
                let n = rep.n_slots();
                (n, rep.ledger().window(n))
            };
            let (moved, after) = self
                .pass(0..n, UpdateSchedule::MiniBatch(window), current)
                .await?;
            current = after;
            if moved > 0 {
                self.rebuild().await?;
                current = self.objective();
            }
            self.host.borrow_mut().ledger().push_trace(current);
            total += moved;
            if moved == 0 {
                break;
            }
        }
        let mut rep = self.host.borrow_mut();
        let live = rep.model().live();
        match bootstrap {
            true => rep.ledger().rebase(current, live),
            false => rep.ledger().close_reopt(current, live),
        }
        Some(total)
    }

    /// One pass over `range` under the windowed mini-batch schedule (§6.1),
    /// or one per-move scan for `PerMove`: `(moved, objective)`.
    ///
    /// A window's proposals are scored against the aggregates and caches
    /// frozen at the window start, then applied together on a scratch copy
    /// of the model: as deltas, with only the dirtied clusters refreshed
    /// and the objective assembled from the cached contributions in O(k) —
    /// no rebuild. Per-move deltas assume one move at a time, so applying a
    /// whole window can *raise* the objective (in the worst case the
    /// clustering oscillates forever). Hence **monotone acceptance**: a
    /// window is committed only if it lowers the objective by more than
    /// [`MOVE_EPS`]; otherwise the pass descends through the window one
    /// move at a time from the unchanged window-start aggregates (no
    /// rebuild: the trial never touched them). The objective trace
    /// therefore never rises, and every counted move is a real
    /// improvement. Scoring is read-only and every mutation is applied in
    /// slot order, so the result is the same for any thread count.
    ///
    /// The descent reuses the window's scan: a host that answers the
    /// window records, per slot, a lower bound on its distance to every
    /// window-start prototype ([`crate::WindowMemo`]). Each descent step
    /// bounds every slot's K-Means deltas from those and the prototypes'
    /// drift since, recomputes its fairness deltas exactly, and scores
    /// with the kernel only the slots whose bound does not prove that no
    /// move improves — the same answers, from a few percent of the slots.
    async fn pass(
        &mut self,
        range: Range<usize>,
        schedule: UpdateSchedule,
        mut current: f64,
    ) -> Option<(usize, f64)> {
        let UpdateSchedule::MiniBatch(window) = schedule else {
            let moved = self.scan(range).await?;
            return Some((moved, if moved > 0 { self.objective() } else { current }));
        };
        let mut moved = 0;
        let mut start = range.start;
        while start < range.end {
            let end = start.saturating_add(window).min(range.end);
            let Answer::Proposals(mut proposals) = self.ask(Request::Window { start, end }).await
            else {
                panic!("a window answered with another kind");
            };
            proposals.sort_unstable_by_key(|&(slot, _)| slot);
            match self.trial(&proposals) {
                None => {}
                Some(after) if after < current - MOVE_EPS => {
                    moved += self.entries.len();
                    current = after;
                    self.commit()?;
                }
                Some(_) => {
                    // The simultaneous application hurt: descend through
                    // the window one move at a time. The trial ran on the
                    // scratch model, so the aggregates are still the
                    // window-start ones; the pass-end rebuild cancels drift.
                    self.entries.clear();
                    self.host.borrow_mut().fallback();
                    let scanned = self.scan(start..end).await?;
                    if scanned > 0 {
                        current = self.objective();
                    }
                    moved += scanned;
                }
            }
            start = end;
        }
        Some((moved, current))
    }

    /// Stage the moves `proposals` and score their simultaneous
    /// application on the scratch copy of the model: the objective after
    /// them, or `None` when there is nothing to stage.
    fn trial(&mut self, proposals: &[(usize, usize)]) -> Option<f64> {
        let rep = self.host.borrow();
        let staged = proposals.iter().map(|&(slot, to)| LogEntry::Move {
            slot,
            from: rep.cluster(slot),
            to,
            data: (),
        });
        self.entries.extend(staged);
        if self.entries.is_empty() {
            return None;
        }
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
        Some(trial.objective_cached(rep.lambda()))
    }

    /// A sequential per-move scan of `range`: each accepted move is
    /// committed before the next slot is scored. Returns the moves made.
    async fn scan(&mut self, range: Range<usize>) -> Option<usize> {
        let (mut start, end, mut moved) = (range.start, range.end, 0);
        while start < end {
            let Answer::First(found) = self.ask(Request::First { start, end }).await else {
                panic!("a scan step answered with another kind");
            };
            let Some((slot, to)) = found else { break };
            let from = self.host.borrow().cluster(slot);
            self.entries.push(LogEntry::Move {
                slot,
                from,
                to,
                data: (),
            });
            self.commit()?;
            moved += 1;
            start = slot + 1;
        }
        Some(moved)
    }

    /// Replace the aggregates with the exact rebuild, merged in chunk-index
    /// order from the zeroed identity.
    async fn rebuild(&mut self) -> Option<()> {
        let Answer::Chunks(mut chunks) = self.ask(Request::Rebuild).await else {
            panic!("a rebuild answered with another kind");
        };
        chunks.sort_unstable_by_key(|&(chunk, _)| chunk);
        let zeroed = self.host.borrow().model().zeroed_delta();
        let agg = chunks
            .into_iter()
            .fold(zeroed, |total, (_, part)| total.merge(part));
        self.entries.push(LogEntry::Install { agg });
        self.commit()
    }
}

/// The single-node host: a [`State`] answering every request with a local
/// call.
pub(crate) struct Local<'s, 'a> {
    pub state: &'s mut State<'a>,
    pub lambda: f64,
    pub engine: DeltaEngine,
    /// The stream's ledger; a bare pass runs without one.
    pub ledger: Option<&'s mut DriverLedger>,
    /// The last window's distance bounds. A host lives for one operation,
    /// and no row is replaced within one, so the memo never outlives its
    /// rows.
    pub memo: WindowMemo,
}

impl Local<'_, '_> {
    /// Run `machine` on `host` to completion.
    pub fn run<'h, T: 'h>(host: &RefCell<Self>, mut machine: Machine<'h, T>) -> T {
        let mut answer = None;
        loop {
            match machine.resume(answer.take()) {
                Step::Ask(t) => {
                    let arrivals = machine.arrivals();
                    answer = Some((t.id, host.borrow_mut().answer(t.request, &arrivals)));
                }
                Step::Done(outcome) => {
                    let local = host.borrow();
                    local.state.debug_validate_cache(local.lambda);
                    return outcome;
                }
                Step::Stopped => unreachable!("a local commit cannot fail"),
            }
        }
    }

    /// Answer `request` from the state. A window answered by the
    /// incremental kernel is recorded in the memo, which the descent steps
    /// that follow it read (same answers, fewer slots scored).
    pub fn answer(&mut self, request: Request, arrivals: &[SlotRow]) -> Answer {
        let (lambda, engine) = (self.lambda, self.engine);
        let state = &*self.state;
        match request {
            Request::Score { start } => {
                let model = &state.model;
                Answer::Scores(fairkm_parallel::map_indexed(
                    state.threads,
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
            Request::Window { start, end } if engine == DeltaEngine::Incremental => {
                Answer::Proposals(state.propose_window(&mut self.memo, start..end, lambda))
            }
            Request::Window { start, end } => {
                let proposals = fairkm_parallel::map_indexed(state.threads, start..end, |x| {
                    let best = propose_move(state, x, lambda, engine);
                    improving(state.assignment[x], best).map(|to| (x, to))
                });
                Answer::Proposals(proposals.into_iter().flatten().collect())
            }
            Request::First { start, end } => {
                let memo = (engine == DeltaEngine::Incremental).then_some(&mut self.memo);
                Answer::First(self.state.first_improving(memo, start..end, lambda, engine))
            }
            Request::Rebuild => {
                let chunks = fairkm_parallel::map_chunks(state.threads, state.n(), |r| {
                    state.rebuild_partial(r)
                });
                Answer::Chunks(chunks.into_iter().enumerate().collect())
            }
        }
    }
}

/// One optimizer pass ([`Machine::pass`]) over `state`, answered locally:
/// `(moved, objective)`.
pub(crate) fn pass(
    state: &mut State<'_>,
    lambda: f64,
    engine: DeltaEngine,
    range: Range<usize>,
    schedule: UpdateSchedule,
    current: f64,
) -> (usize, f64) {
    let host = Rc::new(RefCell::new(Local {
        state,
        lambda,
        engine,
        ledger: None,
        memo: WindowMemo::default(),
    }));
    Local::run(&host, Machine::pass(&host, range, schedule, current))
}

impl Replica for Local<'_, '_> {
    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn model(&self) -> &ClusterModel {
        &self.state.model
    }

    fn n_slots(&self) -> usize {
        self.state.n()
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

    fn ledger(&mut self) -> &mut DriverLedger {
        self.ledger
            .as_deref_mut()
            .expect("streaming operations keep a ledger")
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
        let rows = match op {
            Op::Ingest(batch) => s.codec().encode_all(&arrivals(*batch), s.n_slots()),
            _ => Ok(Vec::new()),
        };
        let host = s.host();
        let mut machine = match op {
            Op::Ingest(_) => Machine::ingest(&host, rows.unwrap()).map(drop),
            Op::Evict(slots) => Machine::evict(&host, slots.clone()).unwrap().map(drop),
            Op::EvictOldest(count) => Machine::evict_oldest(&host, *count).map(drop),
            Op::Reoptimize => Machine::reoptimize(&host).map(drop),
        };
        // The model bits and the assignment: what a commit changes.
        let bits = || {
            let local = host.borrow();
            (local.state.model.to_bytes(), local.state.assignment.clone())
        };
        let answer = |machine: &Machine<'_, ()>, request| {
            host.borrow_mut().answer(request, &machine.arrivals())
        };
        let mut rng = rng;
        let mut step = machine.resume(None);
        while let Step::Ask(ticket) = step {
            let kind = match ticket.request {
                Request::Score { .. } => 0,
                Request::Window { .. } => 1,
                Request::First { .. } => 2,
                Request::Rebuild => 3,
            };
            asked[kind] += 1;
            let reply = answer(&machine, ticket.request);
            let Some(rng) = rng.as_deref_mut() else {
                step = machine.resume(Some((ticket.id, reply)));
                steps.push(bits().0);
                continue;
            };
            let frozen = bits();
            // (b) Pure: asking again gives the same answer.
            assert_eq!(answer(&machine, ticket.request), reply);
            // (a) Nothing is committed while the request is unanswered:
            // a re-issue and a stale answer return the same ticket.
            let again = machine.resume(None);
            assert!(matches!(again, Step::Ask(t) if t == ticket));
            let again = machine.resume(Some((ticket.id + 1, reply.clone())));
            assert!(matches!(again, Step::Ask(t) if t == ticket));
            assert!(bits() == frozen, "a pending request committed");
            // (c) Parts in any order.
            let parts = match reply.clone() {
                Answer::Scores(v) => in_parts(v, rng, Answer::Scores),
                Answer::Proposals(v) => in_parts(v, rng, Answer::Proposals),
                Answer::Chunks(v) => in_parts(v, rng, Answer::Chunks),
                first @ Answer::First(_) => first,
            };
            step = machine.resume(Some((ticket.id, parts)));
            let frozen = bits();
            steps.push(frozen.0.clone());
            // (b) A duplicate of the answer just taken changes nothing.
            let dup = machine.resume(Some((ticket.id, reply)));
            match (&step, dup) {
                (Step::Ask(next), Step::Ask(t)) => assert_eq!(*next, t),
                (Step::Done(_), Step::Stopped) => {}
                (step, dup) => panic!("a duplicate answer moved {step:?} to {dup:?}"),
            }
            assert!(bits() == frozen, "a duplicate answer committed");
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
        assert!(
            direct.host().borrow().state.fallbacks > 0,
            "no window fell back"
        );

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
