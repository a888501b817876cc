//! Running the shard protocol inside the [`fairkm_sim`] discrete-event
//! simulator: node adapter, recovery wiring, and a one-call constructor.

use crate::coordinator::Coordinator;
use crate::plan::ShardPlan;
use crate::protocol::Msg;
use crate::shard::{Outbox, ShardNode};
use fairkm_core::StreamPayload;
use fairkm_sim::{Ctx, FaultSchedule, NodeId, SharedMemBackend, SimNode, Simulation};

/// Snapshot cadence of the simulated coordinator's journal: roll a fresh
/// durable snapshot after this many completed operations.
pub(crate) const COORDINATOR_SNAPSHOT_EVERY: u64 = 4;

/// A simulation participant: the coordinator at node 0, shard `s` at node
/// `s + 1`.
#[derive(Debug)]
pub enum Node {
    /// The coordinator. It journals every mutation batch through its
    /// node's [`SharedMemBackend`] before broadcasting, so a node-0 crash
    /// recovers from the durable snapshot + WAL suffix
    /// ([`Coordinator::recover`]) without rolling any shard back.
    Coordinator(Box<Coordinator>),
    /// A shard replica.
    Shard(Box<ShardNode>),
}

impl Node {
    /// The coordinator, if this is node 0.
    pub fn as_coordinator(&self) -> Option<&Coordinator> {
        match self {
            Node::Coordinator(c) => Some(c),
            Node::Shard(_) => None,
        }
    }

    /// The shard, if this is a shard node.
    pub fn as_shard(&self) -> Option<&ShardNode> {
        match self {
            Node::Coordinator(_) => None,
            Node::Shard(s) => Some(s),
        }
    }
}

impl SimNode<Msg> for Node {
    fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<Msg>) {
        let mut out: Outbox = Vec::new();
        match self {
            Node::Coordinator(c) => c.handle(msg, &mut out),
            Node::Shard(s) => s.handle(msg, &mut out),
        }
        for (to, m) in out {
            ctx.send(to, m);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Msg>) {
        if let Node::Shard(s) = self {
            // Rejoin handshake: report the recovered version; a lagging
            // shard gets its state at the current version, and the
            // coordinator also re-issues outstanding requests.
            ctx.send(
                0,
                Msg::SyncRequest {
                    shard: s.id(),
                    have: s.version(),
                },
            );
        }
        // A recovered coordinator sends nothing: its outstanding requests
        // died with the in-flight operation, shards keep any Log batches
        // it broadcast before crashing, and stale responses addressed to
        // it are discarded by request id.
    }

    fn on_checkpoint(&mut self, ctx: &mut Ctx<Msg>) {
        if let Node::Shard(s) = self {
            ctx.save(s.snapshot_bytes());
        }
    }
}

/// Build a simulation of the shard protocol over `payload` (a bootstrapped
/// single-node engine's hand-off state) under `faults`. Every shard's disk
/// is pre-seeded with its provisioning snapshot, so a shard that crashes
/// before its first checkpoint still rejoins from durable state; the
/// coordinator journals through node 0's storage backend from the first
/// operation, so node 0 may crash too. Post [`Msg::Op`]s to node 0 and
/// run to quiescence.
///
/// The recovery closure panics only when the simulated durable state is
/// unusable (no snapshot was ever seeded, or recovery reported a typed
/// error) — that is a broken test schedule, not a protocol outcome.
#[allow(clippy::type_complexity)] // impl-Trait factory can't live in a type alias
pub fn build_simulation(
    payload: StreamPayload,
    plan: ShardPlan,
    seed: u64,
    faults: FaultSchedule,
) -> Simulation<Msg, Node, impl FnMut(NodeId, Option<&[u8]>, &SharedMemBackend) -> Node> {
    let (coordinator, shards) = Coordinator::provision(payload, plan);
    let snapshots: Vec<Vec<u8>> = shards.iter().map(|s| s.snapshot_bytes()).collect();
    let mut initial: Vec<Option<Node>> = Vec::with_capacity(1 + shards.len());
    initial.push(Some(Node::Coordinator(Box::new(coordinator))));
    initial.extend(shards.into_iter().map(|s| Some(Node::Shard(Box::new(s)))));
    let recover = move |id: NodeId, snapshot: Option<&[u8]>, backend: &SharedMemBackend| {
        if id == 0 {
            return match initial[0].take() {
                Some(Node::Coordinator(mut c)) => {
                    // First build: attach the journal and write the
                    // provisioning snapshot.
                    c.make_durable(Box::new(backend.clone()), Some(COORDINATOR_SNAPSHOT_EVERY))
                        .expect("fresh coordinator journal");
                    Node::Coordinator(c)
                }
                _ => {
                    let (c, _report) = Coordinator::recover(
                        Box::new(backend.clone()),
                        Some(COORDINATOR_SNAPSHOT_EVERY),
                    )
                    .expect("coordinator recovery from simulated storage");
                    Node::Coordinator(Box::new(c))
                }
            };
        }
        match snapshot {
            Some(bytes) => Node::Shard(Box::new(
                ShardNode::from_snapshot(bytes).expect("corrupt shard snapshot"),
            )),
            None => initial[id].take().expect("restart without a snapshot"),
        }
    };
    let mut sim = Simulation::new(1 + plan.shards, seed, faults, recover);
    for (s, bytes) in snapshots.into_iter().enumerate() {
        sim.seed_disk(s + 1, bytes);
    }
    sim
}
