//! In-process sharded driver: the coordinator and its shards connected by
//! a synchronous FIFO queue.
//!
//! This is the "perfect network" execution of the protocol — useful as the
//! drop-in sharded counterpart of [`fairkm_core::StreamingFairKm`] (the
//! CLI replay mode uses it) and as the reference the simulator's faulty
//! executions are compared against. Determinism does not depend on the
//! FIFO queue; the simulator exercises the reordered/delayed/crashy
//! schedules.

use crate::coordinator::Coordinator;
use crate::plan::ShardPlan;
use crate::protocol::{Msg, Op, OpOutcome};
use crate::shard::{Outbox, ShardNode};
use crate::ShardError;
use fairkm_core::{
    DeltaEngine, EvictReport, FairKmError, IngestReport, StreamPayload, StreamingConfig,
    StreamingFairKm,
};
use fairkm_data::{Dataset, Value};
use std::collections::VecDeque;

/// A sharded streaming FairKM engine with the single-node API: operations
/// run to completion synchronously by pumping the in-process message
/// queue.
#[derive(Debug)]
pub struct ShardedFairKm {
    coordinator: Coordinator,
    shards: Vec<ShardNode>,
    queue: VecDeque<(usize, Msg)>,
}

impl ShardedFairKm {
    /// Bootstrap the single-node engine on `dataset`, then split it across
    /// `shards` shards with `block`-slot placement blocks.
    pub fn bootstrap(
        dataset: Dataset,
        config: StreamingConfig,
        shards: usize,
        block: usize,
    ) -> Result<Self, ShardError> {
        let plan = ShardPlan::new(shards, block)?;
        if config.base.delta_engine == DeltaEngine::Literal {
            return Err(ShardError::LiteralEngine);
        }
        let engine = StreamingFairKm::bootstrap(dataset, config).map_err(ShardError::Core)?;
        Self::from_payload(engine.into_payload(), plan)
    }

    /// Split an already-running single-node engine's payload across
    /// shards.
    pub fn from_payload(payload: StreamPayload, plan: ShardPlan) -> Result<Self, ShardError> {
        if payload.ledger.engine() == DeltaEngine::Literal {
            return Err(ShardError::LiteralEngine);
        }
        let (coordinator, shards) = Coordinator::provision(payload, plan);
        Ok(Self {
            coordinator,
            shards,
            queue: VecDeque::new(),
        })
    }

    /// Run one operation to completion and return its outcome.
    fn run_op(&mut self, op: Op) -> OpOutcome {
        let mut out: Outbox = Vec::new();
        self.coordinator.handle(Msg::Op(op), &mut out);
        self.queue.extend(out);
        while let Some((to, msg)) = self.queue.pop_front() {
            let mut out: Outbox = Vec::new();
            if to == 0 {
                self.coordinator.handle(msg, &mut out);
            } else {
                self.shards[to - 1].handle(msg, &mut out);
            }
            self.queue.extend(out);
        }
        self.coordinator
            .take_result()
            .expect("drained queue without a completed operation")
    }

    /// Ingest a batch of raw rows (single-node semantics, bit for bit).
    pub fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<IngestReport, FairKmError> {
        match self.run_op(Op::Ingest(rows.to_vec())) {
            OpOutcome::Ingest(r) => r,
            _ => unreachable!("ingest produced a non-ingest outcome"),
        }
    }

    /// Evict the given live slots.
    pub fn evict(&mut self, slots: &[usize]) -> Result<EvictReport, FairKmError> {
        match self.run_op(Op::Evict(slots.to_vec())) {
            OpOutcome::Evict(r) => r,
            _ => unreachable!("evict produced a non-evict outcome"),
        }
    }

    /// Evict the `count` oldest live points.
    pub fn evict_oldest(&mut self, count: usize) -> Result<EvictReport, FairKmError> {
        match self.run_op(Op::EvictOldest(count)) {
            OpOutcome::Evict(r) => r,
            _ => unreachable!("evict produced a non-evict outcome"),
        }
    }

    /// Run windowed re-optimization passes; returns the move count.
    pub fn reoptimize(&mut self) -> usize {
        match self.run_op(Op::Reoptimize) {
            OpOutcome::Reoptimize(moves) => moves,
            _ => unreachable!("reoptimize produced a non-reoptimize outcome"),
        }
    }

    /// Whether every shard replica is at the coordinator's log version with
    /// bitwise-identical model bytes.
    pub fn replicas_agree(&self) -> bool {
        let version = self.coordinator.log_len();
        let bytes = self.coordinator.model_bytes();
        self.shards
            .iter()
            .all(|s| s.version() == version && s.model_bytes() == bytes)
    }

    /// The coordinator (read access for reports and fingerprints).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The shard nodes (read access for replica checks).
    pub fn shards(&self) -> &[ShardNode] {
        &self.shards
    }

    /// Current objective over the live partition.
    pub fn objective(&self) -> f64 {
        self.coordinator.objective()
    }

    /// A copy of the bounded objective trace.
    pub fn trace(&self) -> Vec<f64> {
        self.coordinator.trace()
    }

    /// Live point count.
    pub fn live(&self) -> usize {
        self.coordinator.live()
    }

    /// Cluster of `slot`, `None` for tombstones.
    pub fn assignment_of(&self, slot: usize) -> Option<usize> {
        self.coordinator.assignment_of(slot)
    }

    /// Live slot ids in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        self.coordinator.live_slots()
    }

    /// Cluster prototypes (means).
    pub fn prototypes(&self) -> Vec<Vec<f64>> {
        self.coordinator.prototypes()
    }
}
