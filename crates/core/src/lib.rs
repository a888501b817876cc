//! # fairkm-core — Fair K-Means over multiple sensitive attributes
//!
//! Implementation of **FairKM** (Abraham, Deepak P, Sundaram — *Fairness in
//! Clustering with Multiple Sensitive Attributes*, EDBT 2020).
//!
//! FairKM clusters a dataset over its task attributes `N` while keeping the
//! distribution of every sensitive attribute `S` (categorical or numeric)
//! inside each cluster close to its dataset-level distribution. The
//! objective (Eq. 1) couples the classical K-Means loss with a fairness
//! deviation term:
//!
//! ```text
//! O = Σ_C Σ_{X∈C} dist_N(X, C)
//!   + λ Σ_C (|C|/|X|)² Σ_S w_S Σ_s (Fr_C(s) − Fr_X(s))² / |Values(S)|
//! ```
//!
//! Optimization is coordinate descent over objects (Algorithm 1): each
//! object moves to the cluster minimizing the objective change δO, with
//! prototypes and fractional representations updated incrementally.
//!
//! ## Features beyond the basic algorithm
//!
//! * **Numeric sensitive attributes** (Eq. 22) — deviation of cluster means
//!   from the dataset mean.
//! * **Per-attribute fairness weights** (Eq. 23) via
//!   [`FairKmConfig::with_attr_weight`].
//! * **Two δ engines** ([`DeltaEngine`]): the paper's literal O(|X|·|N|)
//!   recomputation and an algebraically identical O(|N|) Hartigan–Wong
//!   closed form (default). They are property-tested to agree.
//! * **Mini-batch prototype updates** ([`UpdateSchedule::MiniBatch`]) — the
//!   paper's §6.1 future-work speedup, realized as fixed scan windows.
//! * The **λ heuristic** `(|X|/k)²` from §5.4 ([`Lambda::Heuristic`]).
//! * **Incremental scoring engine** — the per-point per-cluster scan runs
//!   against cached prototypes and norms (dot-product distance form, no
//!   per-pair division) and cached per-cluster fairness contributions;
//!   windowed passes maintain every aggregate and the objective by delta
//!   updates, with only the clusters a move touches re-derived (no full
//!   rebuild on the accept path). See `docs/ARCHITECTURE.md`,
//!   "The incremental scoring engine".
//! * **Deterministic parallel execution** — window scoring, prototype /
//!   deviation recomputation and the nearest-seed init run on the
//!   `fairkm-parallel` persistent worker pool
//!   ([`FairKmConfig::with_threads`], or the `FAIRKM_THREADS` environment
//!   variable). Fixed chunk boundaries and ordered reductions make the
//!   clustering **bitwise-identical for any thread count**.
//! * **[`MiniBatchFairKm`]** — the large-`n` scheduler coupling the
//!   windowed schedule with an automatic window size.
//! * **[`Machine`]** — ingest, eviction, re-optimization and the
//!   optimizer pass written once as sequential `async fn`s stepped like
//!   a sans-IO state machine (polled with a no-op waker): the
//!   single-node engine answers its requests locally, the sharded
//!   coordinator scatters them. See the [`machine`] module docs.
//! * **[`StreamingFairKm`]** — online ingestion with incremental
//!   insert/delete aggregate deltas, frozen-prototype serving, eviction,
//!   and drift-triggered re-optimization: the long-lived-service mode of
//!   the reproduction. See the [`streaming`] module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
#[doc(hidden)]
pub mod bench_support;
mod config;
mod fairkm;
pub mod machine;
mod minibatch;
mod objective;
pub mod persist;
mod state;
pub mod streaming;
pub use fairkm_data::wire;

pub use agg::{AggregateDelta, SlotRow, SlotTable, MOVE_EPS, TOMBSTONE};
pub use config::{
    DeltaEngine, FairKmConfig, FairKmError, FairKmInit, FairnessNorm, Lambda, ObjectiveKind,
    UpdateSchedule,
};
pub use fairkm::{FairKm, FairKmModel};
pub use machine::{
    improving, Answer, Entry, Host, LogEntry, Machine, Replica, Request, Step, Ticket,
};
pub use minibatch::MiniBatchFairKm;
pub use objective::bounded_exact_assignment;
pub use state::{ClusterModel, Descent, WindowMemo};
pub use streaming::{
    DriverLedger, EvictReport, IngestReport, RowCodec, ServingView, StreamPayload, StreamingConfig,
    StreamingFairKm,
};
