//! The multi-tenant model registry: named [`DurableStream`] tenants, each
//! with a lock-free read path.
//!
//! Every tenant pairs a `Mutex`-guarded writer (the durable engine) with a
//! published [`ServingView`] behind an `Arc`: reads clone the current
//! `Arc` and score against it without ever touching the writer lock, and
//! each *successful* (journaled) mutation captures and swaps in a fresh
//! view. A wedged writer never republishes — the last published view is
//! exactly the last acked state, which is what **degraded read-only mode**
//! keeps serving while mutations get typed [`ServeError::Wedged`]
//! rejections.

use fairkm_core::persist::{DurableStream, PersistError};
use fairkm_core::streaming::{IngestReport, ServingView};
use fairkm_core::FairKmError;
use fairkm_data::Value;
use fairkm_store::StorageBackend;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Typed registry failure; [`Self::status`] gives the HTTP mapping.
#[derive(Debug)]
pub enum ServeError {
    /// No tenant with that name (→ 404).
    UnknownTenant(String),
    /// A tenant with that name already exists (→ 409).
    TenantExists(String),
    /// The tenant's journal wedged: reads keep serving the last acked
    /// view, mutations are refused (→ 503, degraded read-only mode).
    Wedged {
        /// Tenant name.
        tenant: String,
        /// The storage failure that wedged it.
        cause: String,
    },
    /// Too many writes already queued on this tenant (→ 429; retryable).
    Busy {
        /// Tenant name.
        tenant: String,
    },
    /// The engine rejected the rows (validation; → 422, not retryable).
    Model(FairKmError),
    /// Another persistence failure (→ 500).
    Persist(PersistError),
}

impl ServeError {
    /// `(status, reason, retryable)` for the HTTP layer. Retryable means
    /// the server attaches `Retry-After` and a well-behaved client backs
    /// off and retries.
    pub fn status(&self) -> (u16, &'static str, bool) {
        match self {
            ServeError::UnknownTenant(_) => (404, "Not Found", false),
            ServeError::TenantExists(_) => (409, "Conflict", false),
            ServeError::Wedged { .. } => (503, "Service Unavailable", false),
            ServeError::Busy { .. } => (429, "Too Many Requests", true),
            ServeError::Model(_) => (422, "Unprocessable Entity", false),
            ServeError::Persist(_) => (500, "Internal Server Error", false),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant: {t}"),
            ServeError::TenantExists(t) => write!(f, "tenant already exists: {t}"),
            ServeError::Wedged { tenant, cause } => write!(
                f,
                "tenant {tenant} is wedged (degraded read-only mode): {cause}; \
                 reads still serve the last acked state"
            ),
            ServeError::Busy { tenant } => {
                write!(f, "tenant {tenant} has too many pending writes")
            }
            ServeError::Model(e) => write!(f, "engine rejected the request: {e}"),
            ServeError::Persist(e) => write!(f, "persistence failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of a durable mutation, including whether the cadence snapshot
/// that followed the committed op failed (the op itself is acked).
#[derive(Debug)]
pub struct MutationOutcome<R> {
    /// The engine's report for the committed operation.
    pub report: R,
    /// `Some` when the post-commit cadence snapshot failed — the caller's
    /// data is durable in the WAL, only snapshot lag grew.
    pub snapshot_deferred: Option<String>,
}

/// Read-only tenant statistics (served by `GET /tenants/{t}/stats`).
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Number of clusters.
    pub k: usize,
    /// Live point count.
    pub live: usize,
    /// Backing-store slots, tombstones included.
    pub n_slots: usize,
    /// Objective bits (exact, for bitwise comparison).
    pub objective_bits: u64,
    /// Points ingested since bootstrap.
    pub inserted: usize,
    /// Points evicted.
    pub evicted: usize,
    /// Re-optimizations run.
    pub reopts: usize,
    /// Whether the journal is wedged (degraded read-only mode).
    pub wedged: bool,
}

struct Tenant<B: StorageBackend> {
    writer: Mutex<DurableStream<B>>,
    view: RwLock<Arc<ServingView>>,
    pending_writes: AtomicUsize,
}

impl<B: StorageBackend> Tenant<B> {
    /// The writer, locked even if a thread panicked while holding it.
    fn writer(&self) -> MutexGuard<'_, DurableStream<B>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The registry error for a failed `writer` call on tenant `name`. A
    /// wedged writer (earlier, or by this call) is the typed 503: memory
    /// is ahead of the log, the call is NOT acked, and the published view
    /// stays at the last acked state.
    fn failed(name: &str, writer: &DurableStream<B>, e: PersistError) -> ServeError {
        match e {
            _ if writer.is_wedged() => ServeError::Wedged {
                tenant: name.to_string(),
                cause: writer
                    .wedge_cause()
                    .unwrap_or("journal write failed")
                    .to_string(),
            },
            PersistError::Model(e) => ServeError::Model(e),
            e => ServeError::Persist(e),
        }
    }

    fn current_view(&self) -> Arc<ServingView> {
        Arc::clone(&self.view.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, view: ServingView) {
        let view = Arc::new(view);
        *self.view.write().unwrap_or_else(PoisonError::into_inner) = view;
    }
}

/// Named [`DurableStream`] tenants with per-tenant write admission caps
/// and a published lock-free serving view each (see the module docs).
pub struct Registry<B: StorageBackend> {
    tenants: RwLock<BTreeMap<String, Arc<Tenant<B>>>>,
    max_pending_writes: usize,
}

impl<B: StorageBackend> Registry<B> {
    /// An empty registry; `max_pending_writes` caps writes queued behind
    /// each tenant's writer lock before further writes shed with
    /// [`ServeError::Busy`].
    pub fn new(max_pending_writes: usize) -> Self {
        Self {
            tenants: RwLock::new(BTreeMap::new()),
            max_pending_writes: max_pending_writes.max(1),
        }
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant<B>>, ServeError> {
        let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        map.get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Register an already-created or recovered durable stream under
    /// `name`. The initial serving view is captured here.
    pub fn register(&self, name: &str, stream: DurableStream<B>) -> Result<(), ServeError> {
        let view = stream.stream().serving_view();
        let mut map = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        map.insert(
            name.to_string(),
            Arc::new(Tenant {
                writer: Mutex::new(stream),
                view: RwLock::new(Arc::new(view)),
                pending_writes: AtomicUsize::new(0),
            }),
        );
        Ok(())
    }

    /// Tenant names in sorted order.
    pub fn names(&self) -> Vec<String> {
        let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        map.keys().cloned().collect()
    }

    /// The tenant's current serving view — never blocks behind writes.
    pub fn view(&self, name: &str) -> Result<Arc<ServingView>, ServeError> {
        Ok(self.tenant(name)?.current_view())
    }

    /// Score `rows` against the tenant's published view: the lock-free
    /// read path. Returns `(cluster, score)` per row.
    pub fn assign(&self, name: &str, rows: &[Vec<Value>]) -> Result<Vec<(usize, f64)>, ServeError> {
        let view = self.view(name)?;
        rows.iter()
            .map(|row| view.assign_scored(row).map_err(ServeError::Model))
            .collect()
    }

    /// Run a mutation through the tenant's writer under the admission cap,
    /// publishing a fresh view iff the op was journaled (acked).
    fn mutate<R>(
        &self,
        name: &str,
        op: impl FnOnce(&mut DurableStream<B>) -> Result<R, PersistError>,
    ) -> Result<MutationOutcome<R>, ServeError> {
        let tenant = self.tenant(name)?;
        // Admission: count ourselves in before blocking on the writer
        // lock, so a stalled writer sheds queued work instead of growing
        // an unbounded convoy.
        let queued = tenant.pending_writes.fetch_add(1, Ordering::SeqCst);
        if queued >= self.max_pending_writes {
            tenant.pending_writes.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Busy {
                tenant: name.to_string(),
            });
        }
        let result = Self::mutate_locked(&tenant, name, op);
        tenant.pending_writes.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn mutate_locked<R>(
        tenant: &Tenant<B>,
        name: &str,
        op: impl FnOnce(&mut DurableStream<B>) -> Result<R, PersistError>,
    ) -> Result<MutationOutcome<R>, ServeError> {
        let mut writer = tenant.writer();
        match op(&mut writer) {
            Ok(report) => {
                // The op is journaled: republish the read view and
                // surface (without failing the ack) any deferred
                // cadence-snapshot failure.
                tenant.publish(writer.stream().serving_view());
                let snapshot_deferred = writer.take_snapshot_failure().map(|e| e.to_string());
                Ok(MutationOutcome {
                    report,
                    snapshot_deferred,
                })
            }
            Err(e) => Err(Tenant::failed(name, &writer, e)),
        }
    }

    /// Durable ingest through the tenant's writer (journal-then-ack).
    pub fn ingest(
        &self,
        name: &str,
        rows: &[Vec<Value>],
    ) -> Result<MutationOutcome<IngestReport>, ServeError> {
        self.mutate(name, |writer| writer.ingest(rows))
    }

    /// Durable oldest-first eviction.
    pub fn evict_oldest(
        &self,
        name: &str,
        count: usize,
    ) -> Result<MutationOutcome<fairkm_core::streaming::EvictReport>, ServeError> {
        self.mutate(name, |writer| writer.evict_oldest(count))
    }

    /// Explicit snapshot; returns the new snapshot sequence number.
    pub fn snapshot(&self, name: &str) -> Result<u64, ServeError> {
        let tenant = self.tenant(name)?;
        let mut writer = tenant.writer();
        writer
            .snapshot_now()
            .map_err(|e| Tenant::failed(name, &writer, e))
    }

    /// Read-only statistics for one tenant.
    pub fn stats(&self, name: &str) -> Result<TenantStats, ServeError> {
        let tenant = self.tenant(name)?;
        let writer = tenant.writer();
        let s = writer.stream();
        Ok(TenantStats {
            name: name.to_string(),
            k: s.k(),
            live: s.live(),
            n_slots: s.n_slots(),
            objective_bits: s.objective().to_bits(),
            inserted: s.inserted(),
            evicted: s.evicted(),
            reopts: s.reopts(),
            wedged: writer.is_wedged(),
        })
    }

    /// Whether the tenant's writer is wedged (degraded read-only mode).
    pub fn is_wedged(&self, name: &str) -> Result<bool, ServeError> {
        Ok(self.tenant(name)?.writer().is_wedged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairkm_core::streaming::StreamingConfig;
    use fairkm_core::{FairKmConfig, Lambda};
    use fairkm_data::{row, DatasetBuilder, Role};
    use fairkm_store::{FaultPlan, SyncMemBackend, TornWrite};

    fn corpus(n_per_side: usize) -> fairkm_data::Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.numeric("y", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        for i in 0..n_per_side {
            let jitter = (i % 7) as f64 * 0.05;
            b.push_row(row![jitter, jitter, "a"]).unwrap();
            b.push_row(row![5.0 + jitter, 5.0 - jitter, "b"]).unwrap();
        }
        b.build().unwrap()
    }

    fn arrival(i: usize) -> Vec<Value> {
        let jitter = (i % 5) as f64 * 0.04;
        if i.is_multiple_of(2) {
            row![jitter, jitter, "b"]
        } else {
            row![5.0 - jitter, 5.0 + jitter, "a"]
        }
    }

    fn config(seed: u64) -> StreamingConfig {
        StreamingConfig::from_base(
            FairKmConfig::new(2)
                .with_seed(seed)
                .with_lambda(Lambda::Fixed(50.0))
                .with_threads(1),
        )
    }

    fn registry_with(name: &str, backend: SyncMemBackend) -> Registry<SyncMemBackend> {
        let registry = Registry::new(8);
        let stream = DurableStream::create(backend, corpus(12), config(4), None).unwrap();
        registry.register(name, stream).unwrap();
        registry
    }

    #[test]
    fn reads_and_writes_agree_with_the_standalone_engine() {
        let registry = registry_with("t", SyncMemBackend::new());
        let mut reference =
            fairkm_core::streaming::StreamingFairKm::bootstrap(corpus(12), config(4)).unwrap();
        for i in 0..8 {
            let r = arrival(i);
            let served = registry.assign("t", std::slice::from_ref(&r)).unwrap()[0].0;
            assert_eq!(served, reference.assign_frozen(&r).unwrap());
            let out = registry.ingest("t", std::slice::from_ref(&r)).unwrap();
            let expect = reference.ingest(std::slice::from_ref(&r)).unwrap();
            assert_eq!(out.report.clusters, expect.clusters);
            assert!(out.snapshot_deferred.is_none());
        }
        let stats = registry.stats("t").unwrap();
        assert_eq!(stats.objective_bits, reference.objective().to_bits());
        assert!(matches!(
            registry.assign("missing", &[arrival(0)]),
            Err(ServeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn wedged_tenant_serves_reads_from_the_last_acked_view() {
        let backend = SyncMemBackend::new();
        let registry = registry_with("t", backend.clone());
        registry.ingest("t", &[arrival(0)]).unwrap();
        let before = registry.view("t").unwrap();

        // Wedge the journal: the next write fails and is NOT acked
        // (`at_op` is 1-based — the very next mutating backend op).
        backend.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 1, keep: 0 }),
            flips: Vec::new(),
        });
        let err = registry.ingest("t", &[arrival(1)]).unwrap_err();
        assert!(matches!(err, ServeError::Wedged { .. }), "got {err:?}");
        assert!(registry.is_wedged("t").unwrap());

        // Degraded read-only mode: the published view is unchanged and
        // still answers assigns; further writes stay typed 503s.
        let after = registry.view("t").unwrap();
        assert!(Arc::ptr_eq(&before, &after), "wedge must not republish");
        let probe = arrival(3);
        assert_eq!(
            after.assign(&probe).unwrap(),
            before.assign(&probe).unwrap()
        );
        assert!(matches!(
            registry.ingest("t", &[arrival(2)]),
            Err(ServeError::Wedged { .. })
        ));
        assert!(matches!(
            registry.snapshot("t"),
            Err(ServeError::Wedged { .. })
        ));
        assert!(registry.stats("t").unwrap().wedged);
    }

    #[test]
    fn invalid_rows_reject_without_republishing() {
        let registry = registry_with("t", SyncMemBackend::new());
        let before = registry.view("t").unwrap();
        let bad = vec![row![1.0, 1.0, "zzz"]];
        assert!(matches!(
            registry.ingest("t", &bad),
            Err(ServeError::Model(_))
        ));
        let after = registry.view("t").unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        assert!(!registry.is_wedged("t").unwrap());
    }
}
