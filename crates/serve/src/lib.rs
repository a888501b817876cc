//! # fairkm-serve — fault-tolerant multi-tenant model serving
//!
//! A long-lived TCP/HTTP serving layer over the streaming engine: many
//! named [`fairkm_core::streaming::StreamingFairKm`] tenants, each backed
//! by its own crash-safe `DurableStream` state directory, behind a
//! hardened request lifecycle. Dependency-free — std TCP plus a minimal,
//! bounded HTTP/1.1 subset ([`http`]).
//!
//! The design splits each tenant into two halves:
//!
//! - **Lock-free read path.** Every successful (journaled) mutation
//!   captures a [`fairkm_core::streaming::ServingView`] — the engine's
//!   shared row codec + a clone of its aggregate model — and swaps it behind an
//!   `Arc`. `assign` requests clone the `Arc` and score without touching
//!   the writer lock, so reads never block behind writes and always see a
//!   fully acked state.
//! - **Journal-then-ack write path.** Mutations go through the tenant's
//!   `DurableStream`: applied in memory, appended to the WAL, fsynced —
//!   only then acked and republished. A journal failure wedges the tenant
//!   into **degraded read-only mode**: the last published view keeps
//!   serving reads while writes return typed 503s ([`registry`]).
//!
//! The robustness machinery is the headline ([`server`]): per-connection
//! read/write deadlines, bounded request framing, a bounded admission
//! queue with typed load-shedding (`503`/`429` + `Retry-After`), and
//! graceful drain on shutdown. Faulted requests — torn frames, deadline
//! expiries, shed bursts — are rejected before they reach the engine,
//! which is what makes the chaos invariant hold: under every seeded fault
//! schedule ([`chaos`]), acked responses are bitwise-identical to the
//! fault-free run, and a killed server recovers every tenant bitwise from
//! its state directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod http;
pub mod registry;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, Response};
pub use http::{HttpError, Limits, Request};
pub use registry::{MutationOutcome, Registry, ServeError, TenantStats};
pub use server::{decode_rows, encode_rows, serve, ServerConfig, ServerHandle};
