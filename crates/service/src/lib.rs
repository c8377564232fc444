//! A resilient, long-lived in-process radius-query service over frozen
//! snapshots — the service layer of the avglocal reproduction.
//!
//! The lower layers answer "what is node `v`'s decision radius?" as a
//! function call; this crate turns that into a **service** that keeps
//! answering correctly while the world misbehaves:
//!
//! * [`RadiusQueryService`] — epoch-published generations (readers pin, a
//!   mutex-guarded `Arc` swap publishes, failed candidates roll back),
//!   bounded admission with typed load shedding, per-request deadline
//!   budgets enforced by cooperative cancellation, and bounded
//!   retry-with-backoff for latest-consistency queries. Single queries and
//!   batches share one [`QueryOptions`]-driven implementation path;
//! * [`RadiusQueryService::query_batch`] — batched, sharded queries behind
//!   a unified [`QueryRequest`]: one pinned generation, one admission slot
//!   and one cooperative deadline per batch, the node set sharded across
//!   the persistent pool, and a typed partial [`BatchReply`] when the
//!   deadline expires mid-batch;
//! * [`SnapshotStore`] — crash-safe on-disk persistence of generations
//!   (write-temp + fsync + atomic rename) with deterministic recovery to
//!   the last durable generation after a torn write;
//! * [`Clock`] — the single seam through which time enters ([`TestClock`]
//!   for deterministic tests, [`WallClock`] for production);
//! * [`chaos`] — a deterministic chaos harness driving scripted
//!   interleavings of queries, swaps, corrupt publishes, failpoint panic
//!   storms, and worker kills, checking that every completed answer is
//!   bit-identical to the sequential reference on its pinned generation.
//!
//! Every failure the service reports is a typed [`ServiceError`]; nothing
//! on the request or publish path panics the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod chaos;
mod clock;
mod config;
mod error;
mod service;
mod store;

pub use batch::{BatchOutcome, BatchReply, Consistency, NodeSelection, QueryOptions, QueryRequest};
pub use clock::{Clock, TestClock, WallClock};
pub use config::ServiceConfig;
pub use error::{Result, ServiceError};
pub use service::{Generation, QueryReply, RadiusQueryService, StatsSnapshot};
pub use store::{Recovery, SnapshotStore};
