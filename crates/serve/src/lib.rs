//! `dcf-serve` — a long-lived HTTP query service over the dcfail
//! simulation + study pipeline.
//!
//! The service turns the batch pipeline (`dcf-sim` → `dcf-core`) into an
//! interactive one: clients `POST /v1/simulate` a `(scenario, seed,
//! threads)` triple and then read study sections and paged tickets back
//! without recomputing anything. The API lives under `/v1/`; any other
//! path is a `404`. Endpoints:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/simulate` | Run (or fetch cached) scenario → trace digest + summary |
//! | `GET /v1/report/{section}` | One of the six study sections over the cached trace |
//! | `GET /v1/trace/{digest}/fots?offset&limit` | Paged ticket reads |
//! | `GET /v1/replay/{scenario}?speed=N` | Chunked NDJSON replay stream with online detections |
//! | `GET /v1/catalog` | List the pinned snapshot catalog entries |
//! | `POST /v1/catalog/reload` | Rescan the catalog directory (also SIGHUP) |
//! | `GET /healthz` | Liveness probe (unversioned) |
//! | `GET /metrics` | `dcf-obs` run-report snapshot (unversioned) |
//!
//! `/v1/replay` is the service's one streaming endpoint: the response is
//! `Transfer-Encoding: chunked`, one NDJSON line per chunk — every FOT
//! of the replayed trace in virtual-time order, detection events from
//! the three online detectors inline, and a final summary line with the
//! event digest and precision/recall scores. `speed` is simulated days
//! per wall second (`0` = no pacing); pacing happens on the event loop,
//! so a paced stream never holds a worker thread.
//!
//! Architecture (documented in depth in the repository's `SERVING.md`):
//! `--loops L` sharded event-loop threads each own a disjoint slice of
//! the sockets on their own [`poller`] instance (raw-syscall epoll on
//! Linux, a portable timed scan elsewhere) and speak pipelined HTTP/1.1
//! keep-alive with per-connection buffers and idle timeouts. Loop 0
//! owns the one listener, bound with a 1024-deep accept backlog, and
//! hands accepted sockets round-robin to its peers; a connection never
//! migrates after adoption. A bounded
//! queue feeds a shared worker pool that computes responses and hands
//! them back through per-loop completion lists + [`poller::Waker`]s.
//! The run cache, gzip section cache, and snapshot [`catalog`] are
//! shared behind `Arc`, so responses are byte-identical whichever loop
//! serves them. Every response is either a content-length body or a
//! replay stream, which the event loop formats line by line from the
//! cached replay outcome as lines come due and the connection has room.
//! `Accept-Encoding: gzip` is honored on report/fots routes with an
//! in-crate DEFLATE encoder ([`gzip`]). Snapshots are served from a
//! [`catalog`] of decoded `.dcfsnap` files, pinned and reloadable
//! at runtime (SIGHUP or `POST /catalog/reload`).
//!
//! Design constraints carried over from the rest of the workspace: no
//! heavyweight dependencies (std sockets + raw syscalls + std scoped
//! threads + the `dcf-obs` JSON module), determinism as the
//! caching contract (runs are pure functions of `(scenario-hash, seed)`,
//! so the LRU [`ResponseCache`] never revalidates), and explicit
//! overload behaviour (bounded request queue ⇒ `503` + `Retry-After` +
//! `Connection: close`, per-request deadlines, graceful drain on
//! shutdown).

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
mod event_loop;
pub mod gzip;
pub mod http;
pub mod poller;
pub mod queue;
pub mod sections;
pub mod server;
pub mod signal;

pub use cache::{CacheKey, ResponseCache};
pub use catalog::{Catalog, CatalogEntryInfo, ReloadSummary};
pub use http::{Request, Response};
pub use poller::{Interest, Poller, Waker};
pub use queue::BoundedQueue;
pub use sections::SECTIONS;
pub use server::{ServeConfig, Server};
