//! # dcf-obs
//!
//! Zero-dependency instrumentation layer for the `dcfail` pipeline: the
//! observability substrate the paper's own FMS had (and that "Towards
//! Data-Driven Autonomics in Data Centers" argues every data-center system
//! needs) applied to our *simulator* — where does a run spend its time, how
//! many occurrences does each stage produce, and did a calibration change
//! shift the event mix?
//!
//! Three pieces:
//!
//! * [`Stopwatch`] and hierarchical phase spans — [`MetricsRegistry::phase`]
//!   returns a guard that records a named wall-clock span (with nesting
//!   depth) when dropped, mirroring the `info_span!`-per-phase pattern of
//!   tracing-instrumented simulators. The log is bounded: the first
//!   [`SPAN_CAP`] spans are kept as they are, and each later one folds
//!   into its name's [`FoldedPhase`] totals (count, total and max
//!   duration) without allocating, so an always-on server registry holds
//!   flat memory however many requests it serves.
//! * Atomic [`Counter`]s and [`Gauge`]s grouped in a [`MetricsRegistry`] —
//!   named `sim.occurrences.batch`-style metrics. Counters never touch RNG
//!   streams, so instrumented and uninstrumented runs produce bit-identical
//!   traces, and counter values are deterministic in the seed.
//! * [`RunReport`] — a snapshot of all spans, folded totals, counters and
//!   gauges that serializes to JSON ([`RunReport::to_json`] /
//!   [`RunReport::from_json`]) and is rendered as a Markdown summary by
//!   `dcf-report`. The underlying
//!   dependency-free writer/parser is exported as the [`json`] module and is
//!   also the wire format of the `dcf-serve` query service.
//!
//! The disabled path ([`MetricsRegistry::disabled`]) is near-free: handles
//! hold no allocation and every operation is a branch on an `Option`, so
//! the engine threads instrumentation unconditionally.
//!
//! ```
//! use dcf_obs::MetricsRegistry;
//!
//! let metrics = MetricsRegistry::new();
//! {
//!     let _run = metrics.phase("run");
//!     let _sub = metrics.phase("run.step");
//!     metrics.add("events.processed", 3);
//! }
//! let report = metrics.report("example");
//! assert_eq!(report.counter("events.processed"), Some(3));
//! assert_eq!(report.phases[0].name, "run");
//! assert_eq!(report.phases[1].depth, 1); // nested under "run"
//! let back = dcf_obs::RunReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(back, report);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
mod mem;
mod metrics;
mod report;
mod timer;

pub use mem::peak_rss_bytes;
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use report::{ReportError, RunReport};
pub use timer::{FoldedPhase, PhaseGuard, PhaseSpan, Stopwatch, SPAN_CAP};
