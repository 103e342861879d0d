//! # dcfail
//!
//! A reproduction of *"What Can We Learn from Four Years of Data Center
//! Hardware Failures?"* (Wang, Zhang, Xu — DSN 2017).
//!
//! The original paper analyzes ~290,000 failure operation tickets (FOTs)
//! from a proprietary failure management system. This workspace substitutes
//! the proprietary dataset with a calibrated generative simulator and
//! re-implements the paper's entire analysis suite. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This facade crate re-exports the sub-crates under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`obs`] | `dcf-obs` | phase timers, atomic counters/gauges, serializable run reports |
//! | [`stats`] | `dcf-stats` | MLE fits, chi-squared tests, ECDF, Spearman, anomaly rule |
//! | [`trace`] | `dcf-trace` | the FOT schema, simulated time, the validated [`trace::Trace`], IO |
//! | [`fleet`] | `dcf-fleet` | data centers, racks, product lines, deployment, workloads |
//! | [`failmodel`] | `dcf-failmodel` | lifecycle hazards, batch/repeat/correlated/escalation processes |
//! | [`fms`] | `dcf-fms` | operator behavior, false alarms, monitoring roll-out |
//! | [`sim`] | `dcf-sim` | the deterministic engine and [`sim::Scenario`] presets + ablations |
//! | [`core`] | `dcf-core` | every analysis of the paper + §VII extensions |
//! | [`report`] | `dcf-report` | text tables, ASCII charts, per-figure renderers, run-report markdown |
//!
//! The `reproduce` binary (`dcf-bench`) regenerates every paper artifact;
//! `reproduce export` writes a synthetic ticket table as CSV.
//!
//! ```
//! use dcfail::core::FailureStudy;
//! use dcfail::sim::{RunOptions, Scenario};
//!
//! let trace = Scenario::small()
//!     .seed(7)
//!     .simulate(&RunOptions::default())
//!     .expect("simulation succeeds");
//! let study = FailureStudy::new(&trace);
//! let categories = study.overview().category_breakdown();
//! assert!(categories.fixing_share > 0.5);
//! ```

pub use dcf_core as core;
pub use dcf_failmodel as failmodel;
pub use dcf_fleet as fleet;
pub use dcf_fms as fms;
pub use dcf_obs as obs;
pub use dcf_report as report;
pub use dcf_sim as sim;
pub use dcf_stats as stats;
pub use dcf_trace as trace;
