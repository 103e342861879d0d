//! # dcf-core
//!
//! The analysis suite of *"What Can We Learn from Four Years of Data Center
//! Hardware Failures?"* (DSN 2017) — the paper's primary contribution,
//! reimplemented over the [`dcf_trace::Trace`] schema.
//!
//! Every table and figure of the paper's evaluation maps to a module here:
//!
//! | Paper | Module |
//! |-------|--------|
//! | Tables I–III, Fig. 2 | [`overview`] |
//! | Figs. 3–5, Hypotheses 1–4 | [`temporal`] |
//! | Fig. 6 | [`lifecycle`] |
//! | Fig. 7, repeats | [`skew`] |
//! | Table IV, Fig. 8, Hypothesis 5 | [`spatial`] |
//! | Table V | [`batch`] |
//! | Tables VI–VIII | [`correlation`] |
//! | Figs. 9–11 | [`response`] |
//!
//! [`FailureStudy`] bundles them; [`paper`] holds the published reference
//! values for paper-vs-measured reporting. Two §VII "future work" tools are
//! also implemented: [`prediction`] (the warning→failure predictor the
//! paper's FMS team built), [`mining`] (the FOT context miner the paper
//! calls for), and [`backlog`] (the §VII-A open-ticket / degraded-capacity
//! accounting). [`replay`] streams a finished trace back as a virtual-time
//! ticket feed with causal, online versions of those detectors attached.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backlog;
pub mod batch;
pub mod comparison;
pub mod correlation;
pub mod lifecycle;
pub mod mining;
pub mod overview;
pub mod paper;
pub mod prediction;
pub mod replay;
pub mod response;
pub mod skew;
pub mod spatial;
mod study;
pub mod temporal;

#[cfg(test)]
mod test_support;

pub use study::{schedule, FailureStudy, StudyOptions, StudyReport};
