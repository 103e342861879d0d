//! # dcf-bench
//!
//! Reproduction harness for the `dcfail` study.
//!
//! * `src/bin/reproduce.rs` — regenerates every paper table and figure
//!   from a simulated trace and prints paper-vs-measured; also runs the
//!   snapshot, replay and serve subcommands.
//! * [`loadgen`] — HTTP response framing and outcome classification for
//!   the `perfbench` benchmark's load generator.

#![warn(missing_docs)]

pub mod loadgen;
