//! Shared test fixtures: a small simulated trace, generated once per test
//! binary and cloned into each test.

use std::sync::OnceLock;

use dcf_trace::Trace;

static SMALL: OnceLock<Trace> = OnceLock::new();
static MEDIUM: OnceLock<Trace> = OnceLock::new();
static PAPER: OnceLock<Trace> = OnceLock::new();

/// A small (2k-server, 360-day) calibrated trace, deterministic across runs.
pub(crate) fn synthetic_trace() -> Trace {
    SMALL
        .get_or_init(|| {
            dcf_sim::Scenario::small()
                .seed(0xDCF)
                .simulate(&dcf_sim::RunOptions::default())
                .expect("small scenario runs")
        })
        .clone()
}

/// A medium (20k-server) trace for analyses that need more volume
/// (spatial chi-squared, lifecycle curves).
pub(crate) fn medium_trace() -> Trace {
    MEDIUM
        .get_or_init(|| {
            dcf_sim::Scenario::medium()
                .seed(0xDCF)
                .simulate(&dcf_sim::RunOptions::default())
                .expect("medium scenario runs")
        })
        .clone()
}

/// A paper-scale (160k-server) trace, for effects the builder sizes
/// against the paper's fleet and that drown in a smaller one's noise.
pub(crate) fn paper_trace() -> Trace {
    PAPER
        .get_or_init(|| {
            dcf_sim::Scenario::paper()
                .seed(0xDCF)
                .simulate(&dcf_sim::RunOptions::default())
                .expect("paper scenario runs")
        })
        .clone()
}
