//! Regression tests for the trace index and the parallel study and
//! render scheduler.
//!
//! The contract under test: `Trace::index()` is a pure acceleration
//! structure and the section thread pool is pure orchestration — neither
//! may change a single byte of any analysis result. Every report below is
//! compared through its derived `Debug` form, so a mismatch anywhere in
//! the nested result structs (ordering included) fails the test. The indexed
//! accessors themselves are checked against plain ticket scans in
//! `tests/study_oracle.rs`.

use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::obs::MetricsRegistry;
use dcfail::sim::{RunOptions, Scenario};
use dcfail::trace::Trace;

const SEEDS: [u64; 3] = [1, 7, 42];

fn small_trace(seed: u64) -> Trace {
    Scenario::small()
        .seed(seed)
        .simulate(&RunOptions::default())
        .expect("simulation runs")
}

fn report_debug(trace: &Trace, threads: usize) -> String {
    let study = FailureStudy::new(trace);
    let report = study.analyze(&StudyOptions::with_threads(threads));
    format!("{report:?}")
}

#[test]
fn thread_count_never_changes_the_report() {
    for seed in SEEDS {
        let trace = small_trace(seed);
        let serial = report_debug(&trace, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                report_debug(&trace, threads),
                serial,
                "seed {seed}: report changed at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_run_records_every_section_span() {
    let trace = small_trace(SEEDS[2]);
    let registry = MetricsRegistry::new();
    let study = FailureStudy::new(&trace);
    let _ = study.analyze(&StudyOptions::with_threads(4).metrics(&registry));
    let report = registry.report("index_parallel");
    for name in [
        "study.index",
        "study.sections",
        "study.overview",
        "study.temporal",
        "study.skew",
        "study.spatial",
        "study.correlation",
        "study.response",
    ] {
        assert!(
            report.phases.iter().any(|p| p.name == name),
            "missing span {name}"
        );
    }
    assert_eq!(report.gauge("study.threads"), Some(4.0));
}

/// `render_all` runs the renderers on the worker count of the study's
/// `analyze` call; the joined text equals each experiment rendered in
/// turn and joined in paper order, at any count.
#[test]
fn rendered_report_is_the_serial_join_at_any_thread_count() {
    use dcfail::report::experiments::{render_all, EXPERIMENTS};
    for seed in SEEDS {
        let trace = small_trace(seed);
        let serial = {
            let study = FailureStudy::new(&trace);
            let _ = study.analyze(&StudyOptions::default());
            EXPERIMENTS
                .iter()
                .map(|e| (e.render)(&study))
                .collect::<Vec<_>>()
                .join("\n\n")
        };
        for threads in [1, 2, 3] {
            let study = FailureStudy::new(&trace);
            let _ = study.analyze(&StudyOptions::with_threads(threads));
            assert_eq!(study.workers(), threads);
            assert_eq!(render_all(&study), serial, "seed {seed}, {threads} threads");
        }
        // Without an analyze call the renderers run on the calling thread.
        let study = FailureStudy::new(&trace);
        assert_eq!(study.workers(), 1);
        assert_eq!(render_all(&study), serial, "seed {seed}, no analyze");
    }
}
