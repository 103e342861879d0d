//! Integration tests for the `dcf-obs` instrumentation layer: metric
//! counts must be deterministic in the seed and consistent with the trace
//! the run produced, and the span log stays bounded under a long stream
//! of spans.

use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::obs::{FoldedPhase, MetricsRegistry, RunReport, SPAN_CAP};
use dcfail::sim::{RunOptions, Scenario};

/// Runs `scenario` with a fresh registry and returns `(trace len, report)`.
fn instrumented_run(seed: u64) -> (u64, RunReport) {
    let registry = MetricsRegistry::new();
    let trace = Scenario::small()
        .seed(seed)
        .simulate(&RunOptions::new().metrics(&registry))
        .unwrap();
    registry.set_gauge("trace.fots", trace.len() as f64);
    (trace.len() as u64, registry.report("integration"))
}

#[test]
fn counters_are_deterministic_across_runs() {
    let (len_a, a) = instrumented_run(17);
    let (len_b, b) = instrumented_run(17);
    assert_eq!(len_a, len_b);
    // Counters and gauges must match exactly; phase durations are
    // wall-clock and may not.
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.gauges, b.gauges);

    let (_, c) = instrumented_run(18);
    assert_ne!(a.counters, c.counters, "different seeds, same counters");
}

#[test]
fn ticket_counters_are_consistent_with_the_trace() {
    let (len, report) = instrumented_run(17);
    let count = |name: &str| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };

    assert_eq!(count("sim.tickets.total"), len);
    assert_eq!(count("fms.tickets.issued"), len);
    assert_eq!(
        count("sim.tickets.fixing") + count("sim.tickets.error") + count("sim.tickets.false_alarm"),
        len
    );
    assert_eq!(report.gauge("trace.fots"), Some(len as f64));
    // The small scenario exercises every channel.
    assert!(count("sim.occurrences.background") > 0);
    assert!(count("fleet.servers.built") > 0);
}

#[test]
fn report_round_trips_through_json_after_a_real_run() {
    let (_, report) = instrumented_run(17);
    let back = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
    for phase in [
        "engine.fleet_build",
        "engine.global",
        "engine.per_server",
        "engine.assembly",
    ] {
        assert!(back.phase_ms(phase).is_some(), "missing span {phase}");
    }
}

/// Opens `n` `worker_phase` spans named `name`, half from each of two
/// threads.
fn open_spans(registry: &MetricsRegistry, name: &str, n: usize) {
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..n / 2 {
                    let _span = registry.worker_phase(name);
                }
            });
        }
    });
}

#[test]
fn span_log_stays_bounded_over_a_long_span_stream() {
    let registry = MetricsRegistry::new();
    {
        let _setup = registry.phase("setup");
    }
    open_spans(&registry, "serve.request", 100_000);
    let report = registry.report("bounded");
    assert_eq!(report.phases.len(), SPAN_CAP);
    let kept: Vec<u64> = report
        .phases
        .iter()
        .filter(|p| p.name == "serve.request")
        .map(|p| p.duration_us)
        .collect();
    assert_eq!(report.folded.len(), 1);
    let folded = &report.folded[0];
    assert_eq!(folded.name, "serve.request");
    assert_eq!(kept.len() as u64 + folded.count, 100_000);
    assert!(folded.max_us <= folded.total_us);
    // `phase_ms` adds the folded spans to the kept ones.
    let every_span_us = kept.iter().sum::<u64>() + folded.total_us;
    assert_eq!(
        report.phase_ms("serve.request"),
        Some(every_span_us as f64 / 1e3)
    );
    assert_eq!(
        report.phase_ms("setup"),
        Some(report.phases[0].duration_ms())
    );

    // Another 100k spans leave the serialized report the same size, up
    // to the digits of the growing totals.
    let at_100k = report.to_json().len();
    open_spans(&registry, "serve.request", 100_000);
    let report = registry.report("bounded");
    assert_eq!(report.phases.len(), SPAN_CAP);
    assert_eq!(report.folded[0].count + (SPAN_CAP as u64 - 1), 200_000);
    let at_200k = report.to_json().len();
    assert!(
        at_100k.abs_diff(at_200k) <= 64,
        "report grew from {at_100k} to {at_200k} bytes"
    );
}

#[test]
fn folded_totals_round_trip_and_older_reports_still_parse() {
    let mut report = instrumented_run(17).1;
    report.folded = vec![
        FoldedPhase {
            name: "serve.gzip.encode".into(),
            count: 3,
            total_us: 9_000,
            max_us: 4_000,
        },
        FoldedPhase {
            name: "serve.request".into(),
            count: u64::MAX,
            total_us: u64::MAX,
            max_us: 17,
        },
    ];
    let json = report.to_json();
    let back = RunReport::from_json(&json).expect("report with folded totals parses");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json);

    // A report written before the log was bounded has no `folded` field.
    report.folded.clear();
    let older = report.to_json().replace("\n  \"folded\": [],", "");
    assert!(!older.contains("folded"));
    assert_eq!(
        RunReport::from_json(&older).expect("older report parses"),
        report
    );
    let wrong = report.to_json().replace("\"folded\": []", "\"folded\": {}");
    assert!(RunReport::from_json(&wrong).is_err());
}

#[test]
fn paper_run_keeps_every_phase_under_the_cap() {
    let registry = MetricsRegistry::new();
    let trace = Scenario::paper()
        .seed(1)
        .simulate(&RunOptions::new().metrics(&registry))
        .expect("paper scenario runs");
    let _ = FailureStudy::new(&trace).analyze(&StudyOptions::with_threads(2).metrics(&registry));
    let report = registry.report("paper");
    assert!(report.folded.is_empty());
    // The phases the run recorded before the log was bounded; section
    // spans open in worker order, so compare sorted.
    let mut phases: Vec<(&str, u32)> = report
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.depth))
        .collect();
    phases.sort_unstable();
    let mut expected = vec![
        ("engine.total", 0),
        ("engine.fleet_build", 1),
        ("fleet.build", 2),
        ("fleet.place_servers", 3),
        ("engine.global", 1),
        ("engine.per_server", 1),
        ("engine.assembly", 1),
        ("study.index", 0),
        ("trace.build_columns", 0),
        ("study.sections", 0),
        ("study.overview", 1),
        ("study.temporal", 1),
        ("study.skew", 1),
        ("study.spatial", 1),
        ("study.correlation", 1),
        ("study.response", 1),
    ];
    expected.sort_unstable();
    assert_eq!(phases, expected);
}
