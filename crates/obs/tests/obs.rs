//! Behavioral tests for the instrumentation layer: thread-safe counter
//! aggregation, hierarchical phase ordering, the disabled no-op path, and
//! JSON round-trips.

use std::thread;

use dcf_obs::{Counter, MetricsRegistry, PhaseSpan, RunReport, Stopwatch};

#[test]
fn counters_aggregate_across_threads() {
    let metrics = MetricsRegistry::new();
    let handle = metrics.counter("work.items");
    thread::scope(|scope| {
        for t in 0..8 {
            let local = handle.clone();
            let registry = metrics.clone();
            scope.spawn(move || {
                for _ in 0..10_000 {
                    local.inc();
                }
                // Registering the same name concurrently must hit the same cell.
                registry.add("work.items", t as u64);
            });
        }
    });
    let extra: u64 = (0..8).sum();
    assert_eq!(handle.get(), 80_000 + extra);
    assert_eq!(metrics.counter_value("work.items"), Some(80_000 + extra));
}

#[test]
fn same_name_returns_same_counter() {
    let metrics = MetricsRegistry::new();
    let a = metrics.counter("x");
    let b = metrics.counter("x");
    a.add(3);
    b.add(4);
    assert_eq!(a.get(), 7);
    assert_eq!(metrics.counter_value("y"), None);
}

#[test]
fn phase_spans_nest_and_keep_preorder() {
    let metrics = MetricsRegistry::new();
    {
        let _outer = metrics.phase("outer");
        {
            let _mid = metrics.phase("outer.mid");
            let _inner = metrics.phase("outer.mid.inner");
        }
        let _sibling = metrics.phase("outer.sibling");
    }
    let _top2 = metrics.phase("second_top");
    drop(_top2);
    let report = metrics.report("nesting");
    let shape: Vec<(&str, u32)> = report
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.depth))
        .collect();
    assert_eq!(
        shape,
        vec![
            ("outer", 0),
            ("outer.mid", 1),
            ("outer.mid.inner", 2),
            ("outer.sibling", 1),
            ("second_top", 0),
        ]
    );
    // Children start at or after their parents.
    assert!(report.phases[1].start_us >= report.phases[0].start_us);
    assert!(report.phases[2].start_us >= report.phases[1].start_us);
    // Parents close after their children, so durations contain them.
    assert!(report.phases[0].duration_us >= report.phases[1].duration_us);
    assert!(report.phases[1].duration_us >= report.phases[2].duration_us);
}

#[test]
fn worker_phases_record_concurrently_without_corrupting_the_stack() {
    let metrics = MetricsRegistry::new();
    {
        let _sections = metrics.phase("sections");
        thread::scope(|scope| {
            for i in 0..4 {
                let registry = metrics.clone();
                scope.spawn(move || {
                    let _span = registry.worker_phase(&format!("sections.worker{i}"));
                });
            }
        });
    }
    // The depth stack must be balanced again: a new top-level phase sits
    // at depth 0.
    {
        let _after = metrics.phase("after");
    }
    let report = metrics.report("workers");
    let sections = report
        .phases
        .iter()
        .find(|p| p.name == "sections")
        .expect("missing enclosing span");
    assert_eq!(sections.depth, 0);
    for i in 0..4 {
        let name = format!("sections.worker{i}");
        let span = report
            .phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing {name}"));
        // Detached spans record under the enclosing stacked phase.
        assert_eq!(span.depth, 1, "{name} depth");
        assert!(span.start_us >= sections.start_us);
    }
    let after = report.phases.iter().find(|p| p.name == "after").unwrap();
    assert_eq!(after.depth, 0);
}

#[test]
fn disabled_registry_is_a_no_op() {
    let metrics = MetricsRegistry::disabled();
    {
        let _span = metrics.worker_phase("ignored.worker");
    }
    assert!(metrics.report("disabled").phases.is_empty());
}

#[test]
fn disabled_registry_handles_are_no_ops() {
    let metrics = MetricsRegistry::disabled();
    assert!(!metrics.is_enabled());
    let counter = metrics.counter("anything");
    counter.add(5);
    assert_eq!(counter.get(), 0);
    metrics.add("anything", 9);
    assert_eq!(metrics.counter_value("anything"), None);
    metrics.set_gauge("g", 1.5);
    assert_eq!(metrics.gauge("g").get(), 0.0);
    {
        let _span = metrics.phase("ignored");
    }
    let report = metrics.report("disabled");
    assert!(report.phases.is_empty());
    assert!(report.counters.is_empty());
    assert!(report.gauges.is_empty());
    // Default handles behave like disabled ones.
    let default = Counter::default();
    default.inc();
    assert_eq!(default.get(), 0);
}

#[test]
fn gauges_are_last_write_wins() {
    let metrics = MetricsRegistry::new();
    metrics.set_gauge("trace.fots", 10.0);
    metrics.set_gauge("trace.fots", 296_097.0);
    let report = metrics.report("gauges");
    assert_eq!(report.gauge("trace.fots"), Some(296_097.0));
}

#[test]
fn run_report_json_round_trips() {
    let report = RunReport {
        label: "scenario \"paper\" — seed 1\nline two\t\\".to_string(),
        phases: vec![
            PhaseSpan {
                name: "engine.global".into(),
                depth: 0,
                start_us: 0,
                duration_us: 1_234,
            },
            PhaseSpan {
                name: "engine.per_server".into(),
                depth: 1,
                start_us: 1_300,
                duration_us: u64::MAX,
            },
        ],
        folded: Vec::new(),
        counters: vec![
            ("sim.occurrences.batch".into(), 12_345),
            ("sim.tickets.total".into(), u64::MAX),
        ],
        gauges: vec![
            ("trace.fots".into(), 296_097.0),
            ("tiny".into(), 1.0e-12),
            ("precise".into(), 0.1 + 0.2),
        ],
    };
    let json = report.to_json();
    let back = RunReport::from_json(&json).expect("round-trip parses");
    assert_eq!(back, report);
    // And the serialization is stable (byte-identical on re-serialize).
    assert_eq!(back.to_json(), json);
}

#[test]
fn empty_report_round_trips() {
    let report = MetricsRegistry::new().report("empty");
    let back = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

#[test]
fn from_json_rejects_malformed_input() {
    assert!(RunReport::from_json("").is_err());
    assert!(RunReport::from_json("{").is_err());
    assert!(RunReport::from_json("[]").is_err());
    assert!(RunReport::from_json("{\"label\": \"x\"}").is_err());
    assert!(RunReport::from_json(
        "{\"label\": \"x\", \"phases\": [], \"counters\": {\"c\": -1}, \"gauges\": {}}"
    )
    .is_err());
    let err = RunReport::from_json("{\"label\": 3}").unwrap_err();
    assert!(err.to_string().contains("label"));
}

#[test]
fn report_accessors_find_metrics() {
    let metrics = MetricsRegistry::new();
    let sw = Stopwatch::start();
    {
        let _p = metrics.phase("alpha");
        metrics.add("hits", 2);
    }
    let report = metrics.report("accessors");
    assert_eq!(report.counter("hits"), Some(2));
    assert_eq!(report.counter("misses"), None);
    assert!(report.phase_ms("alpha").is_some());
    assert!(report.phase_ms("beta").is_none());
    assert!(sw.elapsed_ms() >= 0.0);
}

#[test]
fn registry_clones_share_state() {
    let metrics = MetricsRegistry::new();
    let clone = metrics.clone();
    clone.add("shared", 1);
    metrics.add("shared", 1);
    assert_eq!(metrics.counter_value("shared"), Some(2));
}
