//! Cross-analysis consistency: independent analyses over the same trace
//! must agree on shared quantities. These invariants catch silent
//! double-counting or filtering bugs that no single module's tests would.

mod common;

use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::report::experiments::render_all;
use dcfail::trace::{ComponentClass, FotCategory};

#[test]
fn overview_batch_and_lifecycle_agree_on_totals() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);

    let total_failures = trace.failures().count();

    // Overview component counts partition the failures.
    let by_component: usize = study
        .overview()
        .component_breakdown()
        .iter()
        .map(|r| r.count)
        .sum();
    assert_eq!(by_component, total_failures);

    // Batch daily counts sum to the same totals per class.
    let batch = study.batch();
    for class in ComponentClass::ALL {
        let daily: usize = batch.daily_counts(class).iter().sum();
        assert_eq!(daily, trace.failures_of(class).count(), "{class}");
    }

    // Lifecycle failure counts cover at most the failures (ages beyond the
    // 48-month horizon fall outside the histogram).
    let lifecycle_total: u64 = study
        .lifecycle()
        .all()
        .iter()
        .map(|r| r.failures.iter().sum::<u64>())
        .sum();
    assert!(lifecycle_total as usize <= total_failures);
    assert!(
        lifecycle_total as f64 > 0.9 * total_failures as f64,
        "most failures happen within 48 months of deployment: {lifecycle_total} vs {total_failures}"
    );
}

#[test]
fn concentration_and_correlation_agree_on_ever_failed_servers() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);
    let conc = study.skew().concentration();
    let corr = study.correlation().component_pairs();
    // Same denominator: servers with >= 1 failure.
    let derived = (corr.pair_server_share * conc.servers_ever_failed as f64).round() as usize;
    assert_eq!(derived, corr.servers_with_pairs);
    // Concentration counts partition failures.
    assert_eq!(conc.total_failures, trace.failures().count());
}

#[test]
fn backlog_never_exceeds_open_ticket_population() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);
    let fixing_total = trace.in_category(FotCategory::Fixing).count();
    let summary = study.backlog().summary();
    assert!(summary.peak_open <= fixing_total);
    assert!(summary.mean_open <= summary.peak_open as f64);
    // Degraded servers are a subset of D_error-affected servers.
    let error_servers: std::collections::HashSet<_> = trace
        .in_category(FotCategory::Error)
        .map(|f| f.server)
        .collect();
    let degraded = study
        .backlog()
        .degraded_timeline()
        .last()
        .map(|p| p.count)
        .unwrap_or(0);
    assert_eq!(degraded, error_servers.len());
}

#[test]
fn spatial_dedup_is_a_subset_of_failures() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);
    let results = study.spatial().by_data_center(0);
    let dedup_total: usize = results
        .iter()
        .flat_map(|r| r.positions.iter().map(|p| p.failures))
        .sum();
    let raw_total = trace.failures().count();
    assert!(dedup_total <= raw_total);
    // Dedup removes repeats, which exist — so strictly fewer.
    assert!(dedup_total < raw_total);
    // Server populations across positions cover the whole fleet.
    let pop_total: usize = results
        .iter()
        .flat_map(|r| r.positions.iter().map(|p| p.servers))
        .sum();
    assert_eq!(pop_total, trace.servers().len());
}

#[test]
fn response_views_agree_on_ticket_counts() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);
    let resp = study.response();
    let responded = trace.fots().iter().filter(|f| f.response.is_some()).count();

    // Per-class RT populations sum to all responded tickets.
    let by_class: usize = resp.rt_by_class(0).iter().map(|(_, s)| s.n).sum();
    assert_eq!(by_class, responded);

    // Per-operator loads partition them too.
    let by_op: usize = resp.by_operator(1).iter().map(|o| o.tickets).sum();
    assert_eq!(by_op, responded);

    // Category views: fixing + false alarm == responded.
    let fixing = resp.rts_of_category(FotCategory::Fixing).len();
    let fa = resp.rts_of_category(FotCategory::FalseAlarm).len();
    assert_eq!(fixing + fa, responded);
}

#[test]
fn restricted_trace_analyses_match_manual_filtering() {
    let trace = common::medium();
    let start = trace.info().start;
    let mid = dcfail::trace::SimTime::from_days(start.day_index() + 365);
    let end = dcfail::trace::SimTime::from_days(start.day_index() + 730);
    let sliced = trace.restrict(mid, end).unwrap();

    let manual = trace
        .failures()
        .filter(|f| f.error_time >= mid && f.error_time < end)
        .count();
    assert_eq!(sliced.failures().count(), manual);

    // The sliced study runs end to end.
    let report = FailureStudy::new(&sliced).analyze(&StudyOptions::default());
    assert_eq!(report.total_fots, sliced.len());
}

#[test]
fn prediction_counts_are_bounded_by_trace_populations() {
    let trace = common::medium();
    let study = FailureStudy::new(trace);
    let eval = study.prediction().evaluate(14, None);
    let hardware_failures = trace
        .failures()
        .filter(|f| f.device != ComponentClass::Miscellaneous)
        .count();
    assert!(eval.warnings + eval.fatals <= hardware_failures);
    assert!(eval.confirmed_warnings <= eval.warnings);
    assert!(eval.predicted_fatals <= eval.fatals);
}

/// Tickets before the window start or after its end count on no day. The
/// whole report, the workload correlation and the miner run over a trace
/// whose window is 5 days narrower at each end than its tickets' span
/// (debug builds check every day subtraction for overflow).
#[test]
fn window_edge_tickets_count_on_no_day() {
    let trace = common::narrowed(common::small(), 5);
    let start = trace.info().start;
    let early = trace
        .fots()
        .iter()
        .find(|f| f.is_failure() && f.error_time < start)
        .expect("failures before the narrowed window");
    let study = FailureStudy::new(&trace);
    let text = render_all(&study);
    assert!(text.contains("Table I") && text.contains("repair backlog"));

    let batch = study.batch();
    for class in ComponentClass::ALL {
        let in_window = trace
            .failures_of(class)
            .filter(|f| f.error_time >= start && f.error_time < trace.end_time())
            .count();
        let daily: usize = batch.daily_counts(class).iter().sum();
        assert_eq!(daily, in_window, "{class}");
    }
    let open = study.backlog().open_timeline(None);
    assert_eq!(open.len(), trace.info().days as usize);
    let flat = [1.0f64; 24];
    let _ = study.temporal().workload_correlation(None, &flat);
    let context = study.miner().context(early.id).expect("known ticket");
    assert_eq!(context.fot, early.id);
}

/// The drill-down view reads each context from the server's own rows; it
/// must equal the lookup by ticket id for every failure of every server.
#[test]
fn server_contexts_match_context_by_id() {
    use dcfail::core::mining::FotMiner;
    use dcfail::sim::{RunOptions, Scenario};
    for seed in [1, 7, 42] {
        let trace = Scenario::small()
            .seed(seed)
            .simulate(&RunOptions::default())
            .unwrap();
        let miner = FotMiner::new(&trace);
        let mut contexts = 0;
        for server in trace.servers() {
            let by_id: Vec<_> = trace
                .fots_of_server(server.id)
                .filter(|f| f.is_failure())
                .map(|f| miner.context(f.id).expect("a trace ticket has a context"))
                .collect();
            contexts += by_id.len();
            assert_eq!(miner.server_contexts(server.id), by_id, "seed {seed}");
        }
        assert_eq!(contexts, trace.failures().count(), "seed {seed}");
    }
}
