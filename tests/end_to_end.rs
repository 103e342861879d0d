//! End-to-end invariants over generated traces: everything the FMS and the
//! paper's schema promise must hold for every ticket.

mod common;

use dcfail::core::{comparison, paper, FailureStudy, StudyOptions};
use dcfail::trace::{ComponentClass, FotCategory, Severity};

#[test]
fn every_ticket_satisfies_schema_invariants() {
    let trace = common::medium();
    let start = trace.info().start;
    let end = trace.end_time();
    for fot in trace.fots() {
        // Window bounds.
        assert!(fot.error_time >= start && fot.error_time < end);
        // Category/response pairing (also checked at construction).
        assert_eq!(fot.category.has_response(), fot.response.is_some());
        // Responses never precede detection.
        if let Some(rt) = fot.response_time() {
            assert!(rt.as_secs() < 600 * 86_400, "absurd RT {rt}");
        }
        // The failed device exists in the server's inventory.
        let server = trace.server(fot.server);
        assert!(
            server.component_count(fot.device) > 0,
            "{} ticket on server without {}",
            fot.id,
            fot.device
        );
        // Rack position matches the server record.
        assert_eq!(fot.rack_position, server.position);
        assert_eq!(fot.data_center, server.data_center);
        assert_eq!(fot.product_line, server.product_line);
        // Failure type belongs to the device class.
        assert_eq!(fot.failure_type.class(), fot.device);
        // Error tickets only on out-of-warranty servers.
        if fot.category == FotCategory::Error {
            assert!(server.out_of_warranty_at(fot.error_time));
        }
        // No failures before the server existed.
        assert!(fot.error_time >= server.deploy_time);
    }
}

#[test]
fn misc_tickets_are_manual_and_hardware_tickets_are_not() {
    let trace = common::medium();
    for fot in trace.failures_of(ComponentClass::Miscellaneous) {
        assert!(fot.failure_type.name().starts_with("Manual-"));
    }
}

#[test]
fn severity_taxonomy_is_consistent_in_trace() {
    let trace = common::medium();
    let mut warnings = 0usize;
    let mut fatal = 0usize;
    for fot in trace.failures() {
        match fot.failure_type.severity() {
            Severity::Warning => warnings += 1,
            Severity::Fatal => fatal += 1,
        }
    }
    // Both kinds occur; SMART-style warnings are plentiful for HDDs.
    assert!(warnings > 0 && fatal > 0);
}

#[test]
fn facade_reexports_work_together() {
    // The doc-level promise of the `dcfail` crate: one consistent surface.
    let trace = common::small();
    let study = FailureStudy::new(trace);
    let report = study.analyze(&StudyOptions::default());
    assert_eq!(report.total_fots, trace.len());
    let rendered = dcfail::report::experiments::render_table1(&study);
    assert!(rendered.contains("D_fixing"));
}

#[test]
fn decommissioned_servers_stop_failing() {
    // Indirect check: every server's ticket stream, once an Error ticket is
    // followed by silence, never resumes *after the end of trace*; directly
    // we verify there is no post-decommission inconsistency observable —
    // i.e. ticket streams per server are time-sorted and within bounds.
    let trace = common::small();
    for server in trace.servers() {
        let mut prev = None;
        for fot in trace.fots_of_server(server.id) {
            if let Some(p) = prev {
                assert!(fot.error_time >= p);
            }
            prev = Some(fot.error_time);
        }
    }
}

#[test]
fn false_alarm_rate_is_low_precision_high() {
    let trace = common::medium();
    let [fixing, error, fa] = trace.category_counts();
    let share = fa as f64 / (fixing + error + fa) as f64;
    assert!(share < 0.03, "false alarms {share}");
}

#[test]
fn score_rows_format_the_run_report() {
    let trace = common::medium();
    let report = FailureStudy::new(trace).analyze(&StudyOptions::with_threads(1));
    let rows = comparison::compare_to_paper(&report);
    // Debug strings compare NaN (unavailable) rows too. A fresh study, so
    // the parallel run computes its sections instead of reading kept ones.
    let parallel = comparison::compare_to_paper(
        &FailureStudy::new(trace).analyze(&StudyOptions::with_threads(4)),
    );
    assert_eq!(format!("{rows:?}"), format!("{parallel:?}"));

    let share = |class| {
        report
            .component_shares
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(f64::NAN, |(_, s)| *s)
    };
    let rt = report.rt_fixing.as_ref().expect("medium trace has fixes");
    for row in &rows {
        let expected = match row.metric {
            "fixing share" => report.fixing_share,
            "error share" => report.error_share,
            "false alarm share" => report.false_alarm_share,
            "HDD share" => share(ComponentClass::Hdd),
            "misc share" => share(ComponentClass::Miscellaneous),
            "memory share" => share(ComponentClass::Memory),
            "fleet MTBF (min)" => report.mtbf_minutes.unwrap_or(f64::NAN),
            "never-repeat share" => report.never_repeat_share,
            "repeat server share" => report.repeat_server_share,
            "pair server share" => report.pair_server_share,
            "misc involved share" => report.misc_involved_share,
            "fixing MTTR (days)" => rt.mean_days,
            "fixing median (days)" => rt.median_days,
            "RT > 140 d share" => rt.over_140d,
            other => panic!("unexpected headline row {other}"),
        };
        assert_eq!(
            row.measured.to_bits(),
            expected.to_bits(),
            "{} / {}",
            row.experiment,
            row.metric
        );
    }
    let table_i: Vec<f64> = rows
        .iter()
        .filter(|r| r.experiment == "Table I")
        .map(|r| r.paper)
        .collect();
    let paper_shares: Vec<f64> = paper::CATEGORY_SHARES.iter().map(|(_, s)| *s).collect();
    assert_eq!(table_i, paper_shares);

    let batch = comparison::compare_batch_frequencies(trace);
    assert_eq!(rows.len() + batch.len(), 44);
}
