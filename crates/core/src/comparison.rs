//! Programmatic paper-vs-measured comparison: the headline numbers of a
//! run's [`StudyReport`] (plus Table V's batch frequencies) checked
//! against the paper with a verdict per row. `reproduce --score` prints
//! these rows.

use dcf_trace::{ComponentClass, Trace};

use crate::paper;
use crate::{FailureStudy, StudyReport};

/// How a measured value relates to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Within the requested tolerance.
    Match,
    /// Outside tolerance but the qualitative direction holds.
    Close,
    /// Qualitatively off.
    Mismatch,
    /// Not computable on this trace (too small, censored, …).
    Unavailable,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Which experiment the metric belongs to.
    pub experiment: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value (`NaN` when unavailable).
    pub measured: f64,
    /// Verdict at the default tolerances.
    pub agreement: Agreement,
}

fn judge(paper: f64, measured: f64, rel_tol: f64, abs_tol: f64) -> Agreement {
    if !measured.is_finite() {
        return Agreement::Unavailable;
    }
    let diff = (measured - paper).abs();
    if diff <= abs_tol || (paper != 0.0 && diff / paper.abs() <= rel_tol) {
        Agreement::Match
    } else if diff <= 3.0 * abs_tol || (paper != 0.0 && diff / paper.abs() <= 3.0 * rel_tol) {
        Agreement::Close
    } else {
        Agreement::Mismatch
    }
}

/// Compares a report's headline metrics against the paper's published
/// values. Tolerances: shares ±1.5 pp (absolute), scalars ±15 % (relative);
/// "Close" extends both by 3×.
///
/// Designed for paper-scale traces; on smaller fleets several rows come
/// back [`Agreement::Close`] or [`Agreement::Unavailable`] — that is
/// information, not an error.
pub fn compare_to_paper(report: &StudyReport) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    let mut push = |experiment, metric, paper_v: f64, measured: f64, rel: f64, abs: f64| {
        rows.push(ComparisonRow {
            experiment,
            metric,
            paper: paper_v,
            measured,
            agreement: judge(paper_v, measured, rel, abs),
        });
    };

    // Table I, in `paper::CATEGORY_SHARES` order.
    for ((_, paper_share), (metric, measured, rel, abs)) in paper::CATEGORY_SHARES.iter().zip([
        ("fixing share", report.fixing_share, 0.05, 0.015),
        ("error share", report.error_share, 0.08, 0.015),
        ("false alarm share", report.false_alarm_share, 0.25, 0.004),
    ]) {
        push("Table I", metric, *paper_share, measured, rel, abs);
    }

    // Table II (the three biggest classes; the rest follow the same path).
    for (class, metric) in [
        (ComponentClass::Hdd, "HDD share"),
        (ComponentClass::Miscellaneous, "misc share"),
        (ComponentClass::Memory, "memory share"),
    ] {
        let measured = report
            .component_shares
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .unwrap_or(f64::NAN);
        push(
            "Table II",
            metric,
            paper::component_share(class),
            measured,
            0.10,
            0.015,
        );
    }

    // Figure 5.
    push(
        "Fig. 5",
        "fleet MTBF (min)",
        paper::MTBF_MINUTES,
        report.mtbf_minutes.unwrap_or(f64::NAN),
        0.15,
        0.7,
    );

    // Figure 7.
    push(
        "Fig. 7",
        "never-repeat share",
        paper::repeats::NEVER_REPEAT_SHARE,
        report.never_repeat_share,
        0.15,
        0.12,
    );
    push(
        "Fig. 7",
        "repeat server share",
        paper::repeats::REPEAT_SERVER_SHARE,
        report.repeat_server_share,
        0.60,
        0.03,
    );

    // Table VI.
    push(
        "Table VI",
        "pair server share",
        paper::correlation::PAIR_SERVER_SHARE,
        report.pair_server_share,
        0.40,
        0.003,
    );
    push(
        "Table VI",
        "misc involved share",
        paper::correlation::MISC_INVOLVED_SHARE,
        report.misc_involved_share,
        0.12,
        0.08,
    );

    // Figure 9.
    let (mean, median, over140) = report
        .rt_fixing
        .as_ref()
        .map(|r| (r.mean_days, r.median_days, r.over_140d))
        .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    push(
        "Fig. 9",
        "fixing MTTR (days)",
        paper::response::FIXING_MEAN_DAYS,
        mean,
        0.20,
        5.0,
    );
    push(
        "Fig. 9",
        "fixing median (days)",
        paper::response::FIXING_MEDIAN_DAYS,
        median,
        0.35,
        2.0,
    );
    push(
        "Fig. 9",
        "RT > 140 d share",
        paper::response::OVER_140_DAYS,
        over140,
        0.30,
        0.03,
    );

    rows
}

/// Batch r_N comparison for the classes Table V reports (paper-scale
/// thresholds only make sense at paper scale; the thresholds used are the
/// trace-scaled ones, with shares compared against the paper's).
pub fn compare_batch_frequencies(trace: &Trace) -> Vec<ComparisonRow> {
    let study = FailureStudy::new(trace);
    let batch = study.batch();
    let thresholds = batch.scaled_thresholds();
    let measured = batch.r_n(&thresholds);
    let mut rows = Vec::new();
    for (class, r100, r200, r500) in paper::BATCH_FREQUENCIES {
        let Some(m) = measured.iter().find(|r| r.class == class) else {
            continue;
        };
        for (metric, paper_pct, got) in [
            ("r_N1 %", r100, m.r[0].1 * 100.0),
            ("r_N2 %", r200, m.r[1].1 * 100.0),
            ("r_N3 %", r500, m.r[2].1 * 100.0),
        ] {
            rows.push(ComparisonRow {
                experiment: "Table V",
                metric,
                paper: paper_pct,
                measured: got,
                agreement: judge(paper_pct, got, 0.35, 1.5),
            });
        }
    }
    rows
}

/// Share of rows that match or are close — a single reproduction score.
pub fn agreement_score(rows: &[ComparisonRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let good = rows
        .iter()
        .filter(|r| matches!(r.agreement, Agreement::Match | Agreement::Close))
        .count();
    good as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::medium_trace;
    use crate::StudyOptions;

    #[test]
    fn medium_scale_mostly_agrees() {
        let trace = medium_trace();
        let report = FailureStudy::new(&trace).analyze(&StudyOptions::default());
        let rows = compare_to_paper(&report);
        assert!(rows.len() >= 12);
        let score = agreement_score(&rows);
        assert!(score >= 0.7, "agreement {score}: {rows:#?}");
        // Core identity metrics are strict matches at any scale.
        let fa = rows
            .iter()
            .find(|r| r.metric == "false alarm share")
            .unwrap();
        assert_eq!(fa.agreement, Agreement::Match, "{fa:?}");
    }

    #[test]
    fn batch_comparison_produces_rows_per_class() {
        let trace = medium_trace();
        let rows = compare_batch_frequencies(&trace);
        assert_eq!(rows.len(), paper::BATCH_FREQUENCIES.len() * 3);
        for r in &rows {
            assert!(r.measured.is_finite());
        }
    }

    #[test]
    fn judge_tiers_work() {
        assert_eq!(judge(1.0, 1.01, 0.05, 0.0), Agreement::Match);
        assert_eq!(judge(1.0, 1.10, 0.05, 0.0), Agreement::Close);
        assert_eq!(judge(1.0, 2.0, 0.05, 0.0), Agreement::Mismatch);
        assert_eq!(judge(1.0, f64::NAN, 0.05, 0.0), Agreement::Unavailable);
        assert_eq!(judge(0.0, 0.001, 0.05, 0.01), Agreement::Match);
    }

    #[test]
    fn score_handles_empty() {
        assert_eq!(agreement_score(&[]), 0.0);
    }
}
