//! One renderer per paper table/figure: each prints the same rows/series
//! the paper reports, with the paper's published value alongside where one
//! exists. [`EXPERIMENTS`] lists them with the IDs that name them; the
//! `reproduce` binary in `dcf-bench` dispatches `--experiment` through it.
//!
//! Renderers read the study's kept section values
//! ([`FailureStudy::temporal_section`], …), so rendering after
//! [`FailureStudy::analyze`] repeats none of its work.

use std::sync::OnceLock;

use dcf_core::paper;
use dcf_core::response::RtStats;
use dcf_core::FailureStudy;
use dcf_stats::ContinuousDistribution as _;
use dcf_trace::{ComponentClass, FailureType, FotCategory};

use crate::chart::{bar_chart, cdf_plot};
use crate::table::{days, pct, TextTable};

/// Table I: FOT categories.
pub fn render_table1(study: &FailureStudy<'_>) -> String {
    let b = &study.overview_section().categories;
    let mut t = TextTable::new(vec!["Failure trace", "Measured", "Paper"]);
    for ((name, paper_share), measured) in
        paper::CATEGORY_SHARES
            .iter()
            .zip([b.fixing_share, b.error_share, b.false_alarm_share])
    {
        t.row(vec![(*name).into(), pct(measured), pct(*paper_share)]);
    }
    format!(
        "Table I — FOT categories ({} tickets)\n{}",
        b.total,
        t.render()
    )
}

/// Table II: failure breakdown by component.
pub fn render_table2(study: &FailureStudy<'_>) -> String {
    let rows = &study.overview_section().components;
    let mut t = TextTable::new(vec!["Device", "Count", "Measured", "Paper"]);
    for r in rows {
        t.row(vec![
            r.class.name().into(),
            r.count.to_string(),
            pct(r.share),
            pct(paper::component_share(r.class)),
        ]);
    }
    format!("Table II — failure percentage by component\n{}", t.render())
}

/// Table III: the failure-type taxonomy (definitional; no measurement).
pub fn render_table3() -> String {
    let mut t = TextTable::new(vec!["Class", "Failure type", "Severity"]);
    for class in ComponentClass::ALL {
        for ft in FailureType::types_of(class) {
            t.row(vec![
                class.name().into(),
                ft.name().into(),
                format!("{:?}", ft.severity()),
            ]);
        }
    }
    format!("Table III — failure-type taxonomy\n{}", t.render())
}

/// Figure 2: failure-type breakdown for the four classes the paper plots.
pub fn render_fig2(study: &FailureStudy<'_>) -> String {
    let mut out = String::from("Figure 2 — failure type breakdown\n");
    for class in [
        ComponentClass::Hdd,
        ComponentClass::RaidCard,
        ComponentClass::FlashCard,
        ComponentClass::Memory,
    ] {
        let rows = study.overview().type_breakdown(class);
        out.push_str(&format!("\n  ({})\n", class.name()));
        let data: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.failure_type.name().to_string(), r.share))
            .collect();
        for line in bar_chart(&data, 40).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Figure 3: day-of-week fractions plus the Hypothesis 1 tests.
pub fn render_fig3(study: &FailureStudy<'_>) -> String {
    let mut out = String::from("Figure 3 — failures per day of week\n");
    for class in [
        None,
        Some(ComponentClass::Hdd),
        Some(ComponentClass::Memory),
        Some(ComponentClass::RaidCard),
        Some(ComponentClass::Miscellaneous),
    ] {
        let Ok(r) = study.temporal().day_of_week(class) else {
            continue;
        };
        let name = class.map_or("All", |c| c.name());
        out.push_str(&format!("\n  ({name})  H1 test: {}\n", r.uniformity));
        let data: Vec<(String, f64)> = dcf_trace::Weekday::ALL
            .iter()
            .map(|w| (w.abbrev().to_string(), r.fractions[w.index()]))
            .collect();
        for line in bar_chart(&data, 40).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Figure 4: hour-of-day fractions plus the Hypothesis 2 tests.
pub fn render_fig4(study: &FailureStudy<'_>) -> String {
    let mut out = String::from("Figure 4 — failures per hour of day\n");
    for class in [
        ComponentClass::Hdd,
        ComponentClass::Memory,
        ComponentClass::Motherboard,
        ComponentClass::RaidCard,
        ComponentClass::Ssd,
        ComponentClass::Power,
        ComponentClass::FlashCard,
        ComponentClass::Miscellaneous,
    ] {
        let Ok(r) = study.temporal().hour_of_day(Some(class)) else {
            continue;
        };
        out.push_str(&format!(
            "\n  ({})  H2 test: {}\n",
            class.name(),
            r.uniformity
        ));
        let data: Vec<(String, f64)> = (0..24)
            .map(|h| (format!("{h:02}"), r.fractions[h]))
            .collect();
        for line in bar_chart(&data, 36).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Figure 5: TBF CDF with the four fitted families and their tests.
pub fn render_fig5(study: &FailureStudy<'_>) -> String {
    let section = study.temporal_section();
    let (Some(tbf), Some(ecdf)) = (&section.tbf, &section.tbf_ecdf) else {
        return String::from("Figure 5 — not enough failures for TBF analysis\n");
    };
    let mut out = format!(
        "Figure 5 — TBF over all components\n  MTBF = {:.1} min (paper: {:.1}); median = {:.1} min; n = {}\n",
        tbf.mtbf_minutes,
        paper::MTBF_MINUTES,
        tbf.median_minutes,
        tbf.n
    );
    let per_dc = study.temporal().mtbf_by_dc(100);
    if !per_dc.is_empty() {
        let min = per_dc.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
        let max = per_dc.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  per-DC MTBF range: {min:.0}–{max:.0} min (paper: {:.0}–{:.0})\n",
            paper::MTBF_BY_DC_RANGE_MINUTES.0,
            paper::MTBF_BY_DC_RANGE_MINUTES.1
        ));
    }
    let mut t = TextTable::new(vec!["Family", "Fit", "chi2", "p-value", "Rejected@0.05"]);
    for fit in &tbf.fits {
        t.row(vec![
            fit.fitted.name().into(),
            fit.fitted.to_string(),
            format!("{:.1}", fit.test.statistic),
            format!("{:.2e}", fit.test.p_value),
            if fit.test.rejects_at(0.05) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n  Empirical CDF (log-scaled minutes):\n");
    out.push_str(&cdf_plot(
        &[("TBF", &ecdf.sampled_points(60))],
        60,
        12,
        true,
    ));
    out
}

/// Figure 6: normalized monthly failure rates per class.
pub fn render_fig6(study: &FailureStudy<'_>) -> String {
    let mut out = String::from("Figure 6 — normalized monthly failure rate by age\n");
    let all = study.lifecycle().all();
    for r in &all {
        let series = r.normalized_series();
        if series.len() < 6 {
            continue;
        }
        out.push_str(&format!("\n  ({})\n", r.class.name()));
        let data: Vec<(String, f64)> = series
            .iter()
            .filter(|(m, _)| m % 3 == 0) // quarterly bars keep it compact
            .map(|(m, v)| (format!("m{m:02}"), *v))
            .collect();
        for line in bar_chart(&data, 40).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str("\n  Headline lifecycle statistics:\n");
    let mut t = TextTable::new(vec!["Metric", "Measured", "Paper"]);
    let raid = &all[ComponentClass::RaidCard.index()];
    t.row(vec![
        "RAID failures in first 6 months".into(),
        pct(raid.failure_fraction(0..6)),
        pct(paper::lifecycle::RAID_FIRST_6_MONTHS),
    ]);
    let hdd = &all[ComponentClass::Hdd.index()];
    if let (Some(infant), Some(trough)) = (hdd.mean_rate(0..3), hdd.mean_rate(3..9)) {
        t.row(vec![
            "HDD infant rate / months 4-9 rate".into(),
            format!("{:.2}", infant / trough),
            format!("{:.2}", paper::lifecycle::HDD_INFANT_OVER_TROUGH),
        ]);
    }
    let mb = &all[ComponentClass::Motherboard.index()];
    t.row(vec![
        "Motherboard failures after 3 years".into(),
        pct(mb.failure_fraction(36..48)),
        pct(paper::lifecycle::MOTHERBOARD_AFTER_36_MONTHS),
    ]);
    let flash = &all[ComponentClass::FlashCard.index()];
    t.row(vec![
        "Flash failures in first 12 months".into(),
        pct(flash.failure_fraction(0..12)),
        pct(paper::lifecycle::FLASH_FIRST_12_MONTHS),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 7: failure concentration plus repeat statistics.
pub fn render_fig7(study: &FailureStudy<'_>) -> String {
    let section = study.skew_section();
    let (c, r) = (&section.concentration, &section.repeats);
    let mut out = format!(
        "Figure 7 — failure concentration across servers\n  servers ever failed: {} ({} of fleet); max FOTs on one server: {}\n",
        c.servers_ever_failed,
        pct(c.ever_failed_share),
        c.max_on_one_server
    );
    let mut t = TextTable::new(vec!["Top share of ever-failed servers", "Failure share"]);
    for f in [0.01, 0.02, 0.05, 0.10, 0.25, 0.50] {
        t.row(vec![pct(f), pct(c.top_share(f))]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n  Repeats: {} of fixed components never repeat (paper: >{}); {} of ever-failed servers repeat (paper: ~{})\n",
        pct(r.never_repeat_share),
        pct(paper::repeats::NEVER_REPEAT_SHARE),
        pct(r.repeat_server_share),
        pct(paper::repeats::REPEAT_SERVER_SHARE),
    ));
    let curve = c.curve(40);
    out.push_str("  Concentration curve (x: top server fraction, y: failure share):\n");
    out.push_str(&cdf_plot(&[("concentration", &curve)], 50, 10, false));
    out
}

/// Table IV + Figure 8: the spatial analysis.
pub fn render_table4_fig8(study: &FailureStudy<'_>) -> String {
    let section = study.spatial_section();
    let (results, t4) = (&section.by_data_center, section.table_iv);
    let mut out = String::from("Table IV — chi-squared results for Hypothesis 5\n");
    let mut t = TextTable::new(vec!["p-value", "Measured", "Paper (of 24)"]);
    t.row(vec![
        "p < 0.01".into(),
        t4.rejected_001.to_string(),
        paper::table_iv::REJECTED_001.to_string(),
    ]);
    t.row(vec![
        "0.01 <= p < 0.05".into(),
        t4.borderline.to_string(),
        paper::table_iv::BORDERLINE.to_string(),
    ]);
    t.row(vec![
        "p >= 0.05".into(),
        t4.accepted.to_string(),
        paper::table_iv::ACCEPTED.to_string(),
    ]);
    t.row(vec![
        "skipped (few failures)".into(),
        t4.skipped.to_string(),
        "0".into(),
    ]);
    out.push_str(&t.render());
    let share = study.spatial().modern_acceptance_share(results, 0.02);
    if share.is_finite() {
        out.push_str(&format!(
            "  post-2014 DCs where H5 cannot be rejected at 0.02: {} (paper: ~90 %)\n",
            pct(share)
        ));
    }

    // Figure 8: the two example DCs.
    for (idx, label) in [(0usize, "A"), (1usize, "B")] {
        let Some(r) = results.get(idx) else { continue };
        out.push_str(&format!(
            "\nFigure 8 ({label}) — failure ratio per rack position ({})\n",
            r.dc
        ));
        if let Some(test) = &r.test {
            out.push_str(&format!("  H5 test: {test}\n"));
        }
        if !r.anomalous_positions.is_empty() {
            out.push_str(&format!(
                "  positions outside mu±2sigma: {:?}\n",
                r.anomalous_positions
            ));
        }
        let data: Vec<(String, f64)> = r
            .positions
            .iter()
            .map(|p| (format!("u{:02}", p.position), p.ratio))
            .collect();
        for line in bar_chart(&data, 40).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Table V: batch failure frequencies.
pub fn render_table5(study: &FailureStudy<'_>) -> String {
    let batch = study.batch();
    let thresholds = batch.scaled_thresholds();
    let rows = batch.r_n(&thresholds);
    let mut out = format!(
        "Table V — batch failure frequency (thresholds {:?}, scaled from the paper's 100/200/500)\n",
        thresholds
    );
    let mut t = TextTable::new(vec![
        "Device",
        "rN1 %",
        "rN2 %",
        "rN3 %",
        "paper r100/r200/r500 %",
    ]);
    for row in &rows {
        let paper_row = paper::BATCH_FREQUENCIES
            .iter()
            .find(|(c, _, _, _)| *c == row.class);
        let paper_s = paper_row
            .map(|(_, a, b, c)| format!("{a:.1}/{b:.1}/{c:.1}"))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            row.class.name().into(),
            format!("{:.1}", 100.0 * row.r[0].1),
            format!("{:.1}", 100.0 * row.r[1].1),
            format!("{:.1}", 100.0 * row.r[2].1),
            paper_s,
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table VI: correlated component pairs.
pub fn render_table6(study: &FailureStudy<'_>) -> String {
    let c = study.correlation_section();
    let mut out = format!(
        "Table VI — correlated component failures\n  servers with same-day multi-component failures: {} ({} of ever-failed; paper: {})\n  incidents involving misc: {} (paper: {})\n",
        c.servers_with_pairs,
        pct(c.pair_server_share),
        pct(paper::correlation::PAIR_SERVER_SHARE),
        pct(c.misc_involved_share),
        pct(paper::correlation::MISC_INVOLVED_SHARE),
    );
    let mut t = TextTable::new(vec!["Pair", "Count"]);
    for p in c.pairs.iter().take(15) {
        t.row(vec![
            format!("{} + {}", p.a.name(), p.b.name()),
            p.count.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table VII: power → fan causal examples.
pub fn render_table7(study: &FailureStudy<'_>) -> String {
    let examples =
        study
            .correlation()
            .causal_examples(ComponentClass::Power, ComponentClass::Fan, 300, 5);
    let mut out = String::from("Table VII — correlated power/fan failures (within 5 minutes)\n");
    if examples.is_empty() {
        out.push_str("  (none found at this scale — the channel fires with probability ~1.5e-3 per PSU failure)\n");
        return out;
    }
    let mut t = TextTable::new(vec!["Server", "First", "Second"]);
    for e in &examples {
        t.row(vec![
            e.server.to_string(),
            format!("{} {} {}", e.first.0.name(), e.first.1, e.first.2),
            format!("{} {} {}", e.second.0.name(), e.second.1, e.second.2),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table VIII: synchronously repeating server groups.
pub fn render_table8(study: &FailureStudy<'_>) -> String {
    let groups = study.correlation().synchronous_groups(60, 3, 6);
    let mut out = String::from("Table VIII — synchronously repeating failures\n");
    if groups.is_empty() {
        out.push_str("  (no synchronous groups found)\n");
        return out;
    }
    for g in groups.iter().take(3) {
        out.push_str(&format!(
            "  servers {} and {}: {} synchronized occurrences\n",
            g.servers[0],
            g.servers[1],
            g.occurrences.len()
        ));
        for t in g.occurrences.iter().take(6) {
            out.push_str(&format!("    {t}\n"));
        }
    }
    out
}

/// Figure 9: RT CDF for `D_fixing` and `D_falsealarm`.
pub fn render_fig9(study: &FailureStudy<'_>) -> String {
    let section = study.response_section();
    let mut out = String::from("Figure 9 — operator response time\n");
    let mut t = TextTable::new(vec![
        "Category",
        "n",
        "MTTR",
        "Median",
        ">140d",
        ">200d",
        "Paper MTTR/median",
    ]);
    for (cat, rts, p_mean, p_median) in [
        (
            FotCategory::Fixing,
            &section.fixing,
            paper::response::FIXING_MEAN_DAYS,
            paper::response::FIXING_MEDIAN_DAYS,
        ),
        (
            FotCategory::FalseAlarm,
            &section.false_alarm,
            paper::response::FALSE_ALARM_MEAN_DAYS,
            paper::response::FALSE_ALARM_MEDIAN_DAYS,
        ),
    ] {
        if let Some(s) = rts.as_ref().map(RtStats::of) {
            t.row(vec![
                cat.name().into(),
                s.n.to_string(),
                days(s.mean_days),
                days(s.median_days),
                pct(s.over_140d),
                pct(s.over_200d),
                format!("{p_mean:.1}/{p_median:.1} d"),
            ]);
        }
    }
    out.push_str(&t.render());
    let cdf = |rts: &Option<dcf_stats::Ecdf>| {
        rts.as_ref()
            .map(|e| e.sampled_points(60))
            .unwrap_or_default()
    };
    let (fixing, fa) = (cdf(&section.fixing), cdf(&section.false_alarm));
    out.push_str("\n  CDF of RT in days (log x):\n");
    out.push_str(&cdf_plot(
        &[("D_fixing", &fixing), ("D_falsealarm", &fa)],
        60,
        12,
        true,
    ));
    out
}

/// Figure 10: RT per component class.
pub fn render_fig10(study: &FailureStudy<'_>) -> String {
    let by_class = study.response().rt_by_class(20);
    let mut out = String::from("Figure 10 — response time by component class\n");
    let mut t = TextTable::new(vec!["Class", "n", "Median", "Mean", "p90"]);
    let mut rows = by_class;
    rows.sort_by(|a, b| {
        a.1.median_days
            .partial_cmp(&b.1.median_days)
            .expect("finite")
    });
    for (class, s) in &rows {
        t.row(vec![
            class.name().into(),
            s.n.to_string(),
            days(s.median_days),
            days(s.mean_days),
            days(s.p90_days),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("  (paper: SSD and misc close within hours; HDD/fan/memory take 7-18 days)\n");
    out
}

/// Figure 11: per-product-line HDD failure count vs median RT.
pub fn render_fig11(study: &FailureStudy<'_>) -> String {
    let resp = study.response();
    let points = resp.rt_by_product_line_hdd(5);
    let mut out = String::from("Figure 11 — median RT vs HDD failures per product line\n");
    if points.is_empty() {
        out.push_str("  (no product lines with enough HDD responses)\n");
        return out;
    }
    // Scale the paper's <100-failure cutoff with fleet size.
    let cutoff = ((100.0 * study.trace().servers().len() as f64 / 160_000.0) as usize).max(5);
    if let Some(s) = resp.line_rt_summary(&points, cutoff) {
        let mut t = TextTable::new(vec!["Metric", "Measured", "Paper"]);
        t.row(vec![
            "top-1% lines median RT".into(),
            days(s.top1pct_median_days),
            days(paper::response::TOP_LINES_MEDIAN_DAYS),
        ]);
        t.row(vec![
            format!("small lines (<{cutoff} failures) with median > 100 d"),
            pct(s.small_line_over_100d_share),
            pct(paper::response::SMALL_LINE_OVER_100D_SHARE),
        ]);
        t.row(vec![
            "std dev of line medians".into(),
            days(s.std_dev_days),
            days(paper::response::LINE_STD_DEV_DAYS),
        ]);
        out.push_str(&t.render());
    }
    out.push_str("\n  Scatter (x: HDD failures, log; y: median RT days / 200, capped):\n");
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.hdd_failures as f64, (p.median_rt_days / 200.0).min(1.0)))
        .collect();
    out.push_str(&cdf_plot(&[("lines", &pts)], 60, 12, true));
    out
}

/// §VII-A extension: the warning→failure predictor evaluation.
pub fn render_prediction(study: &FailureStudy<'_>) -> String {
    let mut out = String::from("Extension (paper §VII-A) — warning-based failure prediction\n");
    let mut t = TextTable::new(vec![
        "Horizon",
        "Warnings",
        "Precision",
        "Recall",
        "F1",
        "Median lead",
    ]);
    for eval in study.prediction().sweep(&[1, 3, 7, 14, 30], None) {
        t.row(vec![
            format!("{} d", eval.horizon_days),
            eval.warnings.to_string(),
            pct(eval.precision),
            pct(eval.recall),
            format!("{:.3}", eval.f1()),
            eval.median_lead_days
                .map(|d| format!("{d:.1} d"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("  (the paper: the FMS team predicts failures 'a couple of days early')\n");
    out
}

/// §VII-A extension: the open-ticket backlog and degraded fleet.
pub fn render_backlog(study: &FailureStudy<'_>) -> String {
    let backlog = study.backlog();
    let s = backlog.summary();
    let mut out = String::from("Extension (paper §VII-A) — repair backlog and degraded capacity\n");
    out.push_str(&format!(
        "  mean open D_fixing tickets : {:.0} ({:.2} per 1k servers)\n",
        s.mean_open, s.mean_open_per_1k_servers
    ));
    out.push_str(&format!(
        "  peak open tickets          : {} (day d{})\n",
        s.peak_open, s.peak_day
    ));
    out.push_str(&format!(
        "  degraded fleet at window end (servers with unrepaired D_error failures): {}\n",
        pct(s.degraded_share_at_end)
    ));
    let timeline = backlog.open_timeline(None);
    let max = timeline.iter().map(|p| p.count).max().unwrap_or(1).max(1) as f64;
    let pts: Vec<(f64, f64)> = timeline
        .iter()
        .step_by((timeline.len() / 60).max(1))
        .map(|p| (p.day as f64, p.count as f64 / max))
        .collect();
    out.push_str("  Open tickets over time (y normalized to peak):\n");
    out.push_str(&cdf_plot(&[("open", &pts)], 60, 10, false));
    out
}

/// One paper artifact: the `--experiment` IDs that name it and its
/// renderer.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The IDs that select it (Table IV and Fig. 8 share one renderer).
    pub ids: &'static [&'static str],
    /// Renders it from the study.
    pub render: fn(&FailureStudy<'_>) -> String,
}

impl Experiment {
    const fn new(ids: &'static [&'static str], render: fn(&FailureStudy<'_>) -> String) -> Self {
        Self { ids, render }
    }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new(&["table1"], render_table1),
    Experiment::new(&["table2"], render_table2),
    Experiment::new(&["table3"], |_| render_table3()),
    Experiment::new(&["fig2"], render_fig2),
    Experiment::new(&["fig3"], render_fig3),
    Experiment::new(&["fig4"], render_fig4),
    Experiment::new(&["fig5"], render_fig5),
    Experiment::new(&["fig6"], render_fig6),
    Experiment::new(&["fig7"], render_fig7),
    Experiment::new(&["table4", "fig8"], render_table4_fig8),
    Experiment::new(&["table5"], render_table5),
    Experiment::new(&["table6"], render_table6),
    Experiment::new(&["table7"], render_table7),
    Experiment::new(&["table8"], render_table8),
    Experiment::new(&["fig9"], render_fig9),
    Experiment::new(&["fig10"], render_fig10),
    Experiment::new(&["fig11"], render_fig11),
    Experiment::new(&["prediction"], render_prediction),
    Experiment::new(&["backlog"], render_backlog),
];

/// The experiment that `id` names, if any.
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.ids.contains(&id))
}

/// The experiments whose renderers run their own kernel (not a kept
/// section value), longest first at paper scale: they start first so the
/// short renderers fill in around them.
const LONGEST_FIRST: [&str; 5] = ["prediction", "table8", "fig6", "fig10", "fig11"];

/// Renders every experiment and joins the texts in paper order.
///
/// The renderers run on [`FailureStudy::workers`] threads (the worker
/// count of the study's `analyze` call, or one) through
/// [`dcf_core::schedule`], the longest kernels first. Each text lands in
/// its paper-order slot, so the result is the same at any worker count.
pub fn render_all(study: &FailureStudy<'_>) -> String {
    let longest = LONGEST_FIRST.map(|id| {
        EXPERIMENTS
            .iter()
            .position(|e| e.ids.contains(&id))
            .expect("a listed experiment exists")
    });
    let order: Vec<usize> = longest
        .iter()
        .copied()
        .chain((0..EXPERIMENTS.len()).filter(|i| !longest.contains(i)))
        .collect();
    let texts: Vec<OnceLock<String>> = EXPERIMENTS.iter().map(|_| OnceLock::new()).collect();
    dcf_core::schedule(study.workers(), order.len(), |slot| {
        let i = order[slot];
        let _ = texts[i].set((EXPERIMENTS[i].render)(study));
    });
    texts
        .into_iter()
        .map(|text| text.into_inner().expect("every renderer ran"))
        .collect::<Vec<_>>()
        .join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> &'static dcf_trace::Trace {
        static T: OnceLock<dcf_trace::Trace> = OnceLock::new();
        T.get_or_init(|| {
            dcf_sim::Scenario::small()
                .seed(0xDCF)
                .simulate(&dcf_sim::RunOptions::default())
                .unwrap()
        })
    }

    #[test]
    fn every_renderer_produces_output() {
        let study = FailureStudy::new(trace());
        for e in EXPERIMENTS {
            let text = (e.render)(&study);
            assert!(text.lines().count() >= 2, "{:?} too short:\n{text}", e.ids);
        }
    }

    #[test]
    fn every_id_names_one_experiment() {
        let ids: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.ids.iter().copied())
            .collect();
        for id in &ids {
            assert_eq!(ids.iter().filter(|other| *other == id).count(), 1, "{id}");
            assert!(by_id(id).is_some_and(|e| e.ids.contains(id)));
        }
        assert!(by_id("all").is_none() && by_id("none").is_none());
        assert!(std::ptr::eq(
            by_id("table4").unwrap(),
            by_id("fig8").unwrap()
        ));
    }

    #[test]
    fn table1_mentions_all_categories_and_paper_values() {
        let study = FailureStudy::new(trace());
        let s = render_table1(&study);
        assert!(s.contains("D_fixing") && s.contains("D_error") && s.contains("D_falsealarm"));
        assert!(s.contains("70.30 %")); // paper reference column
    }

    #[test]
    fn render_all_concatenates_everything() {
        let study = FailureStudy::new(trace());
        let s = render_all(&study);
        assert!(s.contains("Table I"));
        assert!(s.contains("Figure 11"));
        assert!(s.contains("Table VIII"));
    }
}
