//! Markdown rendering of `dcf-obs` run reports (phase timings + counters).

use dcf_obs::RunReport;

use crate::table::TextTable;

/// Renders a [`RunReport`] as a markdown fragment: the hierarchical phase
/// log (children indented under their parent, in opening order), the
/// folded totals of spans past the log's cap, then the counter and gauge
/// tables.
///
/// Counter values are deterministic in the simulation seed; the timing
/// column is wall-clock and varies run to run.
///
/// # Examples
///
/// ```
/// use dcf_obs::MetricsRegistry;
/// use dcf_report::run_report_markdown;
///
/// let registry = MetricsRegistry::new();
/// {
///     let _run = registry.phase("run");
///     registry.add("sim.tickets.total", 123);
/// }
/// let md = run_report_markdown(&registry.report("demo"));
/// assert!(md.contains("| run |"));
/// assert!(md.contains("| sim.tickets.total | 123 |"));
/// ```
pub fn run_report_markdown(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("## Run metrics — {}\n", report.label));

    if !report.phases.is_empty() {
        out.push_str("\n### Phases\n\n");
        let mut t = TextTable::new(vec!["Phase", "Duration"]);
        for phase in &report.phases {
            // Markdown trims leading cell whitespace, so indent with a
            // visible marker.
            let indent = "· ".repeat(phase.depth as usize);
            t.row(vec![
                format!("{indent}{}", phase.name),
                format!("{:.1} ms", phase.duration_ms()),
            ]);
        }
        out.push_str(&t.render_markdown());
    }

    if !report.folded.is_empty() {
        out.push_str("\n### Folded phases\n\n");
        let mut t = TextTable::new(vec!["Phase", "Count", "Total", "Max"]);
        for f in &report.folded {
            t.row(vec![
                f.name.clone(),
                f.count.to_string(),
                format!("{:.1} ms", f.total_us as f64 / 1e3),
                format!("{:.1} ms", f.max_us as f64 / 1e3),
            ]);
        }
        out.push_str(&t.render_markdown());
    }

    if !report.counters.is_empty() {
        out.push_str("\n### Counters\n\n");
        let mut t = TextTable::new(vec!["Counter", "Value"]);
        for (name, value) in &report.counters {
            t.row(vec![name.clone(), value.to_string()]);
        }
        out.push_str(&t.render_markdown());
    }

    if !report.gauges.is_empty() {
        out.push_str("\n### Gauges\n\n");
        let mut t = TextTable::new(vec!["Gauge", "Value"]);
        for (name, value) in &report.gauges {
            t.row(vec![name.clone(), format!("{value}")]);
        }
        out.push_str(&t.render_markdown());
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_sections_with_nesting_markers() {
        let registry = dcf_obs::MetricsRegistry::new();
        {
            let _outer = registry.phase("engine.global");
            let _inner = registry.phase("engine.global.batch");
        }
        registry.add("sim.tickets.total", 42);
        registry.set_gauge("trace.fots", 42.0);
        let mut report = registry.report("test-run");
        report.folded.push(dcf_obs::FoldedPhase {
            name: "serve.request".into(),
            count: 9,
            total_us: 4_500,
            max_us: 2_000,
        });
        let md = run_report_markdown(&report);
        assert!(md.contains("## Run metrics — test-run"));
        assert!(md.contains("| engine.global |"));
        assert!(md.contains("| · engine.global.batch |"));
        assert!(md.contains("| serve.request | 9 | 4.5 ms | 2.0 ms |"));
        assert!(md.contains("| sim.tickets.total | 42 |"));
        assert!(md.contains("| trace.fots | 42 |"));
    }

    #[test]
    fn empty_report_renders_just_the_header() {
        let report = dcf_obs::RunReport {
            label: "empty".into(),
            phases: Vec::new(),
            folded: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
        };
        let md = run_report_markdown(&report);
        assert_eq!(md, "## Run metrics — empty\n");
    }
}
