//! The [`FailureStudy`] facade: one entry point running every §II–§VI
//! analysis, plus a serializable [`StudyReport`] with the headline metrics.
//!
//! The report runs on top of the shared [`dcf_trace::TraceIndex`] (built
//! once, up front, under the `study.index` span) and schedules its six
//! independent sections over a small scoped thread pool — see
//! [`StudyOptions`] for the `threads` knob and the determinism contract.
//! The study keeps each section's values, so the renderers that run after
//! `analyze` read them instead of computing them again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dcf_obs::MetricsRegistry;
use dcf_stats::Ecdf;
use dcf_trace::{ComponentClass, FotCategory, Trace};

use crate::batch::Batch;
use crate::correlation::{CorrelatedComponents, Correlation};
use crate::lifecycle::Lifecycle;
use crate::overview::{CategoryBreakdown, ComponentShare, Overview};
use crate::response::{Response, RtStats};
use crate::skew::{ConcentrationResult, RepeatStats, Skew};
use crate::spatial::{DcSpatialResult, Spatial, TableIv};
use crate::temporal::{DayOfWeekResult, HourOfDayResult, TbfResult, Temporal};

/// One study over one trace; hands out the section analyses and keeps
/// the values the report reads.
///
/// The six report sections (see [`FailureStudy::analyze`]) are computed
/// at most once per study: `analyze` fills one cell per section, and the
/// section accessors ([`FailureStudy::temporal_section`], …) read the cell,
/// computing it on first use if `analyze` has not run. The renderers read
/// these cells, so a report rendered after `analyze` repeats none of its
/// work. The section analyses themselves ([`FailureStudy::temporal`], …)
/// stay uncached: each call recomputes.
///
/// # Examples
///
/// ```
/// use dcf_core::FailureStudy;
/// use dcf_sim::{RunOptions, Scenario};
///
/// let trace = Scenario::small().seed(1).simulate(&RunOptions::default()).unwrap();
/// let study = FailureStudy::new(&trace);
/// let breakdown = study.overview().category_breakdown();
/// assert!(breakdown.fixing_share > 0.5);
/// let tbf = study.temporal().tbf_all().unwrap();
/// assert_eq!(tbf.fits.len(), 4); // exp / Weibull / gamma / lognormal
/// // The kept section value is the same fit.
/// assert_eq!(study.temporal_section().tbf.as_ref(), Some(&tbf));
/// ```
#[derive(Debug, Clone)]
pub struct FailureStudy<'a> {
    trace: &'a Trace,
    overview: OnceLock<OverviewSection>,
    temporal: OnceLock<TemporalSection>,
    skew: OnceLock<SkewSection>,
    spatial: OnceLock<SpatialSection>,
    correlation: OnceLock<CorrelatedComponents>,
    response: OnceLock<ResponseSection>,
    /// `options.threads` of the first `analyze` call.
    workers: OnceLock<usize>,
}

impl<'a> FailureStudy<'a> {
    /// Creates a study over a trace.
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            trace,
            overview: OnceLock::new(),
            temporal: OnceLock::new(),
            skew: OnceLock::new(),
            spatial: OnceLock::new(),
            correlation: OnceLock::new(),
            response: OnceLock::new(),
            workers: OnceLock::new(),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// §II overview (Tables I–III, Figure 2).
    pub fn overview(&self) -> Overview<'a> {
        Overview::new(self.trace)
    }

    /// §III-A/B temporal analyses (Figures 3–5, Hypotheses 1–4).
    pub fn temporal(&self) -> Temporal<'a> {
        Temporal::new(self.trace)
    }

    /// §III-C lifecycle analysis (Figure 6).
    pub fn lifecycle(&self) -> Lifecycle<'a> {
        Lifecycle::new(self.trace)
    }

    /// §III-D skew and repeats (Figure 7).
    pub fn skew(&self) -> Skew<'a> {
        Skew::new(self.trace)
    }

    /// §IV spatial analysis (Table IV, Figure 8, Hypothesis 5).
    pub fn spatial(&self) -> Spatial<'a> {
        Spatial::new(self.trace)
    }

    /// §V-A batch analysis (Table V).
    pub fn batch(&self) -> Batch<'a> {
        Batch::new(self.trace)
    }

    /// §V-B/C correlation mining (Tables VI–VIII).
    pub fn correlation(&self) -> Correlation<'a> {
        Correlation::new(self.trace)
    }

    /// §VI operator-response analysis (Figures 9–11).
    pub fn response(&self) -> Response<'a> {
        Response::new(self.trace)
    }

    /// §VII-A warning→failure prediction evaluation.
    pub fn prediction(&self) -> crate::prediction::Prediction<'a> {
        crate::prediction::Prediction::new(self.trace)
    }

    /// §VII-B FOT context miner (builds a per-day index; keep and reuse).
    pub fn miner(&self) -> crate::mining::FotMiner<'a> {
        crate::mining::FotMiner::new(self.trace)
    }

    /// §VII-A open-ticket backlog / degraded-capacity accounting.
    pub fn backlog(&self) -> crate::backlog::Backlog<'a> {
        crate::backlog::Backlog::new(self.trace)
    }

    /// The kept §II overview section (Tables I–II).
    pub fn overview_section(&self) -> &OverviewSection {
        self.overview.get_or_init(|| {
            let overview = self.overview();
            OverviewSection {
                categories: overview.category_breakdown(),
                components: overview.component_breakdown(),
            }
        })
    }

    /// The kept §III-A/B temporal section over all failures: one fused
    /// pass (identical results; see [`Temporal::fused`]).
    pub fn temporal_section(&self) -> &TemporalSection {
        self.temporal.get_or_init(|| {
            let (dow, hod, tbf) = self.temporal().fused_with_ecdf(None);
            let (tbf, tbf_ecdf) = tbf.ok().unzip();
            TemporalSection {
                tbf,
                tbf_ecdf,
                dow: dow.ok(),
                hod: hod.ok(),
            }
        })
    }

    /// The kept §III-D skew section (Figure 7).
    pub fn skew_section(&self) -> &SkewSection {
        self.skew.get_or_init(|| {
            let skew = self.skew();
            SkewSection {
                concentration: skew.concentration(),
                repeats: skew.repeats(),
            }
        })
    }

    /// The kept §IV spatial section: Hypothesis 5 per data center with at
    /// least 200 failures tested (Table IV, Figure 8).
    pub fn spatial_section(&self) -> &SpatialSection {
        self.spatial.get_or_init(|| {
            let spatial = self.spatial();
            let by_data_center = spatial.by_data_center(200);
            SpatialSection {
                table_iv: spatial.table_iv(&by_data_center),
                by_data_center,
            }
        })
    }

    /// The kept §V-B correlation section (Table VI).
    pub fn correlation_section(&self) -> &CorrelatedComponents {
        self.correlation
            .get_or_init(|| self.correlation().component_pairs())
    }

    /// The kept §VI response section (Figure 9).
    pub fn response_section(&self) -> &ResponseSection {
        self.response.get_or_init(|| {
            let response = self.response();
            ResponseSection {
                fixing: response.rt_ecdf(FotCategory::Fixing).ok(),
                false_alarm: response.rt_ecdf(FotCategory::FalseAlarm).ok(),
            }
        })
    }

    /// Runs every section and collects the headline metrics under
    /// `options`: `options.threads` schedules the six independent sections
    /// over a `std::thread::scope`, and `options.metrics` records one detached
    /// `study.<section>` span per section (plus `study.index` and
    /// `trace.build_columns` for the up-front index/column builds and
    /// `study.sections` for the scheduler's wall time) along with a
    /// `study.fots.analyzed` counter.
    ///
    /// Each section fills its kept cell, so the report is assembled from
    /// the same values the section accessors hand the renderers; sections
    /// already computed on this study are not computed again.
    ///
    /// The report is byte-identical for every thread count and metrics
    /// setting — see [`StudyOptions`].
    pub fn analyze(&self, options: &StudyOptions) -> StudyReport {
        let metrics = &options.metrics;
        metrics.add("study.fots.analyzed", self.trace.len() as u64);
        {
            // Build the shared index and columns before any section starts,
            // so section spans measure analysis work instead of racing to
            // initialize the caches.
            let _span = metrics.phase("study.index");
            let _ = self.trace.index();
        }
        {
            let _span = metrics.phase("trace.build_columns");
            let _ = self.trace.columns();
        }
        let _ = self.workers.set(options.threads.max(1));
        let workers = options.threads.clamp(1, SECTION_NAMES.len());
        metrics.set_gauge("study.threads", workers as f64);

        let sections_span = metrics.phase("study.sections");
        // Which worker runs which section is racy; the values are not —
        // every section is a pure function of the (shared, read-only)
        // trace, and the report below reads the cells in fixed order.
        schedule(workers, SECTION_COUNT, |section| {
            let _span = metrics.worker_phase(SECTION_NAMES[section]);
            self.fill_section(section);
        });
        drop(sections_span);
        self.assemble()
    }

    /// The worker count of this study's first [`FailureStudy::analyze`]
    /// call (its `options.threads`, at least 1), or 1 if none ran: the
    /// renderers run on as many workers as the analysis did.
    pub fn workers(&self) -> usize {
        self.workers.get().copied().unwrap_or(1)
    }

    /// Fills one section's cell by scheduler slot (see [`SECTION_NAMES`]
    /// order).
    fn fill_section(&self, section: usize) {
        match section {
            0 => _ = self.overview_section(),
            1 => _ = self.temporal_section(),
            2 => _ = self.skew_section(),
            3 => _ = self.spatial_section(),
            4 => _ = self.correlation_section(),
            5 => _ = self.response_section(),
            _ => unreachable!("unknown study section {section}"),
        }
    }

    /// Collects the headline metrics from the section cells.
    fn assemble(&self) -> StudyReport {
        let OverviewSection {
            categories,
            components,
        } = self.overview_section();
        let temporal = self.temporal_section();
        let tbf = temporal.tbf.as_ref();
        let SkewSection {
            concentration,
            repeats,
        } = self.skew_section();
        let correlation = self.correlation_section();
        let response = self.response_section();

        StudyReport {
            total_fots: self.trace.len(),
            total_failures: self.trace.index().failure_count(),
            fixing_share: categories.fixing_share,
            error_share: categories.error_share,
            false_alarm_share: categories.false_alarm_share,
            component_shares: components.iter().map(|c| (c.class, c.share)).collect(),
            hdd_share: components
                .iter()
                .find(|c| c.class == ComponentClass::Hdd)
                .map(|c| c.share)
                .unwrap_or(0.0),
            mtbf_minutes: tbf.map(|t| t.mtbf_minutes),
            tbf_all_families_rejected: tbf.map(|t| t.all_rejected_at_005),
            day_of_week_rejected_001: temporal.dow.as_ref().map(|d| d.uniformity.rejects_at(0.01)),
            hour_of_day_rejected_001: temporal.hod.as_ref().map(|h| h.uniformity.rejects_at(0.01)),
            servers_ever_failed: concentration.servers_ever_failed,
            max_fots_one_server: concentration.max_on_one_server,
            top_2pct_failure_share: concentration.top_share(0.02),
            never_repeat_share: repeats.never_repeat_share,
            repeat_server_share: repeats.repeat_server_share,
            table_iv: self.spatial_section().table_iv,
            pair_server_share: correlation.pair_server_share,
            misc_involved_share: correlation.misc_involved_share,
            rt_fixing: response.fixing.as_ref().map(RtStats::of),
            rt_false_alarm: response.false_alarm.as_ref().map(RtStats::of),
        }
    }
}

/// Runs `job(0)`, …, `job(jobs - 1)` on up to `workers` threads, the
/// calling thread one of them: each worker claims the next unclaimed job
/// from a shared cursor until none is left, so jobs start in index order
/// and a long job listed first overlaps the short ones after it. One
/// worker (or one job) runs them in order on the calling thread. The
/// scheduler of [`FailureStudy::analyze`]'s sections and of the report
/// renderers.
pub fn schedule(workers: usize, jobs: usize, job: impl Fn(usize) + Sync) {
    let workers = workers.clamp(1, jobs.max(1));
    if workers == 1 {
        (0..jobs).for_each(job);
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || loop {
        let claimed = next.fetch_add(1, Ordering::Relaxed);
        if claimed >= jobs {
            break;
        }
        job(claimed);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Number of independently schedulable report sections.
const SECTION_COUNT: usize = 6;

/// Span names of the report sections, in scheduler slot order (also the
/// serial execution order).
const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "study.overview",
    "study.temporal",
    "study.skew",
    "study.spatial",
    "study.correlation",
    "study.response",
];

/// The §II overview values a study keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct OverviewSection {
    /// Table I shares.
    pub categories: CategoryBreakdown,
    /// Table II shares.
    pub components: Vec<ComponentShare>,
}

/// The §III-A/B temporal values a study keeps, over all failures.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSection {
    /// Figure 5 / Hypotheses 3–4 (`None` with too few failures).
    pub tbf: Option<TbfResult>,
    /// The sorted TBF gaps `tbf` was tested against (Figure 5's ECDF).
    pub tbf_ecdf: Option<Ecdf>,
    /// Figure 3 / Hypothesis 1.
    pub dow: Option<DayOfWeekResult>,
    /// Figure 4 / Hypothesis 2.
    pub hod: Option<HourOfDayResult>,
}

/// The §III-D skew values a study keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSection {
    /// Figure 7 concentration curve.
    pub concentration: ConcentrationResult,
    /// Repeat-failure shares.
    pub repeats: RepeatStats,
}

/// The §IV spatial values a study keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialSection {
    /// Hypothesis 5 per data center (Figure 8 plots the first two).
    pub by_data_center: Vec<DcSpatialResult>,
    /// Table IV buckets over `by_data_center`.
    pub table_iv: TableIv,
}

/// The §VI response values a study keeps: the sorted RTs per category,
/// from which Figure 9's statistics ([`RtStats::of`]) and CDFs come.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSection {
    /// RTs of `D_fixing` (`None` without responded tickets).
    pub fixing: Option<Ecdf>,
    /// RTs of `D_falsealarm` (`None` without responded tickets).
    pub false_alarm: Option<Ecdf>,
}

/// Execution options for [`FailureStudy::analyze`].
///
/// # Determinism
///
/// Neither knob affects the report. `threads` changes wall-clock behavior
/// only: every section is a pure, RNG-free function of the trace, all
/// shared state is read-only (the [`dcf_trace::TraceIndex`] and
/// [`dcf_trace::FotColumns`] are built before the pool starts), and section
/// outputs are merged in fixed slot order — so the resulting
/// [`StudyReport`] is identical (down to its `Debug` form) for every thread
/// count. `tests/index_parallel.rs` asserts exactly this, and
/// `tests/study_oracle.rs` checks each section's kernels against a plain
/// scan of the tickets. `metrics` records timings and counters without
/// touching the analysis itself.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Worker threads for the section scheduler. `1` (the default) runs
    /// the sections serially on the calling thread; larger values are
    /// capped at the number of sections.
    pub threads: usize,
    /// Metrics sink for section spans and counters. The default
    /// (disabled) registry records nothing at near-zero cost.
    pub metrics: MetricsRegistry,
}

impl Default for StudyOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            metrics: MetricsRegistry::disabled(),
        }
    }
}

impl StudyOptions {
    /// Options running the sections on `threads` workers (`0` and `1`
    /// both mean serial), uninstrumented.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Attaches a metrics registry (cloned; clones share the same state).
    pub fn metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = metrics.clone();
        self
    }
}

/// Headline metrics of a full study — serializable, and the backbone of
/// EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// Total tickets.
    pub total_fots: usize,
    /// Total failures (`D_fixing` + `D_error`).
    pub total_failures: usize,
    /// Table I shares.
    pub fixing_share: f64,
    /// Table I shares.
    pub error_share: f64,
    /// Table I shares.
    pub false_alarm_share: f64,
    /// Table II shares, largest class first.
    pub component_shares: Vec<(ComponentClass, f64)>,
    /// HDD share of failures.
    pub hdd_share: f64,
    /// Fleet MTBF in minutes (`None` if too few failures).
    pub mtbf_minutes: Option<f64>,
    /// Hypothesis 3 outcome: all four TBF families rejected at 0.05.
    pub tbf_all_families_rejected: Option<bool>,
    /// Hypothesis 1 outcome at 0.01.
    pub day_of_week_rejected_001: Option<bool>,
    /// Hypothesis 2 outcome at 0.01.
    pub hour_of_day_rejected_001: Option<bool>,
    /// Servers with ≥ 1 failure.
    pub servers_ever_failed: usize,
    /// Max FOTs on one server.
    pub max_fots_one_server: u32,
    /// Failure share of the top 2% of ever-failed servers (Figure 7).
    pub top_2pct_failure_share: f64,
    /// Share of fixed components that never repeat.
    pub never_repeat_share: f64,
    /// Share of ever-failed servers with repeats.
    pub repeat_server_share: f64,
    /// Table IV buckets.
    pub table_iv: TableIv,
    /// Share of ever-failed servers with correlated multi-component days.
    pub pair_server_share: f64,
    /// Share of correlated incidents involving misc.
    pub misc_involved_share: f64,
    /// Figure 9 stats for `D_fixing`.
    pub rt_fixing: Option<RtStats>,
    /// Figure 9 stats for `D_falsealarm`.
    pub rt_false_alarm: Option<RtStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::synthetic_trace;

    #[test]
    fn report_runs_end_to_end_on_small_trace() {
        let trace = synthetic_trace();
        let report = FailureStudy::new(&trace).analyze(&StudyOptions::default());
        assert_eq!(report.total_fots, trace.len());
        assert!(report.total_failures <= report.total_fots);
        assert!(report.hdd_share > 0.5);
        assert_eq!(report.component_shares.len(), 11);
        assert!(report.mtbf_minutes.unwrap() > 0.0);
        // Hypothesis outcomes are computed (rejection itself needs the
        // medium/paper scale's power; see tests/calibration.rs).
        assert!(report.tbf_all_families_rejected.is_some());
        assert!(report.day_of_week_rejected_001.is_some());
        assert!(report.hour_of_day_rejected_001.is_some());
        assert!(report.servers_ever_failed > 0);
        assert!(report.rt_fixing.is_some());
    }

    #[test]
    fn instrumented_report_matches_plain_report() {
        let trace = synthetic_trace();
        let registry = MetricsRegistry::new();
        assert_eq!(
            FailureStudy::new(&trace).analyze(&StudyOptions::default()),
            FailureStudy::new(&trace).analyze(&StudyOptions::default().metrics(&registry))
        );
        assert_eq!(
            registry.counter_value("study.fots.analyzed"),
            Some(trace.len() as u64)
        );
        let report = registry.report("study");
        for phase in ["study.overview", "study.temporal", "study.response"] {
            assert!(report.phase_ms(phase).is_some(), "missing span {phase}");
        }
    }

    #[test]
    fn parallel_report_matches_serial_report() {
        let trace = synthetic_trace();
        let serial = FailureStudy::new(&trace).analyze(&StudyOptions::default());
        for threads in [2, 4, 64] {
            let registry = MetricsRegistry::new();
            let parallel = FailureStudy::new(&trace)
                .analyze(&StudyOptions::with_threads(threads).metrics(&registry));
            assert_eq!(parallel, serial, "threads={threads}");
            let report = registry.report("parallel");
            assert_eq!(
                report.gauge("study.threads"),
                Some(threads.min(super::SECTION_COUNT) as f64)
            );
            for name in super::SECTION_NAMES.iter().copied().chain([
                "study.index",
                "trace.build_columns",
                "study.sections",
            ]) {
                assert!(report.phase_ms(name).is_some(), "missing span {name}");
            }
        }
    }

    #[test]
    fn schedule_runs_every_job_once() {
        use std::sync::atomic::AtomicU32;
        for (workers, jobs) in [(1, 5), (2, 5), (3, 19), (8, 2), (4, 0)] {
            let runs: Vec<AtomicU32> = (0..jobs).map(|_| AtomicU32::new(0)).collect();
            super::schedule(workers, jobs, |job| {
                runs[job].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{workers} workers, {jobs} jobs"
            );
        }
    }

    #[test]
    fn analyze_keeps_the_values_the_section_analyses_compute() {
        let trace = synthetic_trace();
        let study = FailureStudy::new(&trace);
        let report = study.analyze(&StudyOptions::with_threads(3));
        // A second analyze reads the kept cells and agrees.
        assert_eq!(study.analyze(&StudyOptions::default()), report);
        let temporal = study.temporal();
        let kept = study.temporal_section();
        assert_eq!(kept.tbf, temporal.tbf_all().ok());
        assert_eq!(
            kept.tbf_ecdf.as_ref().map(|e| e.sampled_points(60)),
            temporal.tbf_ecdf(60).ok()
        );
        assert_eq!(kept.dow, temporal.day_of_week(None).ok());
        assert_eq!(kept.hod, temporal.hour_of_day(None).ok());
        let response = study.response();
        let kept = study.response_section();
        assert_eq!(
            kept.fixing.as_ref().map(RtStats::of),
            response.rt_of_category(FotCategory::Fixing).ok()
        );
        assert_eq!(
            kept.false_alarm.as_ref().map(|e| e.sampled_points(60)),
            response.rt_cdf(FotCategory::FalseAlarm, 60).ok()
        );
        let spatial = study.spatial();
        assert_eq!(
            study.spatial_section().by_data_center,
            spatial.by_data_center(200)
        );
        assert_eq!(
            study.correlation_section(),
            &study.correlation().component_pairs()
        );
        assert_eq!(
            study.skew_section().concentration,
            study.skew().concentration()
        );
    }
}
