//! §VI operator-response analysis: RT distributions overall (Figure 9),
//! per component class (Figure 10), and per product line (Figure 11).
//!
//! # Examples
//!
//! ```
//! use dcf_core::response::Response;
//! use dcf_trace::FotCategory;
//!
//! let trace = dcf_sim::Scenario::small().seed(1).simulate(&dcf_sim::RunOptions::default()).unwrap();
//! let rt = Response::new(&trace).rt_of_category(FotCategory::Fixing).unwrap();
//! assert!(rt.mean_days > rt.median_days); // heavy right tail
//! ```

use std::collections::BTreeMap;

use dcf_stats::{median, Ecdf, StatsError};
use dcf_trace::{ComponentClass, FotCategory, OperatorId, ProductLineId, Trace};

/// Summary of one response-time population (days).
#[derive(Debug, Clone, PartialEq)]
pub struct RtStats {
    /// Number of responded tickets.
    pub n: usize,
    /// Mean RT in days (the paper's MTTR view).
    pub mean_days: f64,
    /// Median RT in days.
    pub median_days: f64,
    /// 90th percentile in days.
    pub p90_days: f64,
    /// Fraction of tickets with RT > 140 days (paper: 10% overall).
    pub over_140d: f64,
    /// Fraction of tickets with RT > 200 days (paper: 2% overall).
    pub over_200d: f64,
}

impl RtStats {
    /// The summary of one sorted response-time population (days).
    pub fn of(e: &Ecdf) -> Self {
        Self {
            n: e.len(),
            mean_days: e.mean(),
            median_days: e.median(),
            p90_days: e.quantile(0.9),
            over_140d: e.tail_fraction(140.0),
            over_200d: e.tail_fraction(200.0),
        }
    }
}

/// A Figure 11 scatter point: one product line's HDD failures vs median RT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRtPoint {
    /// The product line.
    pub line: ProductLineId,
    /// Number of HDD failures with responses in the window.
    pub hdd_failures: usize,
    /// Median RT over those failures, days.
    pub median_rt_days: f64,
}

/// One operator's closing workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorLoad {
    /// The operator.
    pub operator: OperatorId,
    /// Tickets this operator closed.
    pub tickets: usize,
    /// Median response time over those tickets, days.
    pub median_rt_days: f64,
}

/// Figure 11's headline statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRtSummary {
    /// Median RT of the top-1% lines by failure count (paper: 47 days).
    pub top1pct_median_days: f64,
    /// Among lines with < 100 failures, share with median RT > 100 days
    /// (paper: 21%).
    pub small_line_over_100d_share: f64,
    /// Standard deviation of per-line median RT (paper: 30.2 days).
    pub std_dev_days: f64,
}

/// §VI analysis over one trace.
#[derive(Debug, Clone)]
pub struct Response<'a> {
    trace: &'a Trace,
}

impl<'a> Response<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    fn stats_from(rts_days: Vec<f64>) -> Result<RtStats, StatsError> {
        Ok(RtStats::of(&Ecdf::new(rts_days)?))
    }

    /// RT in days for every responded ticket of `category`.
    pub fn rts_of_category(&self, category: FotCategory) -> Vec<f64> {
        let cols = self.trace.columns();
        self.trace
            .index()
            .category_ids(category)
            .iter()
            .filter_map(|&p| cols.response_days(p as usize))
            .collect()
    }

    /// Figure 9: RT statistics for one category (`D_fixing` or
    /// `D_falsealarm`).
    ///
    /// # Errors
    ///
    /// Fails when the category has no responded tickets.
    pub fn rt_of_category(&self, category: FotCategory) -> Result<RtStats, StatsError> {
        Self::stats_from(self.rts_of_category(category))
    }

    /// The sorted RTs of one category, the population behind both
    /// [`Response::rt_of_category`] and [`Response::rt_cdf`].
    ///
    /// # Errors
    ///
    /// Fails when the category has no responded tickets.
    pub fn rt_ecdf(&self, category: FotCategory) -> Result<Ecdf, StatsError> {
        Ecdf::new(self.rts_of_category(category))
    }

    /// Figure 9's CDF series for a category, downsampled.
    ///
    /// # Errors
    ///
    /// Fails when the category has no responded tickets.
    pub fn rt_cdf(
        &self,
        category: FotCategory,
        max_points: usize,
    ) -> Result<Vec<(f64, f64)>, StatsError> {
        Ok(self.rt_ecdf(category)?.sampled_points(max_points))
    }

    /// Figure 10: RT statistics per component class over all responded
    /// tickets; classes without enough responses are omitted.
    ///
    /// One demultiplexing pass over the responded population splits RTs
    /// by class tag, keeping each class's RTs in ticket time order.
    pub fn rt_by_class(&self, min_n: usize) -> Vec<(ComponentClass, RtStats)> {
        let cols = self.trace.columns();
        let classes = cols.classes();
        let mut per_class = vec![Vec::new(); ComponentClass::ALL.len()];
        for &p in self.trace.index().responded_ids() {
            let i = p as usize;
            if let Some(rt) = cols.response_days(i) {
                per_class[classes[i] as usize].push(rt);
            }
        }
        ComponentClass::ALL
            .iter()
            .zip(per_class)
            .filter_map(|(&class, rts)| {
                if rts.len() < min_n {
                    return None;
                }
                Self::stats_from(rts).ok().map(|s| (class, s))
            })
            .collect()
    }

    /// Figure 11: per-line HDD failure count vs median RT, for lines with
    /// at least `min_failures` responded HDD tickets.
    ///
    /// Splits the responded HDD tickets' RTs by the product-line column
    /// into a table indexed by line id, so lines come out in id order and
    /// the output (including tie order after the sort below) is
    /// deterministic.
    pub fn rt_by_product_line_hdd(&self, min_failures: usize) -> Vec<LineRtPoint> {
        let cols = self.trace.columns();
        let lines = cols.product_lines();
        let mut per_line: Vec<Vec<f64>> = Vec::new();
        for (i, rt) in self.hdd_rts() {
            let line = lines[i] as usize;
            if per_line.len() <= line {
                per_line.resize(line + 1, Vec::new());
            }
            per_line[line].push(rt);
        }
        let mut points: Vec<LineRtPoint> = per_line
            .into_iter()
            .enumerate()
            .filter(|(_, rts)| !rts.is_empty() && rts.len() >= min_failures)
            .map(|(line, rts)| LineRtPoint {
                line: ProductLineId::new(line as u16),
                hdd_failures: rts.len(),
                median_rt_days: median(&rts).expect("non-empty by filter"),
            })
            .collect();
        points.sort_by_key(|p| std::cmp::Reverse(p.hdd_failures));
        points
    }

    /// `(row, RT in days)` of every responded HDD ticket, in time order.
    fn hdd_rts(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        let cols = self.trace.columns();
        let hdd = ComponentClass::Hdd.index() as u8;
        self.trace
            .index()
            .responded_ids()
            .iter()
            .map(|&p| p as usize)
            .filter(move |&i| cols.classes()[i] == hdd)
            .filter_map(move |i| cols.response_days(i).map(|rt| (i, rt)))
    }

    /// Per-operator workload: tickets closed and median RT for each
    /// operator id seen in the trace (operators handling at least `min_n`
    /// tickets), busiest first. §VI notes each product line has its own
    /// team; this view shows how unevenly the closing work lands.
    pub fn by_operator(&self, min_n: usize) -> Vec<OperatorLoad> {
        let mut per_op: BTreeMap<OperatorId, Vec<f64>> = BTreeMap::new();
        for fot in self.trace.responded() {
            if let (Some(resp), Some(rt)) = (fot.response, fot.response_time()) {
                per_op
                    .entry(resp.operator)
                    .or_default()
                    .push(rt.as_days_f64());
            }
        }
        let mut rows: Vec<OperatorLoad> = per_op
            .into_iter()
            .filter(|(_, rts)| rts.len() >= min_n)
            .map(|(operator, rts)| OperatorLoad {
                operator,
                tickets: rts.len(),
                median_rt_days: median(&rts).expect("non-empty by filter"),
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.tickets));
        rows
    }

    /// Figure 11's summary statistics over `points` (as returned by
    /// [`Response::rt_by_product_line_hdd`]). `small_line_cutoff` is the
    /// paper's "fewer than 100 failures" boundary, scaled by callers for
    /// smaller fleets.
    pub fn line_rt_summary(
        &self,
        points: &[LineRtPoint],
        small_line_cutoff: usize,
    ) -> Option<LineRtSummary> {
        if points.is_empty() {
            return None;
        }
        // Points arrive sorted by failure count descending. The paper's
        // "top 1% product lines have a median RT of 47 days" pools the
        // tickets of those lines, so weight each line by its volume.
        let top_k = (points.len() / 100).max(1);
        let mut is_top = vec![false; usize::from(u16::MAX) + 1];
        for p in &points[..top_k] {
            is_top[usize::from(p.line.raw())] = true;
        }
        let lines = self.trace.columns().product_lines();
        let pooled: Vec<f64> = self
            .hdd_rts()
            .filter(|&(i, _)| is_top[usize::from(lines[i])])
            .map(|(_, rt)| rt)
            .collect();
        let top1pct_median_days = median(&pooled)?;

        let small: Vec<&LineRtPoint> = points
            .iter()
            .filter(|p| p.hdd_failures < small_line_cutoff)
            .collect();
        let small_line_over_100d_share = if small.is_empty() {
            0.0
        } else {
            small.iter().filter(|p| p.median_rt_days > 100.0).count() as f64 / small.len() as f64
        };

        let medians: Vec<f64> = points.iter().map(|p| p.median_rt_days).collect();
        let mean = medians.iter().sum::<f64>() / medians.len() as f64;
        let var = medians.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / medians.len() as f64;

        Some(LineRtSummary {
            top1pct_median_days,
            small_line_over_100d_share,
            std_dev_days: var.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{medium_trace, synthetic_trace};

    #[test]
    fn rt_is_heavy_tailed_overall() {
        let trace = synthetic_trace();
        let r = Response::new(&trace)
            .rt_of_category(FotCategory::Fixing)
            .unwrap();
        assert!(r.n > 100);
        // Heavy tail: mean far above median (paper: 42.2 vs 6.1 days).
        assert!(
            r.mean_days > 2.0 * r.median_days,
            "mean {} median {}",
            r.mean_days,
            r.median_days
        );
        assert!(r.over_140d > 0.0, "some tickets stay open beyond 140 days");
        assert!(r.over_140d >= r.over_200d);
    }

    #[test]
    fn false_alarms_have_their_own_distribution() {
        let trace = medium_trace();
        let r = Response::new(&trace)
            .rt_of_category(FotCategory::FalseAlarm)
            .unwrap();
        assert!(r.n > 30);
        assert!(r.median_days > 0.0);
    }

    #[test]
    fn ssd_responses_are_fastest_hdd_among_slowest() {
        let trace = medium_trace();
        let by_class = Response::new(&trace).rt_by_class(30);
        let get = |c: ComponentClass| {
            by_class
                .iter()
                .find(|(class, _)| *class == c)
                .map(|(_, s)| s.median_days)
        };
        let hdd = get(ComponentClass::Hdd).expect("HDD has responses");
        if let Some(ssd) = get(ComponentClass::Ssd) {
            assert!(hdd > 5.0 * ssd, "hdd {hdd} vs ssd {ssd}");
        }
    }

    #[test]
    fn error_category_has_no_rts() {
        let trace = synthetic_trace();
        assert!(Response::new(&trace)
            .rts_of_category(FotCategory::Error)
            .is_empty());
    }

    #[test]
    fn line_scatter_and_summary_are_consistent() {
        let trace = medium_trace();
        let resp = Response::new(&trace);
        let points = resp.rt_by_product_line_hdd(5);
        assert!(
            points.len() >= 5,
            "lines with HDD responses: {}",
            points.len()
        );
        for w in points.windows(2) {
            assert!(w[0].hdd_failures >= w[1].hdd_failures);
        }
        let summary = resp.line_rt_summary(&points, 100).unwrap();
        assert!(summary.top1pct_median_days > 0.0);
        assert!(summary.std_dev_days >= 0.0);
        assert!((0.0..=1.0).contains(&summary.small_line_over_100d_share));
    }

    #[test]
    fn big_lines_are_slower_than_typical() {
        let trace = medium_trace();
        let resp = Response::new(&trace);
        let points = resp.rt_by_product_line_hdd(5);
        let summary = resp.line_rt_summary(&points, 100).unwrap();
        let all_medians: Vec<f64> = points.iter().map(|p| p.median_rt_days).collect();
        let overall = dcf_stats::median(&all_medians).unwrap();
        assert!(
            summary.top1pct_median_days > overall,
            "top-1% {} vs overall line median {}",
            summary.top1pct_median_days,
            overall
        );
    }

    #[test]
    fn operator_workload_partitions_responses() {
        let trace = medium_trace();
        let rows = Response::new(&trace).by_operator(1);
        let total: usize = rows.iter().map(|r| r.tickets).sum();
        let responded = trace.fots().iter().filter(|f| f.response.is_some()).count();
        assert_eq!(total, responded);
        for w in rows.windows(2) {
            assert!(w[0].tickets >= w[1].tickets);
        }
        // Work is uneven: the busiest operator handles far more than the
        // median operator (big lines concentrate tickets on small teams).
        let median_load = rows[rows.len() / 2].tickets;
        assert!(rows[0].tickets > 3 * median_load.max(1));
    }

    #[test]
    fn cdf_points_are_monotone() {
        let trace = synthetic_trace();
        let pts = Response::new(&trace)
            .rt_cdf(FotCategory::Fixing, 100)
            .unwrap();
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }
}
