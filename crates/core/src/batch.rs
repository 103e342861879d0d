//! §V-A batch-failure analysis: the `r_N` frequency metric (Table V) and
//! batch-day inspection.
//!
//! The paper defines `r_N = (Σ_k 1{n_k ≥ N}) / D`: the fraction of days in
//! the trace on which a component class logged at least `N` failures.
//!
//! # Examples
//!
//! ```
//! use dcf_core::batch::Batch;
//! use dcf_trace::ComponentClass;
//!
//! let trace = dcf_sim::Scenario::small().seed(1).simulate(&dcf_sim::RunOptions::default()).unwrap();
//! let batch = Batch::new(&trace);
//! let rows = batch.r_n(&batch.scaled_thresholds());
//! assert_eq!(rows[0].class, ComponentClass::Hdd);
//! assert!(rows[0].r[0].1 >= rows[0].r[2].1); // r_N decreases in N
//! ```

use dcf_trace::{ComponentClass, Trace};

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFrequencyRow {
    /// The component class.
    pub class: ComponentClass,
    /// `(threshold N, r_N)` for each requested threshold.
    pub r: Vec<(usize, f64)>,
}

/// A day that crossed a batch threshold, for drill-down (the §V-A cases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDay {
    /// Day index (absolute, since simulation origin).
    pub day: u64,
    /// Failures of the class on that day.
    pub count: usize,
}

/// §V-A analysis over one trace.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    trace: &'a Trace,
}

impl<'a> Batch<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Scales the paper's N = 100/200/500 thresholds to this trace's fleet
    /// size (the paper's are calibrated to ~160k servers), keeping at
    /// least N = 2/4/10 so small test fleets still produce a table.
    pub fn scaled_thresholds(&self) -> [usize; 3] {
        let scale = self.trace.servers().len() as f64 / 160_000.0;
        [
            ((100.0 * scale) as usize).max(2),
            ((200.0 * scale) as usize).max(4),
            ((500.0 * scale) as usize).max(10),
        ]
    }

    /// Daily failure counts of one class over the observation window.
    ///
    /// Walks only the class's bucket of the trace index, not every ticket,
    /// gathering straight from the error-day column.
    pub fn daily_counts(&self, class: ComponentClass) -> Vec<usize> {
        let start_day = self.trace.info().start.day_index();
        let days = self.trace.info().days as usize;
        let mut counts = vec![0usize; days];
        let day_col = self.trace.columns().error_days();
        for &p in self.trace.index().class_failure_ids(class) {
            // Failures outside the window count on no day.
            let Some(d) = (day_col[p as usize] as u64).checked_sub(start_day) else {
                continue;
            };
            if let Some(count) = counts.get_mut(d as usize) {
                *count += 1;
            }
        }
        counts
    }

    /// Table V: `r_N` per class for the given thresholds, classes in
    /// Table II order.
    pub fn r_n(&self, thresholds: &[usize]) -> Vec<BatchFrequencyRow> {
        let days = self.trace.info().days.max(1) as f64;
        ComponentClass::ALL
            .iter()
            .map(|&class| {
                let daily = self.daily_counts(class);
                let r = thresholds
                    .iter()
                    .map(|&n| {
                        let hit = daily.iter().filter(|&&c| c >= n).count();
                        (n, hit as f64 / days)
                    })
                    .collect();
                BatchFrequencyRow { class, r }
            })
            .collect()
    }

    /// Days on which `class` logged at least `threshold` failures,
    /// largest first — the §V-A case-study drill-down.
    pub fn batch_days(&self, class: ComponentClass, threshold: usize) -> Vec<BatchDay> {
        let start_day = self.trace.info().start.day_index();
        let mut days: Vec<BatchDay> = self
            .daily_counts(class)
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c >= threshold)
            .map(|(d, count)| BatchDay {
                day: start_day + d as u64,
                count,
            })
            .collect();
        days.sort_by_key(|d| std::cmp::Reverse(d.count));
        days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::synthetic_trace;

    #[test]
    fn daily_counts_cover_the_window_and_sum_to_failures() {
        let trace = synthetic_trace();
        let b = Batch::new(&trace);
        let daily = b.daily_counts(ComponentClass::Hdd);
        assert_eq!(daily.len(), trace.info().days as usize);
        let total: usize = daily.iter().sum();
        assert_eq!(total, trace.failures_of(ComponentClass::Hdd).count());
    }

    #[test]
    fn r_n_is_monotone_in_threshold_and_hdd_leads() {
        let trace = synthetic_trace();
        let b = Batch::new(&trace);
        let thresholds = b.scaled_thresholds();
        let rows = b.r_n(&thresholds);
        assert_eq!(rows.len(), 11);
        for row in &rows {
            for w in row.r.windows(2) {
                assert!(w[0].1 >= w[1].1, "{:?}", row);
            }
        }
        let hdd = &rows[0];
        assert_eq!(hdd.class, ComponentClass::Hdd);
        // HDD has by far the most batch days.
        let hdd_r0 = hdd.r[0].1;
        assert!(hdd_r0 > 0.0);
        for row in rows.iter().skip(2) {
            assert!(row.r[0].1 <= hdd_r0 + 1e-12);
        }
    }

    #[test]
    fn scaled_thresholds_shrink_with_fleet() {
        let trace = synthetic_trace(); // 2k servers → 1/80 of paper scale
        let t = Batch::new(&trace).scaled_thresholds();
        assert_eq!(t, [2, 4, 10]);
    }

    #[test]
    fn batch_days_are_sorted_desc_and_match_threshold() {
        let trace = synthetic_trace();
        let b = Batch::new(&trace);
        let days = b.batch_days(ComponentClass::Hdd, 5);
        for w in days.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        for d in &days {
            assert!(d.count >= 5);
        }
    }
}
