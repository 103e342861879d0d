//! §III temporal analyses: day-of-week (Hypothesis 1, Figure 3),
//! hour-of-day (Hypothesis 2, Figure 4), and time-between-failures
//! distribution fitting (Hypotheses 3–4, Figure 5).
//!
//! # Examples
//!
//! ```
//! use dcf_core::temporal::Temporal;
//!
//! let trace = dcf_sim::Scenario::small().seed(1).simulate(&dcf_sim::RunOptions::default()).unwrap();
//! let temporal = Temporal::new(&trace);
//! let tbf = temporal.tbf_all().unwrap();
//! assert_eq!(tbf.fits.len(), 4); // exp / Weibull / gamma / lognormal
//! assert!(tbf.mtbf_minutes > 0.0);
//! ```

use dcf_stats::chi_square::{against_expected, ChiSquareOutcome};
use dcf_stats::{fit, Ecdf, Fitted, StatsError};
use dcf_trace::{ComponentClass, DataCenterId, Trace, Weekday, SECS_PER_HOUR};

/// Result of the day-of-week analysis for one failure population.
#[derive(Debug, Clone, PartialEq)]
pub struct DayOfWeekResult {
    /// Failure counts Monday..Sunday.
    pub counts: [usize; 7],
    /// Fractions of failures Monday..Sunday (Figure 3's bars).
    pub fractions: [f64; 7],
    /// Hypothesis 1 test: counts uniform across weekdays (population-
    /// corrected for how many of each weekday the window contains).
    pub uniformity: ChiSquareOutcome,
    /// The same test excluding weekends (the paper also rejects this, at
    /// 0.02 significance).
    pub weekdays_only: ChiSquareOutcome,
}

/// Result of the hour-of-day analysis for one failure population.
#[derive(Debug, Clone, PartialEq)]
pub struct HourOfDayResult {
    /// Failure counts for hours 0..24.
    pub counts: [usize; 24],
    /// Fractions per hour (Figure 4's bars).
    pub fractions: [f64; 24],
    /// Hypothesis 2 test: counts uniform across hours.
    pub uniformity: ChiSquareOutcome,
}

/// One distribution fit plus its goodness-of-fit test (a row of Figure 5's
/// legend).
#[derive(Debug, Clone, PartialEq)]
pub struct TbfFit {
    /// The MLE-fitted distribution.
    pub fitted: Fitted,
    /// Pearson chi-squared goodness-of-fit outcome.
    pub test: ChiSquareOutcome,
}

/// Result of the TBF analysis for one failure population.
#[derive(Debug, Clone, PartialEq)]
pub struct TbfResult {
    /// Number of gaps analyzed.
    pub n: usize,
    /// Mean time between failures, minutes.
    pub mtbf_minutes: f64,
    /// Median TBF, minutes.
    pub median_minutes: f64,
    /// The four family fits (exp/Weibull/gamma/lognormal) with their tests.
    pub fits: Vec<TbfFit>,
    /// Whether every family is rejected at the 0.05 level (the paper's
    /// Hypothesis 3/4 conclusion).
    pub all_rejected_at_005: bool,
}

/// §III temporal analysis over one trace.
#[derive(Debug, Clone)]
pub struct Temporal<'a> {
    trace: &'a Trace,
}

impl<'a> Temporal<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// How many of each weekday the observation window contains (expected-
    /// count weights for Hypothesis 1).
    fn weekday_populations(&self) -> [f64; 7] {
        let start_day = self.trace.info().start.day_index();
        let days = self.trace.info().days;
        let mut pop = [0.0f64; 7];
        for d in 0..days {
            let wd = dcf_trace::SimTime::from_days(start_day + d).weekday();
            pop[wd.index()] += 1.0;
        }
        pop
    }

    /// The failure population for `class` (`None` = all classes): the
    /// matching index bucket, whose positions double as column row indices.
    fn population(&self, class: Option<ComponentClass>) -> &'a [u32] {
        let index = self.trace.index();
        match class {
            None => index.failure_ids(),
            Some(class) => index.class_failure_ids(class),
        }
    }

    /// Figure 3 / Hypothesis 1 for one class (`None` = all classes).
    ///
    /// # Errors
    ///
    /// Fails when the population has too few failures to test.
    pub fn day_of_week(
        &self,
        class: Option<ComponentClass>,
    ) -> Result<DayOfWeekResult, StatsError> {
        // The weekday of row `i` is a pure function of its error-day column
        // entry, so the tally streams one dense `u32` column instead of
        // whole tickets.
        let mut counts = [0usize; 7];
        let origin = dcf_trace::ORIGIN_WEEKDAY.index() as u64;
        let days = self.trace.columns().error_days();
        for &p in self.population(class) {
            counts[((origin + days[p as usize] as u64) % 7) as usize] += 1;
        }
        self.day_of_week_from_counts(counts)
    }

    /// Hypothesis-1 statistics over finished weekday tallies (shared by
    /// [`Temporal::day_of_week`] and the fused section kernel).
    fn day_of_week_from_counts(&self, counts: [usize; 7]) -> Result<DayOfWeekResult, StatsError> {
        let total: usize = counts.iter().sum();
        let denom = total.max(1) as f64;
        let fractions = counts.map(|c| c as f64 / denom);

        let pop = self.weekday_populations();
        let pop_total: f64 = pop.iter().sum();
        let observed: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let expected: Vec<f64> = pop.iter().map(|p| total as f64 * p / pop_total).collect();
        let uniformity = against_expected(&observed, &expected)?;

        // Weekday-only variant (drop Saturday and Sunday).
        let keep: Vec<usize> = Weekday::ALL
            .iter()
            .filter(|w| !w.is_weekend())
            .map(|w| w.index())
            .collect();
        let obs_wd: Vec<f64> = keep.iter().map(|&i| observed[i]).collect();
        let wd_total: f64 = obs_wd.iter().sum();
        let pop_wd_total: f64 = keep.iter().map(|&i| pop[i]).sum();
        let exp_wd: Vec<f64> = keep
            .iter()
            .map(|&i| wd_total * pop[i] / pop_wd_total)
            .collect();
        let weekdays_only = against_expected(&obs_wd, &exp_wd)?;

        Ok(DayOfWeekResult {
            counts,
            fractions,
            uniformity,
            weekdays_only,
        })
    }

    /// Figure 4 / Hypothesis 2 for one class (`None` = all classes).
    ///
    /// # Errors
    ///
    /// Fails when the population has too few failures to test.
    pub fn hour_of_day(
        &self,
        class: Option<ComponentClass>,
    ) -> Result<HourOfDayResult, StatsError> {
        // Hour-of-day is second-of-day / 3600, one dense column.
        let mut counts = [0usize; 24];
        let sods = self.trace.columns().error_sods();
        for &p in self.population(class) {
            counts[(sods[p as usize] as u64 / SECS_PER_HOUR) as usize] += 1;
        }
        Self::hour_of_day_from_counts(counts)
    }

    /// Hypothesis-2 statistics over finished hourly tallies (shared by
    /// [`Temporal::hour_of_day`] and the fused section kernel).
    fn hour_of_day_from_counts(counts: [usize; 24]) -> Result<HourOfDayResult, StatsError> {
        let total: usize = counts.iter().sum();
        let denom = total.max(1) as f64;
        let fractions = counts.map(|c| c as f64 / denom);
        let observed: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let uniformity = dcf_stats::chi_square::uniformity(&observed)?;
        Ok(HourOfDayResult {
            counts,
            fractions,
            uniformity,
        })
    }

    /// The three §III analyses of one population from a single pass over
    /// the error-time columns: day-of-week tallies, hour-of-day tallies,
    /// and the TBF gap series all come out of one walk of the failure
    /// ids instead of three (the `study.temporal` section used to
    /// re-stream the population per analysis).
    ///
    /// Each returned result is identical to its standalone method —
    /// the tallies are the same sums and the gaps reconstruct the same
    /// timestamps, so every downstream test sees the same bytes
    /// (`tests/study_oracle.rs` checks all three against a plain scan of
    /// the tickets).
    #[allow(clippy::type_complexity)]
    pub fn fused(
        &self,
        class: Option<ComponentClass>,
    ) -> (
        Result<DayOfWeekResult, StatsError>,
        Result<HourOfDayResult, StatsError>,
        Result<TbfResult, StatsError>,
    ) {
        let (dow, hod, tbf) = self.fused_with_ecdf(class);
        (dow, hod, tbf.map(|(tbf, _)| tbf))
    }

    /// [`Temporal::fused`], also handing back the sorted TBF gaps the fit
    /// tested against (the [`Temporal::tbf_ecdf`] series of `None`), so
    /// the study keeps them for Figure 5 instead of re-gathering them.
    #[allow(clippy::type_complexity)]
    pub(crate) fn fused_with_ecdf(
        &self,
        class: Option<ComponentClass>,
    ) -> (
        Result<DayOfWeekResult, StatsError>,
        Result<HourOfDayResult, StatsError>,
        Result<(TbfResult, Ecdf), StatsError>,
    ) {
        let mut dow = [0usize; 7];
        let mut hod = [0usize; 24];
        let ids = self.population(class);
        let cols = self.trace.columns();
        let origin = dcf_trace::ORIGIN_WEEKDAY.index() as u64;
        let days = cols.error_days();
        let sods = cols.error_sods();
        let mut gaps = Vec::with_capacity(ids.len().saturating_sub(1));
        let mut last: Option<u64> = None;
        for &p in ids {
            let i = p as usize;
            let day = days[i] as u64;
            let sod = sods[i] as u64;
            dow[((origin + day) % 7) as usize] += 1;
            hod[(sod / SECS_PER_HOUR) as usize] += 1;
            // Same reconstruction as `FotColumns::error_secs`.
            let t = day * dcf_trace::SECS_PER_DAY + sod;
            if let Some(prev) = last {
                gaps.push(((t - prev) as f64).max(0.5) / 60.0);
            }
            last = Some(t);
        }
        (
            self.day_of_week_from_counts(dow),
            Self::hour_of_day_from_counts(hod),
            Self::tbf_and_ecdf(gaps),
        )
    }

    /// Gaps (minutes) between consecutive failures of a time-sorted
    /// population (any index bucket qualifies), with timestamps rebuilt
    /// from the two error-time columns. Zero gaps (same-second detections)
    /// are floored at half a second so positive-support families remain
    /// fittable.
    fn gaps_minutes(&self, ids: &[u32]) -> Vec<f64> {
        let cols = self.trace.columns();
        let mut last: Option<u64> = None;
        let mut gaps = Vec::with_capacity(ids.len().saturating_sub(1));
        for &p in ids {
            let t = cols.error_secs(p as usize);
            if let Some(prev) = last {
                let secs = (t - prev) as f64;
                gaps.push(secs.max(0.5) / 60.0);
            }
            last = Some(t);
        }
        gaps
    }

    /// Failure gaps for one class population.
    fn gaps_of(&self, class: Option<ComponentClass>) -> Vec<f64> {
        self.gaps_minutes(self.population(class))
    }

    /// Failure gaps inside one data center.
    fn gaps_of_dc(&self, dc: DataCenterId) -> Vec<f64> {
        self.gaps_minutes(self.trace.index().dc_failure_ids(dc))
    }

    /// Figure 5 / Hypothesis 3: TBF over all component failures.
    ///
    /// # Errors
    ///
    /// Fails when there are fewer than ~100 gaps to fit.
    pub fn tbf_all(&self) -> Result<TbfResult, StatsError> {
        self.tbf_from_gaps(self.gaps_of(None))
    }

    /// Hypothesis 4: TBF of one component class.
    ///
    /// # Errors
    ///
    /// Fails when there are fewer than ~100 gaps to fit.
    pub fn tbf_of_class(&self, class: ComponentClass) -> Result<TbfResult, StatsError> {
        self.tbf_from_gaps(self.gaps_of(Some(class)))
    }

    /// TBF restricted to one data center (for the paper's per-DC MTBF
    /// range of 32–390 minutes).
    ///
    /// # Errors
    ///
    /// Fails when there are fewer than ~100 gaps to fit.
    pub fn tbf_of_dc(&self, dc: DataCenterId) -> Result<TbfResult, StatsError> {
        self.tbf_from_gaps(self.gaps_of_dc(dc))
    }

    /// MTBF (minutes) per data center, for DCs with at least `min_gaps`
    /// failures gaps.
    ///
    /// Each DC walks only its own index bucket, so the whole sweep is
    /// O(failures) instead of the O(DCs × tickets) rescans it used to cost.
    pub fn mtbf_by_dc(&self, min_gaps: usize) -> Vec<(DataCenterId, f64)> {
        self.trace
            .data_centers()
            .iter()
            .filter_map(|dc| {
                let gaps = self.gaps_of_dc(dc.id);
                if gaps.len() < min_gaps {
                    return None;
                }
                let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
                Some((dc.id, mean))
            })
            .collect()
    }

    /// The TBF empirical CDF (minutes) over all failures, downsampled for
    /// plotting (Figure 5's data series).
    ///
    /// # Errors
    ///
    /// Fails on an empty population.
    pub fn tbf_ecdf(&self, max_points: usize) -> Result<Vec<(f64, f64)>, StatsError> {
        let e = Ecdf::new(self.gaps_of(None))?;
        Ok(e.sampled_points(max_points))
    }

    /// §III-A's workload-correlation claim, quantified: Spearman ρ between
    /// a class's *typical* hour-of-day detection profile and a reference
    /// 24-hour utilization curve. The paper asserts this correlation is
    /// positive for HDD, memory and miscellaneous failures.
    ///
    /// Batch days (daily totals above the 95th percentile) are excluded
    /// first — their failures land in arbitrary hours and would otherwise
    /// scramble the diurnal signal — then counts are summed per hour.
    ///
    /// # Errors
    ///
    /// Fails when the class has too few failures or degenerate counts.
    pub fn workload_correlation(
        &self,
        class: Option<ComponentClass>,
        utilization_by_hour: &[f64; 24],
    ) -> Result<f64, StatsError> {
        let start_day = self.trace.info().start.day_index();
        let days = self.trace.info().days as usize;
        let mut per_day_hour = vec![[0u32; 24]; days];
        let cols = self.trace.columns();
        let day_col = cols.error_days();
        let sod_col = cols.error_sods();
        for &p in self.population(class) {
            let i = p as usize;
            let Some(d) = (day_col[i] as u64).checked_sub(start_day) else {
                continue;
            };
            if let Some(row) = per_day_hour.get_mut(d as usize) {
                row[(sod_col[i] as u64 / SECS_PER_HOUR) as usize] += 1;
            }
        }
        // Drop batch days before aggregating.
        let mut daily_totals: Vec<u32> = per_day_hour
            .iter()
            .map(|row| row.iter().sum::<u32>())
            .collect();
        let mut sorted = daily_totals.clone();
        sorted.sort_unstable();
        let cutoff = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)];
        let mut typical = [0.0f64; 24];
        for (row, &total) in per_day_hour.iter().zip(&daily_totals) {
            if total > cutoff {
                continue;
            }
            for (h, &c) in row.iter().enumerate() {
                typical[h] += c as f64;
            }
        }
        daily_totals.clear();
        dcf_stats::rank::spearman(&typical, utilization_by_hour)
    }

    fn tbf_from_gaps(&self, gaps: Vec<f64>) -> Result<TbfResult, StatsError> {
        Self::tbf_and_ecdf(gaps).map(|(tbf, _)| tbf)
    }

    /// The TBF fits over `gaps`, plus the ECDF of the gaps they were
    /// tested against.
    fn tbf_and_ecdf(gaps: Vec<f64>) -> Result<(TbfResult, Ecdf), StatsError> {
        let n = gaps.len();
        if n < 100 {
            return Err(StatsError::NotEnoughBins {
                found: n,
                required: 100,
            });
        }
        // Fit in sample order (the MLE sums are order-sensitive to the last
        // bit), then hand the gaps to the ECDF, whose sorted view makes each
        // goodness-of-fit test O(bins log n) instead of O(n log bins). The
        // bin counts are permutation-invariant, so the outcomes match the
        // unsorted test exactly.
        let fitted_families = fit::fit_tbf_families(&gaps);
        let ecdf = Ecdf::new(gaps)?;
        let fits: Vec<TbfFit> = fitted_families
            .into_iter()
            .filter_map(|fitted| {
                dcf_stats::chi_square::goodness_of_fit_sorted(
                    ecdf.values(),
                    &fitted,
                    40,
                    fitted.parameter_count(),
                )
                .ok()
                .map(|test| TbfFit { fitted, test })
            })
            .collect();
        let all_rejected_at_005 = !fits.is_empty() && fits.iter().all(|f| f.test.rejects_at(0.05));
        let tbf = TbfResult {
            n,
            mtbf_minutes: ecdf.mean(),
            median_minutes: ecdf.median(),
            fits,
            all_rejected_at_005,
        };
        Ok((tbf, ecdf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::synthetic_trace;

    #[test]
    fn day_of_week_rejects_uniformity() {
        // Rejection needs the paper's statistical power: medium scale.
        let trace = crate::test_support::medium_trace();
        let r = Temporal::new(&trace).day_of_week(None).unwrap();
        // Hypothesis 1: rejected at 0.01 for the all-components population.
        assert!(r.uniformity.rejects_at(0.01), "{}", r.uniformity);
        let total: f64 = r.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The small fixture still computes sane fractions.
        let small = synthetic_trace();
        let rs = Temporal::new(&small).day_of_week(None).unwrap();
        assert!((rs.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weekends_see_fewer_detections_at_scale() {
        // Direction needs volume: a lone weekend batch event can dominate
        // the small trace, so test the medium one.
        let trace = crate::test_support::medium_trace();
        let t = Temporal::new(&trace);
        // Manual (misc) reports follow office hours — strongly anti-weekend
        // and immune to where batch events happen to land.
        let misc = t.day_of_week(Some(ComponentClass::Miscellaneous)).unwrap();
        let misc_weekend = misc.fractions[5] + misc.fractions[6];
        assert!(misc_weekend < 0.22, "misc weekend share {misc_weekend}");
        // Overall, weekends are at most roughly uniform — batch events land
        // on arbitrary days and add noise on top of the weekday skew.
        let all = t.day_of_week(None).unwrap();
        let weekend = all.fractions[5] + all.fractions[6];
        assert!(weekend < 0.33, "weekend share {weekend}");
    }

    #[test]
    fn hour_of_day_rejects_uniformity_for_hdd() {
        let trace = crate::test_support::medium_trace();
        let r = Temporal::new(&trace)
            .hour_of_day(Some(ComponentClass::Hdd))
            .unwrap();
        assert!(r.uniformity.rejects_at(0.01), "{}", r.uniformity);
    }

    #[test]
    fn hdd_detections_peak_in_the_afternoon_at_scale() {
        let trace = crate::test_support::medium_trace();
        let r = Temporal::new(&trace)
            .hour_of_day(Some(ComponentClass::Hdd))
            .unwrap();
        let afternoon: f64 = (13..18).map(|h| r.fractions[h]).sum();
        let night: f64 = (1..6).map(|h| r.fractions[h]).sum();
        assert!(afternoon > night, "afternoon {afternoon} night {night}");
    }

    #[test]
    fn tbf_rejects_all_four_families() {
        // Needs the paper's sample size; the small fixture lacks power.
        let trace = crate::test_support::medium_trace();
        let r = Temporal::new(&trace).tbf_all().unwrap();
        assert_eq!(r.fits.len(), 4);
        assert!(
            r.all_rejected_at_005,
            "fits: {:?}",
            r.fits.iter().map(|f| f.test.p_value).collect::<Vec<_>>()
        );
        assert!(r.mtbf_minutes > 0.0);
        assert!(r.median_minutes <= r.mtbf_minutes); // heavy right tail
    }

    #[test]
    fn tbf_per_class_works_for_hdd() {
        let trace = crate::test_support::medium_trace();
        let r = Temporal::new(&trace)
            .tbf_of_class(ComponentClass::Hdd)
            .unwrap();
        assert!(r.n > 100);
        assert!(r.all_rejected_at_005);
    }

    #[test]
    fn detections_track_workload_positively() {
        // §III-A: "the number of failures of some components are positively
        // correlated with the workload."
        let trace = crate::test_support::medium_trace();
        let profile =
            dcf_fleet::UtilizationProfile::for_workload(dcf_trace::WorkloadKind::BatchProcessing);
        let mut util = [0.0f64; 24];
        for (h, u) in util.iter_mut().enumerate() {
            *u = profile.utilization(
                dcf_trace::SimTime::from_hours(h as u64), // day 0 weekday
            );
        }
        let t = Temporal::new(&trace);
        let rho_hdd = t
            .workload_correlation(Some(ComponentClass::Hdd), &util)
            .unwrap();
        // Positive and substantial (detection delay smears the phase a
        // little, so rho sits below the raw utilization swing).
        assert!(rho_hdd > 0.25, "HDD workload correlation {rho_hdd}");
        let rho_misc = t
            .workload_correlation(Some(ComponentClass::Miscellaneous), &util)
            .unwrap();
        assert!(rho_misc > 0.25, "misc workload correlation {rho_misc}");
    }

    #[test]
    fn mtbf_varies_across_dcs() {
        let trace = synthetic_trace();
        let per_dc = Temporal::new(&trace).mtbf_by_dc(50);
        assert!(per_dc.len() >= 2);
        let min = per_dc.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
        let max = per_dc.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        assert!(max > 1.5 * min, "MTBF range {min}..{max}");
    }

    #[test]
    fn ecdf_points_are_monotone() {
        let trace = synthetic_trace();
        let pts = Temporal::new(&trace).tbf_ecdf(200).unwrap();
        assert!(pts.len() <= 200);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn tiny_population_errors_cleanly() {
        let trace = synthetic_trace();
        // CPU failures are extremely rare in a 2k-server fleet.
        let r = Temporal::new(&trace).tbf_of_class(ComponentClass::Cpu);
        assert!(r.is_err());
    }
}
