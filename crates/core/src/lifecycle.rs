//! §III-C: failure rate over a component's service life (Figure 6).
//!
//! For each class we compute failures per *component-month of exposure* by
//! age month: a server deployed mid-window contributes fractional exposure
//! to each age bucket its service life overlaps with the observation
//! window. The paper's headline lifecycle statistics (RAID infant
//! mortality, motherboard late wear-out, …) are derived views.
//!
//! # Examples
//!
//! ```
//! use dcf_core::lifecycle::Lifecycle;
//! use dcf_trace::ComponentClass;
//!
//! let trace = dcf_sim::Scenario::small().seed(1).simulate(&dcf_sim::RunOptions::default()).unwrap();
//! let hdd = Lifecycle::new(&trace).of_class(ComponentClass::Hdd);
//! // Exposure follows the fleet: positive in the months the window covers.
//! assert!(hdd.exposure.iter().sum::<f64>() > 0.0);
//! ```

use dcf_trace::{ComponentClass, Trace, SECS_PER_MONTH};

/// Age months tracked (the Figure 6 horizon: first four years ≈ 48 months).
pub const AGE_MONTHS: usize = 48;

/// Lifecycle profile of one component class.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleResult {
    /// The component class.
    pub class: ComponentClass,
    /// Failure counts per age month (0-based 30-day months).
    pub failures: Vec<u64>,
    /// Exposure per age month, in component-months.
    pub exposure: Vec<f64>,
    /// Failures per component-month; `None` where exposure is negligible.
    pub rate: Vec<Option<f64>>,
}

impl LifecycleResult {
    /// Fraction of (within-horizon) failures whose age is in
    /// `months` (e.g. `0..6` for the paper's RAID infant-mortality claim).
    pub fn failure_fraction(&self, months: std::ops::Range<usize>) -> f64 {
        let total: u64 = self.failures.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let in_range: u64 = self.failures[months.start.min(AGE_MONTHS)..months.end.min(AGE_MONTHS)]
            .iter()
            .sum();
        in_range as f64 / total as f64
    }

    /// Mean failure rate over an age range (exposure-weighted);
    /// `None` when the range has no exposure.
    pub fn mean_rate(&self, months: std::ops::Range<usize>) -> Option<f64> {
        let lo = months.start.min(AGE_MONTHS);
        let hi = months.end.min(AGE_MONTHS);
        let exp: f64 = self.exposure[lo..hi].iter().sum();
        if exp < 1.0 {
            return None;
        }
        let fails: u64 = self.failures[lo..hi].iter().sum();
        Some(fails as f64 / exp)
    }

    /// Rates normalized to their maximum (the paper normalizes Figure 6
    /// for confidentiality) — `(month, normalized rate)` for plot series.
    pub fn normalized_series(&self) -> Vec<(usize, f64)> {
        let max = self.rate.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        if max <= 0.0 {
            return Vec::new();
        }
        self.rate
            .iter()
            .enumerate()
            .filter_map(|(m, r)| r.map(|r| (m, r / max)))
            .collect()
    }
}

/// §III-C lifecycle analysis over one trace.
#[derive(Debug, Clone)]
pub struct Lifecycle<'a> {
    trace: &'a Trace,
}

impl<'a> Lifecycle<'a> {
    /// Creates the analysis.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace }
    }

    /// Lifecycle profiles for every component class.
    ///
    /// Failure ages are tallied in one pass over the failure population's
    /// columns, with deploy times gathered into a dense array up front.
    pub fn all(&self) -> Vec<LifecycleResult> {
        let mut failures = vec![vec![0u64; AGE_MONTHS]; 11];
        let cols = self.trace.columns();
        let deploys: Vec<u64> = self
            .trace
            .servers()
            .iter()
            .map(|s| s.deploy_time.as_secs())
            .collect();
        let servers = cols.servers();
        let classes = cols.classes();
        for &p in self.trace.index().failure_ids() {
            let i = p as usize;
            // saturating_sub matches SimTime::since's clamp to zero.
            let age = cols
                .error_secs(i)
                .saturating_sub(deploys[servers[i] as usize])
                / SECS_PER_MONTH;
            if (age as usize) < AGE_MONTHS {
                failures[classes[i] as usize][age as usize] += 1;
            }
        }

        // Exposure: servers deployed at the same instant share their
        // per-month window overlap, so their component counts are summed
        // first and the overlap is applied once per distinct deploy time
        // (about 1.7k of them for the paper's 160k servers), in ascending
        // deploy order. Servers come in racks deployed together, so the
        // counts are summed over runs of consecutive servers with one
        // deploy time first, and only the runs are sorted.
        let mut runs: Vec<(u64, [u64; 11])> = Vec::new();
        for (server, &deploy) in self.trace.servers().iter().zip(&deploys) {
            if runs.last().is_none_or(|run| run.0 != deploy) {
                runs.push((deploy, [0; 11]));
            }
            let counts = &mut runs.last_mut().expect("pushed above").1;
            for class in ComponentClass::ALL {
                counts[class.index()] += server.component_count(class) as u64;
            }
        }
        runs.sort_unstable_by_key(|run| run.0);
        let start = self.trace.info().start.as_secs() as f64;
        let end = self.trace.end_time().as_secs() as f64;
        let month = SECS_PER_MONTH as f64;
        let mut exposure = vec![vec![0.0f64; AGE_MONTHS]; 11];
        let mut frac = [0.0f64; AGE_MONTHS];
        for cohort in runs.chunk_by(|a, b| a.0 == b.0) {
            let deploy = cohort[0].0 as f64;
            let mut any = false;
            for (m, f) in frac.iter_mut().enumerate() {
                let seg_start = (deploy + m as f64 * month).max(start);
                let seg_end = (deploy + (m + 1) as f64 * month).min(end);
                *f = ((seg_end - seg_start) / month).max(0.0);
                any |= *f > 0.0;
            }
            if !any {
                continue;
            }
            let mut counts = [0u64; 11];
            for (_, run) in cohort {
                for (sum, &count) in counts.iter_mut().zip(run) {
                    *sum += count;
                }
            }
            for (ex, &count) in exposure.iter_mut().zip(&counts) {
                if count == 0 {
                    continue;
                }
                for (e, &f) in ex.iter_mut().zip(&frac) {
                    *e += f * count as f64;
                }
            }
        }

        ComponentClass::ALL
            .iter()
            .zip(failures.into_iter().zip(exposure))
            .map(|(&class, (f, e))| {
                let rate = f
                    .iter()
                    .zip(&e)
                    .map(|(&fi, &ei)| (ei >= 1.0).then(|| fi as f64 / ei))
                    .collect();
                LifecycleResult {
                    class,
                    failures: f,
                    exposure: e,
                    rate,
                }
            })
            .collect()
    }

    /// Lifecycle profile of one class.
    pub fn of_class(&self, class: ComponentClass) -> LifecycleResult {
        self.all()
            .into_iter()
            .find(|r| r.class == class)
            .expect("all() covers every class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::medium_trace;

    #[test]
    fn exposure_accounting_is_consistent() {
        let trace = medium_trace();
        let all = Lifecycle::new(&trace).all();
        assert_eq!(all.len(), 11);
        for r in &all {
            assert_eq!(r.failures.len(), AGE_MONTHS);
            // No rate where exposure is negligible.
            for (e, rate) in r.exposure.iter().zip(&r.rate) {
                if *e < 1.0 {
                    assert!(rate.is_none());
                }
            }
        }
        // HDD exposure dwarfs CPU exposure (12 drives vs 2 sockets).
        let hdd: f64 = all[ComponentClass::Hdd.index()].exposure.iter().sum();
        let cpu: f64 = all[ComponentClass::Cpu.index()].exposure.iter().sum();
        assert!(hdd > 3.0 * cpu);
    }

    #[test]
    fn raid_cards_show_infant_mortality() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::RaidCard);
        let first6 = r.failure_fraction(0..6);
        // Paper: 47.4% of RAID failures within the first six months.
        assert!(first6 > 0.30, "first-6-month RAID share {first6}");
        let early = r.mean_rate(0..6).unwrap();
        let later = r.mean_rate(12..36).unwrap();
        assert!(early > 3.0 * later, "early {early} vs later {later}");
    }

    #[test]
    fn hdd_infant_rate_is_about_20_percent_above_months_4_to_9() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::Hdd);
        let infant = r.mean_rate(0..3).unwrap();
        let trough = r.mean_rate(3..9).unwrap();
        let ratio = infant / trough;
        assert!((1.05..1.45).contains(&ratio), "infant/trough {ratio}");
        // And wear-out later: year 3 rate beats the trough.
        let old = r.mean_rate(30..42).unwrap();
        assert!(old > trough);
    }

    #[test]
    fn motherboards_fail_late() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::Motherboard);
        let late = r.failure_fraction(36..AGE_MONTHS);
        // Paper: 72.1% of motherboard failures occur after year 3.
        assert!(late > 0.5, "after-36-months motherboard share {late}");
    }

    #[test]
    fn flash_cards_are_quiet_in_year_one() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::FlashCard);
        let first12 = r.failure_fraction(0..12);
        // Paper: only 1.4% of flash failures in the first 12 months.
        assert!(first12 < 0.10, "first-year flash share {first12}");
    }

    #[test]
    fn misc_rate_spikes_in_month_zero() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::Miscellaneous);
        let m0 = r.rate[0].unwrap();
        let steady = r.mean_rate(3..12).unwrap();
        assert!(m0 > 4.0 * steady, "month-0 {m0} vs steady {steady}");
    }

    #[test]
    fn normalized_series_peaks_at_one() {
        let trace = medium_trace();
        let r = Lifecycle::new(&trace).of_class(ComponentClass::Hdd);
        let series = r.normalized_series();
        assert!(!series.is_empty());
        let max = series.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(series.iter().all(|(_, v)| (0.0..=1.0).contains(v)));
    }
}
