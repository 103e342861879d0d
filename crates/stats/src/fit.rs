//! Maximum-likelihood estimation for the distribution families used in §II-B.
//!
//! The paper: "we first estimate the parameters of the fitting distributions
//! through maximum likelihood estimation (MLE) and then adopt Pearson's
//! chi-squared test". This module is the MLE half; see [`crate::chi_square`]
//! for the test half.

use crate::distribution::Fitted;
use crate::error::StatsError;
use crate::special::{digamma, trigamma};
use crate::{Exponential, Gamma, LogNormal, Weibull};

/// Validated positive-support sample with its logarithms cached.
///
/// All four TBF families consume `ln x` — the lognormal and Weibull
/// moments directly, the Weibull Newton solver once per iteration. One
/// shared pass computes and caches them, so [`fit_tbf_families`] walks
/// the raw sample exactly once however many families it fits. Every
/// cached value is the same `f64` the fits used to recompute in place,
/// so the fitted parameters are bit-identical to the uncached path.
struct PositivePrep {
    /// Sample size as a float.
    n: f64,
    /// Sample mean.
    mean: f64,
    /// Mean of `ln x` (MLE, i.e. `/n`).
    mean_ln: f64,
    /// Largest `ln x` (the Weibull solver's overflow shift).
    max_ln: f64,
    /// `ln x` per observation, in sample order.
    ln: Vec<f64>,
}

impl PositivePrep {
    /// Validates `data` for positive-support fits and caches its stats.
    fn new(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let mut sum = 0.0;
        let mut sum_ln = 0.0;
        let mut max_ln = f64::NEG_INFINITY;
        let mut ln = Vec::with_capacity(data.len());
        for &x in data {
            if !x.is_finite() {
                return Err(StatsError::NonFiniteSample { value: x });
            }
            if x <= 0.0 {
                return Err(StatsError::NonPositiveSample { value: x });
            }
            let lx = x.ln();
            sum += x;
            sum_ln += lx;
            max_ln = max_ln.max(lx);
            ln.push(lx);
        }
        let n = data.len() as f64;
        let first = data[0];
        if data
            .iter()
            .all(|&x| (x - first).abs() < f64::EPSILON * first.abs())
        {
            return Err(StatsError::DegenerateSample);
        }
        Ok(Self {
            n,
            mean: sum / n,
            mean_ln: sum_ln / n,
            max_ln,
            ln,
        })
    }

    /// MLE `var(ln x)` — the lognormal σ² and the Weibull shape
    /// initializer, summed in sample order like the uncached code did.
    fn var_ln(&self) -> f64 {
        self.ln
            .iter()
            .map(|lx| (lx - self.mean_ln).powi(2))
            .sum::<f64>()
            / self.n
    }
}

/// MLE fit of an exponential distribution: `rate = 1 / mean`.
///
/// # Errors
///
/// Fails on empty, non-finite, non-positive or degenerate samples.
///
/// # Examples
///
/// ```
/// let data = [1.0, 2.0, 3.0, 4.0];
/// let d = dcf_stats::fit::fit_exponential(&data).unwrap();
/// assert!((d.rate() - 0.4).abs() < 1e-12); // mean 2.5 → rate 0.4
/// ```
pub fn fit_exponential(data: &[f64]) -> Result<Exponential, StatsError> {
    let prep = PositivePrep::new(data)?;
    Exponential::from_mean(prep.mean)
}

/// MLE fit of a lognormal: `μ = mean(ln x)`, `σ² = var(ln x)` (MLE, i.e. /n).
///
/// # Errors
///
/// Fails on empty, non-finite, non-positive or degenerate samples.
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal, StatsError> {
    let prep = PositivePrep::new(data)?;
    fit_lognormal_prepped(&prep)
}

/// [`fit_lognormal`] against an already-validated sample.
fn fit_lognormal_prepped(prep: &PositivePrep) -> Result<LogNormal, StatsError> {
    let var_ln = prep.var_ln();
    if var_ln <= 0.0 {
        return Err(StatsError::DegenerateSample);
    }
    LogNormal::new(prep.mean_ln, var_ln.sqrt())
}

/// MLE fit of a Weibull via Newton–Raphson on the shape profile equation.
///
/// Solves `g(k) = Σ x^k ln x / Σ x^k − 1/k − mean(ln x) = 0`, then
/// `scale = (mean(x^k))^(1/k)`.
///
/// # Errors
///
/// Fails on bad samples or if the solver does not converge (rare; the
/// profile equation is monotone in `k`).
pub fn fit_weibull(data: &[f64]) -> Result<Weibull, StatsError> {
    let prep = PositivePrep::new(data)?;
    fit_weibull_prepped(&prep)
}

/// [`fit_weibull`] against an already-validated sample.
///
/// The solver works entirely off the cached logarithms: `k` stays
/// positive throughout, so the per-iteration overflow shift
/// `max(k·ln x)` is exactly `k · max(ln x)` (multiplying by a positive
/// constant preserves the argmax) — one multiplication instead of the
/// full sweep the uncached code paid twice per iteration.
fn fit_weibull_prepped(prep: &PositivePrep) -> Result<Weibull, StatsError> {
    let (n, mean_ln) = (prep.n, prep.mean_ln);

    // Menon-style moment initialization for the shape.
    let var_ln = prep.var_ln();
    let mut k = if var_ln > 0.0 {
        (std::f64::consts::PI / (6.0 * var_ln).sqrt()).max(0.02)
    } else {
        1.0
    };

    const MAX_ITERS: usize = 200;
    let mut converged = false;
    for _ in 0..MAX_ITERS {
        // Compute Σ x^k, Σ x^k ln x, Σ x^k (ln x)² in one pass, guarding overflow
        // by working with x^k = exp(k ln x − m) under the max shift.
        let m = k * prep.max_ln;
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        for &lx in &prep.ln {
            let w = (k * lx - m).exp();
            s0 += w;
            s1 += w * lx;
            s2 += w * lx * lx;
        }
        let r = s1 / s0;
        let g = r - 1.0 / k - mean_ln;
        let dg = (s2 / s0 - r * r) + 1.0 / (k * k);
        let step = g / dg;
        let mut next = k - step;
        if next <= 0.0 {
            next = k / 2.0;
        }
        if (next - k).abs() <= 1e-12 * k.max(1.0) {
            k = next;
            converged = true;
            break;
        }
        k = next;
    }
    if !converged {
        return Err(StatsError::NoConvergence {
            what: "weibull shape",
            iterations: MAX_ITERS,
        });
    }

    let m = k * prep.max_ln;
    let s0: f64 = prep.ln.iter().map(|&lx| (k * lx - m).exp()).sum();
    let scale = ((s0 / n).ln() + m).exp().powf(1.0 / k);
    Weibull::new(k, scale)
}

/// MLE fit of a gamma via Newton iteration on the shape.
///
/// Solves `ln k − ψ(k) = s` where `s = ln(mean) − mean(ln x)`, starting from
/// the Minka closed-form approximation; `scale = mean / k`.
///
/// # Errors
///
/// Fails on bad samples or non-convergence.
pub fn fit_gamma(data: &[f64]) -> Result<Gamma, StatsError> {
    let prep = PositivePrep::new(data)?;
    fit_gamma_prepped(&prep)
}

/// [`fit_gamma`] against an already-validated sample (the Newton
/// iteration is scalar; only the stats come from the prep).
fn fit_gamma_prepped(prep: &PositivePrep) -> Result<Gamma, StatsError> {
    let (mean, mean_ln) = (prep.mean, prep.mean_ln);
    let s = mean.ln() - mean_ln;
    if s <= 0.0 {
        // Numerically possible only for (near-)degenerate samples.
        return Err(StatsError::DegenerateSample);
    }
    // Minka's initializer.
    let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
    const MAX_ITERS: usize = 200;
    let mut converged = false;
    for _ in 0..MAX_ITERS {
        let g = k.ln() - digamma(k) - s;
        let dg = 1.0 / k - trigamma(k);
        let mut next = k - g / dg;
        if next <= 0.0 {
            next = k / 2.0;
        }
        if (next - k).abs() <= 1e-12 * k.max(1.0) {
            k = next;
            converged = true;
            break;
        }
        k = next;
    }
    if !converged {
        return Err(StatsError::NoConvergence {
            what: "gamma shape",
            iterations: MAX_ITERS,
        });
    }
    Gamma::new(k, mean / k)
}

/// Fits all four families the paper tests against TBF data (§II-B):
/// exponential, Weibull, gamma and lognormal.
///
/// Families whose fit fails (e.g. gamma on a degenerate sample) are simply
/// omitted, mirroring how an analyst would skip an inapplicable family.
pub fn fit_tbf_families(data: &[f64]) -> Vec<Fitted> {
    // One validation-and-cache pass shared by all four families; a
    // sample the prep rejects is rejected by every family.
    let Ok(prep) = PositivePrep::new(data) else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(4);
    if let Ok(d) = Exponential::from_mean(prep.mean) {
        out.push(Fitted::Exponential(d));
    }
    if let Ok(d) = fit_weibull_prepped(&prep) {
        out.push(Fitted::Weibull(d));
    }
    if let Ok(d) = fit_gamma_prepped(&prep) {
        out.push(Fitted::Gamma(d));
    }
    if let Ok(d) = fit_lognormal_prepped(&prep) {
        out.push(Fitted::LogNormal(d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{sample_n, ContinuousDistribution};
    use crate::rng::StdRng;

    #[test]
    fn exponential_recovers_rate() {
        let truth = Exponential::new(0.35).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = sample_n(&truth, &mut rng, 100_000);
        let fit = fit_exponential(&data).unwrap();
        assert!((fit.rate() - 0.35).abs() / 0.35 < 0.02);
    }

    #[test]
    fn weibull_recovers_parameters() {
        for &(k, lam) in &[(0.6, 2.0), (1.0, 1.0), (2.5, 10.0)] {
            let truth = Weibull::new(k, lam).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let data = sample_n(&truth, &mut rng, 50_000);
            let fit = fit_weibull(&data).unwrap();
            assert!(
                (fit.shape() - k).abs() / k < 0.03,
                "shape {k}: {}",
                fit.shape()
            );
            assert!(
                (fit.scale() - lam).abs() / lam < 0.03,
                "scale {lam}: {}",
                fit.scale()
            );
        }
    }

    #[test]
    fn gamma_recovers_parameters() {
        for &(k, t) in &[(0.7, 3.0), (4.0, 0.5)] {
            let truth = Gamma::new(k, t).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let data = sample_n(&truth, &mut rng, 50_000);
            let fit = fit_gamma(&data).unwrap();
            assert!(
                (fit.shape() - k).abs() / k < 0.05,
                "shape {k}: {}",
                fit.shape()
            );
            assert!(
                (fit.scale() - t).abs() / t < 0.05,
                "scale {t}: {}",
                fit.scale()
            );
        }
    }

    #[test]
    fn lognormal_recovers_parameters() {
        let truth = LogNormal::new(1.2, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let data = sample_n(&truth, &mut rng, 50_000);
        let fit = fit_lognormal(&data).unwrap();
        assert!((fit.location() - 1.2).abs() < 0.02);
        assert!((fit.shape() - 0.7).abs() < 0.02);
    }

    #[test]
    fn fits_reject_bad_samples() {
        assert_eq!(fit_exponential(&[]), Err(StatsError::EmptySample));
        assert!(matches!(
            fit_weibull(&[1.0, -2.0]),
            Err(StatsError::NonPositiveSample { .. })
        ));
        assert!(matches!(
            fit_gamma(&[2.0, 2.0, 2.0]),
            Err(StatsError::DegenerateSample)
        ));
        assert!(matches!(
            fit_lognormal(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteSample { .. })
        ));
    }

    #[test]
    fn tbf_families_returns_all_four_on_good_data() {
        let truth = Weibull::new(1.3, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = sample_n(&truth, &mut rng, 5_000);
        let fits = fit_tbf_families(&data);
        assert_eq!(fits.len(), 4);
        let names: Vec<_> = fits.iter().map(|f| f.name()).collect();
        assert_eq!(names, ["Exponential", "Weibull", "Gamma", "LogNormal"]);
    }

    #[test]
    fn weibull_fit_handles_large_magnitudes_without_overflow() {
        // Values around 1e8 with shape ~2 would overflow naive Σ x^k sums.
        let truth = Weibull::new(2.0, 1e8).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let data = sample_n(&truth, &mut rng, 20_000);
        let fit = fit_weibull(&data).unwrap();
        assert!((fit.shape() - 2.0).abs() < 0.1);
        assert!((fit.scale() - 1e8).abs() / 1e8 < 0.05);
    }
}
