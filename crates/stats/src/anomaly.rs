//! The paper's μ ± kσ anomaly detection (§IV): "we estimate the expectation
//! μ and the variation σ² of the FR at each rack position and discover that
//! the FRs of rack positions 22 and 35 … lie out of the range (μ−2σ, μ+2σ)."

use crate::error::StatsError;

/// An index flagged as anomalous, with its value and z-score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// Index of the flagged entry in the input slice.
    pub index: usize,
    /// The flagged value.
    pub value: f64,
    /// Signed number of standard deviations from the mean.
    pub z_score: f64,
}

/// Flags entries of `values` lying outside `mean ± k_sigma · std`.
///
/// The mean/σ are estimated over the full slice (as the paper does) with the
/// population (1/n) variance. Entries are returned most-extreme first.
///
/// # Errors
///
/// * [`StatsError::EmptySample`] on fewer than 3 values (σ is meaningless).
/// * [`StatsError::DegenerateSample`] if σ = 0.
/// * [`StatsError::NonFiniteSample`] on NaN/∞ inputs.
///
/// # Examples
///
/// ```
/// // Mostly-flat failure rates with two hot positions.
/// let mut fr = vec![1.0; 40];
/// fr[22] = 3.0;
/// fr[35] = 2.8;
/// let hits = dcf_stats::anomaly::sigma_outliers(&fr, 2.0).unwrap();
/// let idx: Vec<usize> = hits.iter().map(|a| a.index).collect();
/// assert_eq!(idx, vec![22, 35]);
/// ```
pub fn sigma_outliers(values: &[f64], k_sigma: f64) -> Result<Vec<Anomaly>, StatsError> {
    let band = SigmaBand::fit(values.iter().copied())?;
    let mut out: Vec<Anomaly> = values
        .iter()
        .enumerate()
        .filter_map(|(index, &value)| {
            band.outlier_z(value, k_sigma).map(|z_score| Anomaly {
                index,
                value,
                z_score,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.z_score
            .abs()
            .partial_cmp(&a.z_score.abs())
            .expect("finite z-scores")
    });
    Ok(out)
}

/// The z-score of the last entry of `window` when the μ ± kσ test over the
/// window flags it: the `z_score` [`sigma_outliers`] reports for the last
/// index, bit for bit, computed without allocating.
///
/// # Errors
///
/// As [`sigma_outliers`].
pub fn last_point_z<I>(window: I, k_sigma: f64) -> Result<Option<f64>, StatsError>
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    let window = window.into_iter();
    let band = SigmaBand::fit(window.clone())?;
    Ok(window.last().and_then(|last| band.outlier_z(last, k_sigma)))
}

/// The μ ± kσ band of a sample: its mean and population (1/n) standard
/// deviation, the one estimate every σ test here flags against.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SigmaBand {
    /// The sample mean μ.
    mean: f64,
    /// The population standard deviation σ (positive).
    std: f64,
}

impl SigmaBand {
    /// Estimates μ and σ over `values`, summed in iteration order.
    ///
    /// # Errors
    ///
    /// As [`sigma_outliers`].
    fn fit<I>(values: I) -> Result<Self, StatsError>
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let (mut len, mut non_finite) = (0usize, None);
        for v in values.clone() {
            len += 1;
            if !v.is_finite() && non_finite.is_none() {
                non_finite = Some(v);
            }
        }
        if len < 3 {
            return Err(StatsError::EmptySample);
        }
        if let Some(value) = non_finite {
            return Err(StatsError::NonFiniteSample { value });
        }
        let n = len as f64;
        let mean = values.clone().sum::<f64>() / n;
        let var = values.map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        if var <= 0.0 {
            return Err(StatsError::DegenerateSample);
        }
        Ok(Self {
            mean,
            std: var.sqrt(),
        })
    }

    /// The z-score of `value` when it lies outside `mean ± k_sigma · std`.
    fn outlier_z(&self, value: f64, k_sigma: f64) -> Option<f64> {
        let z_score = (value - self.mean) / self.std;
        (z_score.abs() > k_sigma).then_some(z_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_input_is_degenerate() {
        assert!(matches!(
            sigma_outliers(&[1.0, 1.0, 1.0, 1.0], 2.0),
            Err(StatsError::DegenerateSample)
        ));
    }

    #[test]
    fn short_input_rejected() {
        assert!(matches!(
            sigma_outliers(&[1.0, 2.0], 2.0),
            Err(StatsError::EmptySample)
        ));
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert!(matches!(
            sigma_outliers(&[], 2.0),
            Err(StatsError::EmptySample)
        ));
        assert!(matches!(
            sigma_outliers(&[1.0], 2.0),
            Err(StatsError::EmptySample)
        ));
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        assert!(matches!(
            sigma_outliers(&[1.0, f64::NAN, 3.0], 2.0),
            Err(StatsError::NonFiniteSample { .. })
        ));
    }

    #[test]
    fn no_outliers_in_mild_noise() {
        let values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98];
        let hits = sigma_outliers(&values, 2.0).unwrap();
        assert!(hits.len() <= 1, "at most one borderline hit, got {hits:?}");
    }

    #[test]
    fn ordering_is_by_extremity() {
        let mut values = vec![1.0; 30];
        values[5] = 10.0; // most extreme
        values[9] = 6.0;
        let hits = sigma_outliers(&values, 2.0).unwrap();
        assert_eq!(hits[0].index, 5);
        assert_eq!(hits[1].index, 9);
        assert!(hits[0].z_score > hits[1].z_score);
    }

    #[test]
    fn last_point_z_is_the_last_hit_of_the_full_test() {
        let mut values = vec![3.0; 29];
        values[4] = 1.0;
        for last in [3.0, 3.5, 9.0, -4.0] {
            values.push(last);
            let full = sigma_outliers(&values, 2.0)
                .unwrap()
                .iter()
                .find(|a| a.index == values.len() - 1)
                .map(|a| a.z_score.to_bits());
            let fast = last_point_z(values.iter().copied(), 2.0).unwrap();
            assert_eq!(fast.map(f64::to_bits), full, "last {last}");
            values.pop();
        }
        assert!(matches!(
            last_point_z([2.0; 5], 2.0),
            Err(StatsError::DegenerateSample)
        ));
        assert!(matches!(
            last_point_z([1.0, f64::INFINITY], 2.0),
            Err(StatsError::EmptySample)
        ));
    }

    #[test]
    fn detects_low_side_outliers_too() {
        let mut values = vec![10.0; 30];
        values[3] = 0.0;
        let hits = sigma_outliers(&values, 2.0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].index, 3);
        assert!(hits[0].z_score < 0.0);
    }
}
