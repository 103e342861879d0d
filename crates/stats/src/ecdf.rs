//! Empirical cumulative distribution functions — every CDF figure in the
//! paper (Figures 5, 7, 9, 10) is an ECDF of some derived quantity.

use crate::error::StatsError;

/// An empirical CDF over a finite sample.
///
/// Construction sorts the sample once; evaluation and quantiles are then
/// `O(log n)` / `O(1)`.
///
/// # Examples
///
/// ```
/// use dcf_stats::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert!((e.eval(2.0) - 0.5).abs() < 1e-12);
/// assert!((e.quantile(0.5) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (takes ownership and sorts it).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] on an empty sample and
    /// [`StatsError::NonFiniteSample`] if any observation is NaN/±∞.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptySample);
        }
        for &x in &sample {
            if !x.is_finite() {
                return Err(StatsError::NonFiniteSample { value: x });
            }
        }
        if sample.len() >= RADIX_MIN && sample.iter().all(|x| x.is_sign_positive()) {
            radix_sort_non_negative(&mut sample);
        } else {
            sample.sort_by(|a, b| a.partial_cmp(b).expect("all finite"));
        }
        Ok(Self { sorted: sample })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (nearest-rank definition) for `p ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires 0 <= p <= 1, got {p}"
        );
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The sample median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Fraction of observations strictly greater than `x` — the paper's
    /// "10% of FOTs have RT longer than 140 days" style of statement.
    pub fn tail_fraction(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }

    /// The sorted observations.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// `(x, F(x))` pairs at each observation — the staircase the figures plot.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }

    /// Downsamples the staircase to at most `max_points` evenly spaced points,
    /// for plotting large ECDFs.
    pub fn sampled_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let max_points = max_points.max(2);
        let n = self.sorted.len();
        if n <= max_points {
            return self.points().collect();
        }
        (0..max_points)
            .map(|i| {
                let idx = i * (n - 1) / (max_points - 1);
                (self.sorted[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }
}

/// Samples below this size sort by comparison.
const RADIX_MIN: usize = 1 << 10;

/// Sorts finite values with a clear sign bit (`+0.0` and up) ascending,
/// as [`Ecdf::new`]'s comparison sort would.
///
/// For such values the bit patterns, read as integers, order exactly as
/// the numbers do, and two values compare equal only when their bits are
/// equal; so an LSD radix sort over the bits (11 bits a pass, skipping
/// passes whose digit is the same for every value) gives the same
/// sequence, bit for bit, in a few linear passes.
fn radix_sort_non_negative(values: &mut Vec<f64>) {
    const BITS: u32 = 11;
    const BUCKETS: usize = 1 << BITS;
    const PASSES: usize = 64usize.div_ceil(BITS as usize);
    let digit =
        |v: f64, pass: usize| (v.to_bits() >> (pass as u32 * BITS)) as usize & (BUCKETS - 1);
    let mut counts = vec![[0usize; BUCKETS]; PASSES];
    for &v in values.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(v, pass)] += 1;
        }
    }
    let mut scratch = vec![0.0; values.len()];
    for (pass, count) in counts.iter_mut().enumerate() {
        if count.contains(&values.len()) {
            continue; // every value has this digit: the pass moves nothing
        }
        let mut next = 0;
        for c in count.iter_mut() {
            (*c, next) = (next, next + *c);
        }
        for &v in values.iter() {
            let at = &mut count[digit(v, pass)];
            scratch[*at] = v;
            *at += 1;
        }
        std::mem::swap(values, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The radix sort against the comparison sort, bit for bit, on
    /// samples with ties, zeros, subnormals, huge values and narrow
    /// ranges (where most passes are skipped).
    #[test]
    fn radix_sort_matches_the_comparison_sort() {
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let samples: Vec<Vec<f64>> = vec![
            (0..5_000).map(|_| (next() % 1_000) as f64 / 7.0).collect(),
            (0..3_000)
                .map(|_| f64::from_bits(next() % (1 << 62)))
                .collect(),
            (0..2_000)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE / 8.0,
                    2 => f64::MAX,
                    _ => 1.5,
                })
                .collect(),
            (0..4_096).map(|_| 1.0 + (next() % 64) as f64).collect(),
        ];
        for (case, sample) in samples.into_iter().enumerate() {
            let mut expect = sample.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mut sorted = sample;
            radix_sort_non_negative(&mut sorted);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sorted), bits(&expect), "case {case}");
        }
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn eval_is_a_step_function() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(1.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn quantiles_and_extremes() {
        let e = Ecdf::new((1..=100).map(f64::from).collect()).unwrap();
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.9), 90.0);
        assert_eq!(e.median(), 50.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
    }

    #[test]
    fn tail_fraction_matches_paper_style_claims() {
        let e = Ecdf::new((1..=100).map(f64::from).collect()).unwrap();
        // 10 of 100 observations exceed 90.
        assert!((e.tail_fraction(90.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn points_are_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 4.0, 4.0, 2.0]).unwrap();
        let pts: Vec<_> = e.points().collect();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_points_bounds_count_and_keeps_ends() {
        let e = Ecdf::new((0..10_000).map(f64::from).collect()).unwrap();
        let pts = e.sampled_points(100);
        assert_eq!(pts.len(), 100);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts.last().unwrap().0, 9999.0);
    }
}
