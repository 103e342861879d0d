//! Mean and median, the descriptive statistics the analysis crates report.

/// Mean of a slice; `None` when empty.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        None
    } else {
        Some(data.iter().sum::<f64>() / data.len() as f64)
    }
}

/// Median of a slice (nearest rank); `None` when empty. Does not require the
/// input to be sorted.
pub fn median(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    // The lower middle order statistic, selected rather than sorted.
    let mut values = data.to_vec();
    let mid = (values.len() - 1) / 2;
    let (_, median, _) =
        values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("comparable values"));
    Some(*median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_of_small_samples() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even counts take the lower middle (nearest rank), unsorted input.
        assert_eq!(mean(&[40.0, 10.0, 30.0, 20.0]), Some(25.0));
        assert_eq!(median(&[40.0, 10.0, 30.0, 20.0]), Some(20.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[]), None);
    }
}
