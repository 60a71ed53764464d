//! Order statistics: medians, quantiles and the tail-percentile rule.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order).
/// `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile for `n` samples: the highest of p99, p95 and p90
/// that still leaves at least 10 samples beyond it, so the tail figure
/// is never one or two outliers. Below 100 samples no percentile
/// qualifies and the rule falls back to p90.
pub fn tail_percentile(n: usize) -> u32 {
    [99, 95, 90]
        .into_iter()
        .find(|&p| (n as f64) * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(90)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(40), 90);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&v), 2.5);
    }
}
