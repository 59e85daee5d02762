//! Order statistics shared by the load generator, the layer probes and
//! `compare`.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 for
/// an empty one. Sorts a copy, so the caller's order is left alone.
pub fn percentile(values: &[u64], p: u32) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as u64 * u64::from(p)).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Median of a float sample (mean of the two middle values for an even
/// count); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile (`q` in 0..=1) of an unsorted float sample; 0
/// for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// spread printed here is the spread the acceptance procedure measures.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `None` when the
/// sample is too small or its median is zero.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Sorts samples `(instant, value)` into the slices bounded by `bounds`
/// (ascending; `n + 1` bounds make `n` slices, each closed below and open
/// above). Samples outside every slice are dropped.
pub fn into_slices(bounds: &[u64], samples: impl Iterator<Item = (u64, u64)>) -> Vec<Vec<u64>> {
    let mut slices = vec![Vec::new(); bounds.len().saturating_sub(1)];
    for (at, value) in samples {
        let after = bounds.partition_point(|&b| b <= at);
        if after >= 1 && after < bounds.len() {
            slices[after - 1].push(value);
        }
    }
    slices
}

/// `y` at `x` on the polyline through `points` (ascending in `x`),
/// clamped to its first and last point; 0 for no points.
pub fn interpolate(points: &[(f64, f64)], x: f64) -> f64 {
    let Some(&(_, last)) = points.last() else {
        return 0.0;
    };
    for pair in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
        if x <= x0 {
            return y0;
        }
        if x < x1 {
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        assert_eq!(quantile(&v, 1.0), 8.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // 4 slices of 1 s; the third holds a stall (2 completions, not 10).
        const S: u64 = 1_000_000_000;
        let mut ends = Vec::new();
        for s in [0u64, 1, 3] {
            ends.extend((0..10).map(|i| (s * S + i * 1_000, 7)));
        }
        ends.extend([(2 * S, 7), (2 * S + S / 2, 7)]);
        ends.push((4 * S, 7)); // at the last bound: outside
        let slices = into_slices(&[0, S, 2 * S, 3 * S, 4 * S], ends.into_iter());
        let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64).collect();
        assert_eq!(rates, vec![10.0, 10.0, 2.0, 10.0]);
        assert_eq!(median(&rates), 10.0);
        assert!(into_slices(&[5], [(5, 1)].into_iter()).is_empty());
    }

    #[test]
    fn interpolate_is_linear_and_clamped() {
        let points = [(0.0, 2.0), (10.0, 4.0), (20.0, 10.0)];
        assert_eq!(interpolate(&points, -1.0), 2.0);
        assert_eq!(interpolate(&points, 5.0), 3.0);
        assert_eq!(interpolate(&points, 10.0), 4.0);
        assert_eq!(interpolate(&points, 15.0), 7.0);
        assert_eq!(interpolate(&points, 99.0), 10.0);
        assert_eq!(interpolate(&[(3.0, 1.0)], 0.0), 1.0);
        assert_eq!(interpolate(&[], 0.0), 0.0);
    }
}
