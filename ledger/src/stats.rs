//! Order statistics the ledger reports: medians, the supportable tail
//! percentile, and the quartile spread `compare` judges repeatability by.

/// Sorts `v` ascending (timings are finite by construction).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (sorts a copy).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    percentile(&s, 0.5)
}

/// The tail rule: the highest of p99 / p90 that still has at least ten
/// samples beyond it, else the median. Returns `(q, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    for q in [0.99, 0.90] {
        let beyond = sorted.len() - (q * sorted.len() as f64).ceil() as usize;
        if beyond >= 10 {
            return (q, percentile(sorted, q));
        }
    }
    (0.5, percentile(sorted, 0.5))
}

/// Median cost per op over the slices of a timed region, given
/// `(cost, ops)` per slice. A slice the host's other tenants disturbed
/// (this sandbox slows by 10–30 % for seconds at a time) moves a mean
/// but not the median; slices without ops are skipped.
pub fn median_slice(slices: &[(f64, u64)]) -> f64 {
    let per_op: Vec<f64> = slices
        .iter()
        .filter(|&&(_, ops)| ops > 0)
        .map(|&(cost, ops)| cost / ops as f64)
        .collect();
    median(&per_op)
}

/// Quartile spread: `(Q3 − Q1) / median` with Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) — the figure the
/// benchmark contract bounds. Fewer than four values fall back to
/// `(max − min) / median`; a single value has no spread.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    let med = if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    };
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    if n < 4 {
        return (s[n - 1] - s[0]) / med.abs();
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // 1,000 samples: exactly ten lie beyond p99.
        assert_eq!(tail(&v(1000)), (0.99, 990.0));
        // 999 samples leave nine beyond p99, so the rule drops to p90.
        assert_eq!(tail(&v(999)).0, 0.90);
        assert_eq!(tail(&v(100)), (0.90, 90.0));
        // Too few for any tail: the median stands in.
        assert_eq!(tail(&v(99)), (0.5, 50.0));
        assert_eq!(tail(&v(7)), (0.5, 4.0));
    }

    #[test]
    fn median_of_slices_ignores_a_disturbed_slice() {
        // Five slices of a closed loop; the third stalled on the disk
        // and cost three times the CPU per op.
        let slices = [
            (0.030, 100),
            (0.0312, 104),
            (0.009, 10),
            (0.0294, 98),
            (0.0306, 102),
        ];
        assert!((median_slice(&slices) - 0.0003).abs() < 1e-12);
        // The pooled mean would have moved: 0.1302 s / 414 ops.
        let pooled = slices.iter().map(|s| s.0).sum::<f64>() / 414.0;
        assert!(pooled > 0.000314);
        // Same for the slice rates (ops per slice second).
        assert_eq!(median(&[100.0, 104.0, 10.0, 98.0, 102.0]), 100.0);
        // A slice that completed nothing is not a sample.
        assert_eq!(median_slice(&[(0.2, 0), (0.5, 10)]), 0.05);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
        assert!((quartile_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
