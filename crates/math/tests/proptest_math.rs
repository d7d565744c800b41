//! Property-based tests for the numeric substrate.

use proptest::prelude::*;
use saba_math::linalg::{dist, midpoint};
use saba_math::stats::{geometric_mean, mean, percentile, Ecdf};
use saba_math::{kmeans, polyfit, r_squared, Dendrogram, KMeansConfig, Polynomial};

fn small_coeffs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, 1..=4)
}

proptest! {
    /// Fitting noiseless samples from a polynomial of degree k with a
    /// degree-k model recovers the polynomial (R² == 1).
    #[test]
    fn polyfit_exact_on_noiseless_data(coeffs in small_coeffs()) {
        let truth = Polynomial::new(coeffs);
        let k = truth.degree();
        // Distinct abscissae spanning the profiler's range.
        let xs: Vec<f64> = (0..(k + 4)).map(|i| 0.05 + 0.13 * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit(&xs, &ys, k).unwrap();
        prop_assert!((fit.r_squared - 1.0).abs() < 1e-6, "r2 = {}", fit.r_squared);
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((fit.poly.eval(x) - y).abs() < 1e-5);
        }
    }

    /// R² never exceeds 1 for any model and sample set.
    #[test]
    fn r_squared_at_most_one(
        coeffs in small_coeffs(),
        ys in prop::collection::vec(-10.0f64..10.0, 3..12),
    ) {
        let model = Polynomial::new(coeffs);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64 * 0.1).collect();
        let r2 = r_squared(&model, &xs, &ys);
        prop_assert!(r2 <= 1.0 + 1e-12);
    }

    /// Horner evaluation equals naive power-sum evaluation.
    #[test]
    fn poly_eval_matches_naive(coeffs in small_coeffs(), x in -3.0f64..3.0) {
        let p = Polynomial::new(coeffs.clone());
        let naive: f64 = coeffs.iter().enumerate().map(|(i, &c)| c * x.powi(i as i32)).sum();
        prop_assert!((p.eval(x) - naive).abs() < 1e-7 * (1.0 + naive.abs()));
    }

    /// The derivative matches a central finite difference.
    #[test]
    fn derivative_matches_finite_difference(coeffs in small_coeffs(), x in -2.0f64..2.0) {
        let p = Polynomial::new(coeffs);
        let h = 1e-5;
        let fd = (p.eval(x + h) - p.eval(x - h)) / (2.0 * h);
        prop_assert!((p.eval_derivative(x) - fd).abs() < 1e-4 * (1.0 + fd.abs()));
    }

    /// K-means always produces a valid partition: every point assigned,
    /// assignments in range, inertia non-negative.
    #[test]
    fn kmeans_partition_invariants(
        seed in 0u64..1000,
        n in 1usize..40,
        k in 1usize..10,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 7) as f64 * 1.3, (i % 3) as f64 - (seed % 5) as f64 * 0.1])
            .collect();
        let res = kmeans(&points, &KMeansConfig { k, ..Default::default() }, &mut rng);
        prop_assert_eq!(res.assignments.len(), n);
        prop_assert!(!res.centroids.is_empty());
        prop_assert!(res.centroids.len() <= k.min(n));
        for &a in &res.assignments {
            prop_assert!(a < res.centroids.len());
        }
        prop_assert!(res.inertia >= 0.0);
    }

    /// Dendrogram: every level is a partition of the leaves, and the
    /// number of clusters decreases by exactly one per level.
    #[test]
    fn dendrogram_levels_are_partitions(n in 1usize..12, seed in 0u64..100) {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i as u64 * 2654435761 + seed) % 97) as f64 * 0.1])
            .collect();
        let d = Dendrogram::build(&points);
        for level in 1..=n {
            let clusters = d.clusters_at_level(level);
            prop_assert_eq!(clusters.len(), n - (level - 1));
            let mut all: Vec<usize> = clusters.iter().flat_map(|c| c.leaves.clone()).collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    /// best_level returns a level whose restriction to the subset has at
    /// most the requested number of clusters, and it is the first such.
    #[test]
    fn best_level_is_first_feasible(
        n in 2usize..12,
        q in 1usize..6,
        mask in 1u32..4096,
    ) {
        let points: Vec<Vec<f64>> = (0..n).map(|i| vec![(i * i) as f64 * 0.7]).collect();
        let d = Dendrogram::build(&points);
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        prop_assume!(!subset.is_empty());
        let level = d.best_level(&subset, q);
        let count_at = |lvl: usize| {
            let mut ids: Vec<usize> = subset.iter().map(|&l| d.cluster_of(lvl, l)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        prop_assert!(count_at(level) <= q);
        if level > 1 {
            prop_assert!(count_at(level - 1) > q, "level {} not minimal", level);
        }
    }

    /// Geometric mean lies between min and max and below arithmetic mean.
    #[test]
    fn geomean_bounds(xs in prop::collection::vec(0.1f64..10.0, 1..30)) {
        let g = geometric_mean(&xs).unwrap();
        let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= mn - 1e-9 && g <= mx + 1e-9);
        prop_assert!(g <= mean(&xs).unwrap() + 1e-9);
    }

    /// Percentiles are monotone in p and bracketed by the sample range.
    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-50.0f64..50.0, 1..40)) {
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = percentile(&xs, p).unwrap();
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    /// ECDF is monotone non-decreasing and ends at probability 1.
    #[test]
    fn ecdf_monotone(xs in prop::collection::vec(-10.0f64..10.0, 1..50)) {
        let e = Ecdf::new(&xs);
        let pts = e.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts[pts.len() - 1].1 - 1.0).abs() < 1e-12);
    }

    /// Midpoint is equidistant from both endpoints.
    #[test]
    fn midpoint_equidistant(
        a in prop::collection::vec(-10.0f64..10.0, 1..6),
        b_seed in -10.0f64..10.0,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x + b_seed).collect();
        let m = midpoint(&a, &b);
        prop_assert!((dist(&a, &m) - dist(&b, &m)).abs() < 1e-9);
    }
}
