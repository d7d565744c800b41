//! Property-based tests for the Eq. 2 solver under its full option
//! surface: domain floors, balance regularization, bounds.

use proptest::prelude::*;
use saba_math::{
    minimize_weights, solve_dual, OptimizeError, Polynomial, SolveScratch, WeightProblem,
};

/// A convex decreasing quadratic `c0 − a·x + b·x²` with `a ≥ 2b` so it
/// is decreasing on [0, 1].
fn arb_convex_model() -> impl Strategy<Value = Polynomial> {
    (0.5f64..8.0, 0.1f64..2.0).prop_map(|(a, b_frac)| {
        let b = 0.5 * a * b_frac.min(0.99) / 2.0;
        Polynomial::new(vec![1.0 + a, -a, b])
    })
}

proptest! {
    /// The constraint and bounds always hold, whatever the options.
    #[test]
    fn solution_always_feasible(
        models in prop::collection::vec(arb_convex_model(), 1..24),
        cap_pct in 50u32..=100,
        reg in 0.0f64..2.0,
        floors in prop::collection::vec(0.0f64..0.3, 1..24),
    ) {
        let n = models.len();
        let cap = cap_pct as f64 / 100.0;
        let lo = (0.02f64).min(cap / (2.0 * n as f64));
        let problem = WeightProblem {
            domain_floors: floors.iter().copied().cycle().take(n).collect(),
            models,
            capacity: cap,
            min_weight: lo,
            max_weight: cap,
            balance_reg: reg,
        };
        let sol = minimize_weights(&problem).unwrap();
        let total: f64 = sol.weights.iter().sum();
        prop_assert!((total - cap).abs() < 1e-6, "sum {total} != cap {cap}");
        for &w in &sol.weights {
            prop_assert!(w >= lo - 1e-9 && w <= cap + 1e-9);
        }
        prop_assert!(sol.objective.is_finite());
    }

    /// With two models differing only in steepness, the steeper one
    /// never receives less weight.
    #[test]
    fn steeper_model_never_disadvantaged(
        a in 1.0f64..6.0,
        extra in 0.5f64..4.0,
        reg in 0.0f64..0.5,
    ) {
        let b = 0.3 * a;
        let shallow = Polynomial::new(vec![1.0 + a, -a, b]);
        let steep = Polynomial::new(vec![1.0 + a + extra, -(a + extra), b]);
        let problem = WeightProblem {
            balance_reg: reg,
            ..WeightProblem::new(vec![steep, shallow], 1.0)
        };
        let sol = minimize_weights(&problem).unwrap();
        prop_assert!(
            sol.weights[0] >= sol.weights[1] - 1e-6,
            "steep {} < shallow {}",
            sol.weights[0],
            sol.weights[1]
        );
    }

    /// The solver's result is never worse than the equal split.
    #[test]
    fn at_least_as_good_as_equal_split(
        models in prop::collection::vec(arb_convex_model(), 2..16),
        reg in 0.0f64..1.0,
    ) {
        let n = models.len();
        let problem = WeightProblem {
            balance_reg: reg,
            ..WeightProblem::new(models, 1.0)
        };
        let equal = vec![1.0 / n as f64; n];
        let sol = minimize_weights(&problem).unwrap();
        prop_assert!(sol.objective <= problem.objective(&equal) + 1e-9);
    }

    /// A very large balance regularizer pins the solution at the equal
    /// split (the regularizer dominates).
    #[test]
    fn huge_regularizer_equalizes(models in prop::collection::vec(arb_convex_model(), 2..10)) {
        let n = models.len();
        let problem = WeightProblem {
            balance_reg: 1e6,
            ..WeightProblem::new(models, 1.0)
        };
        let sol = minimize_weights(&problem).unwrap();
        for &w in &sol.weights {
            prop_assert!((w - 1.0 / n as f64).abs() < 1e-3, "{:?}", sol.weights);
        }
    }

    /// KKT stationarity on strictly convex instances: at the optimum
    /// there is one multiplier λ for the coupling constraint Σw = C —
    /// every *interior* weight's marginal slowdown equals λ, weights
    /// pinned at the lower bound have marginals ≥ λ, and weights pinned
    /// at the upper bound have marginals ≤ λ. This is the textbook
    /// optimality certificate for Eq. 2, checked from first principles
    /// rather than by trusting the solver's own convergence flag.
    #[test]
    fn kkt_stationarity_on_convex_fits(
        models in prop::collection::vec(arb_convex_model(), 2..12),
        reg in 0.01f64..0.5,
    ) {
        let n = models.len();
        let problem = WeightProblem {
            balance_reg: reg,
            ..WeightProblem::new(models, 1.0)
        };
        let (lo, hi) = (problem.min_weight, problem.max_weight);
        let sol = minimize_weights(&problem).unwrap();
        let mean = problem.capacity / n as f64;
        let grad: Vec<f64> = problem
            .models
            .iter()
            .zip(&sol.weights)
            .map(|(m, &w)| m.eval_derivative(w) + 2.0 * reg * (w - mean))
            .collect();
        let edge = 1e-7;
        let interior: Vec<f64> = sol
            .weights
            .iter()
            .zip(&grad)
            .filter(|&(&w, _)| w > lo + edge && w < hi - edge)
            .map(|(_, &g)| g)
            .collect();
        if interior.is_empty() {
            return Ok(());
        }
        let lambda = interior.iter().sum::<f64>() / interior.len() as f64;
        // The solver polishes to its own gradient tolerance and then
        // re-projects onto the capped simplex, which perturbs marginals
        // by O(1e-3) on flat objectives — certify to that resolution.
        let tol = 5e-3 * (1.0 + lambda.abs());
        for &g in &interior {
            prop_assert!((g - lambda).abs() <= tol, "interior marginal {g} vs λ {lambda}");
        }
        for (&w, &g) in sol.weights.iter().zip(&grad) {
            if w <= lo + edge {
                prop_assert!(g >= lambda - tol, "at lower bound: marginal {g} < λ {lambda}");
            } else if w >= hi - edge {
                prop_assert!(g <= lambda + tol, "at upper bound: marginal {g} > λ {lambda}");
            }
        }
    }

    /// Degenerate single-application port: the coupling constraint pins
    /// the only weight at the full capacity, whatever the model, cap,
    /// or regularizer.
    #[test]
    fn single_app_port_gets_everything(
        model in arb_convex_model(),
        cap_pct in 10u32..=100,
        reg in 0.0f64..10.0,
    ) {
        let cap = cap_pct as f64 / 100.0;
        let problem = WeightProblem {
            balance_reg: reg,
            ..WeightProblem::new(vec![model], cap)
        };
        let sol = minimize_weights(&problem).unwrap();
        prop_assert_eq!(sol.weights.len(), 1);
        prop_assert!((sol.weights[0] - cap).abs() < 1e-9, "{} != {cap}", sol.weights[0]);
    }

    /// Degenerate bounds: when `n·lo = C` the feasible set is a single
    /// point and the solver must land on it exactly.
    #[test]
    fn pinned_bounds_leave_no_freedom(
        models in prop::collection::vec(arb_convex_model(), 2..8),
    ) {
        let n = models.len();
        let lo = 1.0 / n as f64;
        let problem = WeightProblem {
            min_weight: lo,
            ..WeightProblem::new(models, 1.0)
        };
        let sol = minimize_weights(&problem).unwrap();
        for &w in &sol.weights {
            prop_assert!((w - lo).abs() < 1e-9, "{:?}", sol.weights);
        }
    }

    /// Domain floors never break determinism: same problem, same answer.
    #[test]
    fn solver_is_deterministic(
        models in prop::collection::vec(arb_convex_model(), 1..12),
        floor in 0.0f64..0.2,
    ) {
        let n = models.len();
        let problem = WeightProblem {
            domain_floors: vec![floor; n],
            balance_reg: 0.1,
            ..WeightProblem::new(models, 1.0)
        };
        let a = minimize_weights(&problem).unwrap();
        let b = minimize_weights(&problem).unwrap();
        prop_assert_eq!(a.weights, b.weights);
    }
}

// ------------------------------------------------ the exact dual solve

/// A random problem `solve_dual` qualifies for: 1–64 strictly convex
/// quadratics; domain floors below the lower bound, between the bounds
/// and above the upper bound; a regularizer that is absent (floors then
/// stay under the lower bound), tiny, or ordinary; and every so often
/// the all-pinned corner `n·lo = C`.
fn arb_qualifying() -> impl Strategy<Value = WeightProblem> {
    arb_qualifying_of(1..=64)
}

/// [`arb_qualifying`] with `apps` quadratics.
fn arb_qualifying_of(
    apps: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = WeightProblem> {
    (
        prop::collection::vec((0.5f64..10.0, 0.05f64..3.0, 0u8..4, 0.0f64..1.0), apps),
        50u32..=100,
        0u8..4,
        0.01f64..2.0,
        0u8..8,
    )
        .prop_map(|(apps, cap_pct, reg_kind, reg, pin)| {
            let n = apps.len();
            let cap = cap_pct as f64 / 100.0;
            let balance_reg = match reg_kind {
                0 => 0.0,
                1 => 1e-7,
                _ => reg,
            };
            let lo = if pin == 0 {
                cap / n as f64
            } else {
                (0.02f64).min(cap / (2.0 * n as f64))
            };
            let domain_floors = apps
                .iter()
                .map(|&(.., kind, u)| match kind {
                    _ if balance_reg == 0.0 => lo * u,
                    0 => lo * u,
                    1 | 2 => lo + (cap - lo) * u,
                    _ => cap + 1.0 + u,
                })
                .collect();
            WeightProblem {
                models: apps
                    .iter()
                    .map(|&(a, c2, ..)| Polynomial::new(vec![1.0 + a, -a, c2]))
                    .collect(),
                domain_floors,
                capacity: cap,
                min_weight: lo,
                max_weight: cap,
                balance_reg,
            }
        })
}

/// `gᵢ(wᵢ)`: the marginal of coordinate `i`, regularizer included.
fn marginal(p: &WeightProblem, i: usize, w: f64) -> f64 {
    let mean = p.capacity / p.models.len() as f64;
    p.models[i].eval_derivative(w.max(p.domain_floors[i])) + 2.0 * p.balance_reg * (w - mean)
}

/// Largest violation of the KKT conditions of Eq. 2 at `w`: free
/// coordinates share one marginal `λ`, coordinates pinned low have
/// marginals ≥ `λ`, coordinates pinned high have marginals ≤ `λ`.
fn kkt_residual(p: &WeightProblem, w: &[f64]) -> f64 {
    let (lo, hi) = (p.min_weight, p.max_weight);
    let g: Vec<f64> = (0..w.len()).map(|i| marginal(p, i, w[i])).collect();
    let free: Vec<f64> = (0..w.len())
        .filter(|&i| w[i] > lo && w[i] < hi)
        .map(|i| g[i])
        .collect();
    let pinned_hi = (0..w.len()).filter(|&i| w[i] >= hi).map(|i| g[i]);
    let pinned_lo = (0..w.len()).filter(|&i| w[i] <= lo).map(|i| g[i]);
    // Without a free coordinate any λ between the two pinned groups
    // certifies the point: take the lowest one that suits the high group.
    let (lam_min, lam_max) = if free.is_empty() {
        let lam = pinned_hi.clone().fold(f64::NEG_INFINITY, f64::max);
        (lam, lam)
    } else {
        (
            free.iter().copied().fold(f64::INFINITY, f64::min),
            free.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let spread = if free.is_empty() {
        0.0
    } else {
        lam_max - lam_min
    };
    let over = pinned_hi.map(|gi| gi - lam_min);
    let under = pinned_lo.map(|gi| lam_max - gi);
    over.chain(under).fold(spread, f64::max)
}

proptest! {
    /// The dual solve's certificate, from first principles: KKT to
    /// 1e-12, the capacity constraint to rounding, bounds exactly.
    #[test]
    fn dual_solution_is_the_kkt_point(problem in arb_qualifying()) {
        let n = problem.models.len();
        let sol = minimize_weights(&problem).unwrap();
        let (lo, hi, cap) = (problem.min_weight, problem.max_weight, problem.capacity);
        for &w in &sol.weights {
            prop_assert!(w >= lo && w <= hi, "{w} outside [{lo}, {hi}]");
        }
        let total: f64 = sol.weights.iter().sum();
        prop_assert!(
            (total - cap).abs() <= n as f64 * f64::EPSILON * cap,
            "sum {total:e} vs capacity {cap:e} at n = {n}"
        );
        let r = kkt_residual(&problem, &sol.weights);
        prop_assert!(r <= 1e-12, "KKT residual {r:e}: {:?}", sol.weights);
        prop_assert_eq!(sol.objective, problem.objective(&sol.weights));
    }

    /// The same certificate at the width of a datacenter port: 100 to
    /// 1,000 applications, KKT to 1e-9.
    #[test]
    fn dual_solution_is_the_kkt_point_at_width(problem in arb_qualifying_of(100..=1000)) {
        let n = problem.models.len();
        let sol = minimize_weights(&problem).unwrap();
        let (lo, hi, cap) = (problem.min_weight, problem.max_weight, problem.capacity);
        for &w in &sol.weights {
            prop_assert!(w >= lo && w <= hi, "{w} outside [{lo}, {hi}]");
        }
        let total: f64 = sol.weights.iter().sum();
        prop_assert!(
            (total - cap).abs() <= n as f64 * f64::EPSILON * cap,
            "sum {total:e} vs capacity {cap:e} at n = {n}"
        );
        let r = kkt_residual(&problem, &sol.weights);
        prop_assert!(r <= 1e-9, "KKT residual {r:e} at n = {n}");
    }

    /// Optimal from first principles, without a second solver: no
    /// feasible transfer of weight between two coordinates — small,
    /// large, or as far as the bounds allow — and no point on the
    /// segment toward the equal split has a lower objective.
    #[test]
    fn dual_beats_every_pairwise_transfer_and_the_equal_split_segment(
        problem in arb_qualifying(),
    ) {
        let n = problem.models.len();
        let (lo, hi, cap) = (problem.min_weight, problem.max_weight, problem.capacity);
        let w = minimize_weights(&problem).unwrap().weights;
        let f = problem.objective(&w);
        let tol = 1e-12 * (1.0 + f.abs());
        // The objective is separable: a transfer between `i` and `j`
        // changes their two terms and nothing else.
        let term = |i: usize, x: f64| {
            let (m, floor) = (&problem.models[i], problem.domain_floors[i]);
            let d = if x < floor {
                m.eval(floor) + m.eval_derivative(floor) * (x - floor)
            } else {
                m.eval(x)
            };
            let dev = x - cap / n as f64;
            d + problem.balance_reg * dev * dev
        };
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                // Weight moves from `j` to `i`; the reverse is the pair
                // `(j, i)`.
                let most = (hi - w[i]).min(w[j] - lo);
                for delta in [1e-3, 1e-2, 1e-1, most] {
                    let (wi, wj) = (w[i] + delta, w[j] - delta);
                    if delta <= 0.0 || wi > hi || wj < lo {
                        continue;
                    }
                    let change = term(i, wi) - term(i, w[i]) + term(j, wj) - term(j, w[j]);
                    prop_assert!(
                        change >= -tol,
                        "moving {delta:e} from {j} to {i} gains {:e}: {w:?}",
                        -change
                    );
                }
            }
        }
        let equal = cap / n as f64;
        for t in [1e-3, 1e-2, 0.1, 0.5, 1.0] {
            let toward: Vec<f64> = w.iter().map(|&x| x + t * (equal - x)).collect();
            let ft = problem.objective(&toward);
            prop_assert!(f <= ft + tol, "t = {t}: {f} > {ft}");
        }
    }

    /// A pure function of the problem: what earlier solves left in the
    /// scratch — a refused one's half-gathered arrays included — leaves
    /// no trace, bit for bit.
    #[test]
    fn dual_is_history_free(
        problem in arb_qualifying(),
        other in arb_qualifying(),
        cubic_term in 0.01f64..0.5,
    ) {
        let fresh = minimize_weights(&problem).unwrap();
        let mut scratch = SolveScratch::new();
        let mut solve = |p: &WeightProblem, out: &mut Vec<f64>| {
            solve_dual(
                p.models.iter().zip(p.domain_floors.iter().copied()),
                p.capacity,
                p.min_weight,
                p.max_weight,
                p.balance_reg,
                &mut scratch,
                out,
            )
        };
        // Before the solve under test: another problem, then one the
        // dual refuses part-way through its gather.
        let mut cubic = other.clone();
        let last = cubic.models.len() - 1;
        cubic.models[last] = Polynomial::new(vec![2.0, -1.0, 0.5, cubic_term]);
        let mut history = Vec::new();
        prop_assert!(solve(&other, &mut history));
        prop_assert!(!solve(&cubic, &mut history));
        let mut borrowed = Vec::new();
        prop_assert!(solve(&problem, &mut borrowed));
        prop_assert_eq!(&fresh.weights, &borrowed);
    }

    /// The solve appends: whatever the caller's buffer holds stays where
    /// it is, bit for bit (NaNs included), and what lands behind it is
    /// what `minimize_weights` returns for the same problem — so a
    /// controller may solve port after port into one buffer.
    #[test]
    fn dual_appends_behind_an_untouched_prefix(
        problem in arb_qualifying(),
        other in arb_qualifying(),
        prefix in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let want = minimize_weights(&problem).unwrap().weights;
        let mut scratch = SolveScratch::new();
        let mut out: Vec<f64> = prefix.iter().map(|&b| f64::from_bits(b)).collect();
        for p in [&other, &problem] {
            prop_assert!(solve_dual(
                p.models.iter().zip(p.domain_floors.iter().copied()),
                p.capacity,
                p.min_weight,
                p.max_weight,
                p.balance_reg,
                &mut scratch,
                &mut out,
            ));
        }
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mid = prefix.len() + other.models.len();
        prop_assert_eq!(&bits(&out[..prefix.len()]), &prefix);
        prop_assert_eq!(
            bits(&out[prefix.len()..mid]),
            bits(&minimize_weights(&other).unwrap().weights)
        );
        prop_assert_eq!(bits(&out[mid..]), bits(&want));
    }

    /// Permuting the applications permutes the weights.
    #[test]
    fn dual_is_permutation_equivariant(problem in arb_qualifying(), shift in 1usize..64) {
        let n = problem.models.len();
        let rotated = WeightProblem {
            models: (0..n).map(|i| problem.models[(i + shift) % n].clone()).collect(),
            domain_floors: (0..n).map(|i| problem.domain_floors[(i + shift) % n]).collect(),
            ..problem.clone()
        };
        let a = minimize_weights(&problem).unwrap();
        let b = minimize_weights(&rotated).unwrap();
        for i in 0..n {
            let (x, y) = (a.weights[(i + shift) % n], b.weights[i]);
            prop_assert!((x - y).abs() <= 1e-14, "position {i}: {x} vs {y}");
        }
    }

    /// Identical models split the capacity evenly, exactly at the mean.
    #[test]
    fn dual_splits_identical_models_evenly(
        n in 1usize..=64,
        a in 0.5f64..10.0,
        c2 in 0.05f64..3.0,
        reg in 0.0f64..2.0,
    ) {
        let problem = WeightProblem {
            balance_reg: reg,
            min_weight: 0.0,
            ..WeightProblem::new(vec![Polynomial::new(vec![1.0 + a, -a, c2]); n], 1.0)
        };
        let sol = minimize_weights(&problem).unwrap();
        for &w in &sol.weights {
            prop_assert!((w - 1.0 / n as f64).abs() <= 1e-15, "{:?}", sol.weights);
        }
    }

    /// What does not qualify is refused with the typed error and never
    /// panics: a floor above the lower bound with no regularizer,
    /// non-positive curvature, a cubic and a non-finite coefficient —
    /// each on an otherwise qualifying problem.
    #[test]
    fn non_qualifying_inputs_return_the_typed_error(
        problem in arb_qualifying(),
        which in 0usize..64,
        cubic in 0.01f64..0.5,
    ) {
        let n = problem.models.len();
        prop_assume!(n >= 2 && problem.min_weight < problem.capacity / n as f64);
        let i = which % n;
        let c = problem.models[i].coeffs().to_vec();
        let mut scratch = SolveScratch::new();
        let mut refused = |p: &WeightProblem| -> Result<(), String> {
            let mut out = vec![f64::NAN];
            let accepted = solve_dual(
                p.models.iter().zip(p.domain_floors.iter().copied()),
                p.capacity,
                p.min_weight,
                p.max_weight,
                p.balance_reg,
                &mut scratch,
                &mut out,
            );
            if accepted {
                return Err("solve_dual accepted it".into());
            }
            if out.len() != 1 || !out[0].is_nan() {
                return Err(format!("a refused problem wrote {out:?}"));
            }
            match minimize_weights(p) {
                Err(OptimizeError::NotConvexQuadratic) => Ok(()),
                other => Err(format!("not refused: {other:?}")),
            }
        };

        let mut floored = problem.clone();
        floored.balance_reg = 0.0;
        floored.domain_floors[i] = 0.5 * (floored.min_weight + floored.max_weight);
        prop_assert_eq!(refused(&floored), Ok(()), "floor above lo, no regularizer");

        let mut concave = problem.clone();
        concave.models[i] = Polynomial::new(vec![c[0], c[1], -problem.balance_reg]);
        prop_assert_eq!(refused(&concave), Ok(()), "c2 + eps = 0");

        let mut degree3 = problem.clone();
        degree3.models[i] = Polynomial::new(vec![c[0], c[1], c[2], cubic]);
        prop_assert_eq!(refused(&degree3), Ok(()), "cubic");

        for bad in [f64::NAN, f64::INFINITY] {
            let mut non_finite = problem.clone();
            non_finite.models[i] = Polynomial::new(vec![c[0], bad, c[2]]);
            prop_assert_eq!(refused(&non_finite), Ok(()), "c1 = {}", bad);
        }
    }
}

// ------------------------------------- the search, pinned bit for bit

/// A problem for the bit pin: 2–64 quadratics from [`arb_qualifying`]
/// (floors below, between and above the bounds; no, tiny or ordinary
/// regularizer; capacity 0.5–1; the corner `n·lo = C` one time in
/// eight), pushed one time in eight into the other all-pinned corner,
/// `n·hi = C`, and one time in four given a twin of its first model, so
/// that breaks tie.
fn arb_bit_pinned() -> impl Strategy<Value = WeightProblem> {
    (arb_qualifying_of(2..=64), 0u8..8, 0u8..4).prop_map(|(mut p, corner, twin)| {
        let n = p.models.len();
        if corner == 0 && p.min_weight < p.capacity / n as f64 {
            p.max_weight = p.capacity / n as f64;
        }
        if twin == 0 {
            p.models[1] = p.models[0].clone();
            p.domain_floors[1] = p.domain_floors[0];
        }
        p
    })
}

/// `solve_dual` as it searched before its bracket search: the same
/// pieces and breaks, then the breaks sorted, `partition_point` for the
/// first at which Σw reaches the capacity, Σw evaluated again at both
/// ends of that segment, and the same Newton step. The oracle the
/// sort-free search is held to.
fn sorted_search(p: &WeightProblem) -> Vec<f64> {
    let (n, cap, lo, hi) = (p.models.len(), p.capacity, p.min_weight, p.max_weight);
    let pull = 2.0 * p.balance_reg * (cap / n as f64);
    let slope_below = 2.0 * p.balance_reg;
    let (mut pieces, mut breaks) = (Vec::new(), Vec::new());
    for (model, &floor) in p.models.iter().zip(&p.domain_floors) {
        let c = model.coeffs();
        let c1 = c.get(1).copied().unwrap_or(0.0);
        let c2 = c.get(2).copied().unwrap_or(0.0);
        let slope = 2.0 * c2 + slope_below;
        let icpt = c1 - pull;
        let icpt_below = c1 + 2.0 * c2 * floor - pull;
        let marginal = |w: f64| {
            if w >= floor {
                icpt + slope * w
            } else {
                icpt_below + slope_below * w
            }
        };
        breaks.push(marginal(lo));
        breaks.push(marginal(hi));
        let kink = if floor > lo {
            breaks.push(marginal(floor));
            marginal(floor)
        } else {
            f64::NEG_INFINITY
        };
        pieces.push((icpt, slope, icpt_below, kink));
    }
    let piece = |i: usize, lam: f64| {
        let (icpt, slope, icpt_below, kink) = pieces[i];
        if lam >= kink {
            (icpt, slope)
        } else {
            (icpt_below, slope_below)
        }
    };
    let weight = |i: usize, lam: f64| {
        let (icpt, slope) = piece(i, lam);
        ((lam - icpt) / slope).clamp(lo, hi)
    };
    breaks.sort_unstable_by(f64::total_cmp);
    let total = |lam: f64| -> f64 { (0..n).map(|i| weight(i, lam)).sum() };
    let k = breaks.partition_point(|&b| total(b) < cap);
    let lam = if k == 0 || k == breaks.len() {
        breaks[k.min(breaks.len() - 1)]
    } else {
        let (l0, l1) = (breaks[k - 1], breaks[k]);
        let (s0, s1) = (total(l0), total(l1));
        l0 + (cap - s0) / (s1 - s0) * (l1 - l0)
    };
    let mut w: Vec<f64> = (0..n).map(|i| weight(i, lam)).collect();
    let free = |x: f64| x > lo && x < hi;
    let give = |i: usize| 1.0 / piece(i, lam).1;
    let residual = cap - w.iter().sum::<f64>();
    let total_give: f64 = (0..n).filter(|&i| free(w[i])).map(give).sum();
    if residual != 0.0 && total_give > 0.0 {
        for (i, x) in w.iter_mut().enumerate().filter(|(_, x)| free(**x)) {
            *x = (*x + residual * give(i) / total_give).clamp(lo, hi);
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The bracket search over the unsorted breaks lands on the sorted
    /// search's segment with its sums, so every weight is the oracle's
    /// bit for bit — interior crossings, both all-pinned corners, tied
    /// breaks, kinked and plain marginals alike.
    #[test]
    fn dual_search_is_the_sorted_search_bit_for_bit(problem in arb_bit_pinned()) {
        let mut got = Vec::new();
        prop_assert!(solve_dual(
            problem.models.iter().zip(problem.domain_floors.iter().copied()),
            problem.capacity,
            problem.min_weight,
            problem.max_weight,
            problem.balance_reg,
            &mut SolveScratch::new(),
            &mut got,
        ));
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&got), bits(&sorted_search(&problem)));
    }
}
