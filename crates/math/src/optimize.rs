//! The solver for the controller's weight-calculation problem (paper
//! Eq. 2):
//!
//! ```text
//!   minimize   Σᵢ Dᵢ(wᵢ)
//!   subject to Σᵢ wᵢ = C_saba,   lo ≤ wᵢ ≤ hi
//! ```
//!
//! where `Dᵢ` is application *i*'s polynomial sensitivity model and `wᵢ`
//! its bandwidth share at a switch output port. The paper uses NLopt's
//! SLSQP. Here one method covers the problem: the controllers hand it
//! **strictly convex quadratics** (every model of degree ≤ 2 with
//! positive curvature once the regularizer is added — the surrogates of
//! both controller flavours), which [`solve_dual`] solves *exactly*:
//! each marginal `Dᵢ′` is piecewise linear and increasing, so `wᵢ(λ)` is
//! closed-form and the multiplier of `Σwᵢ = C` follows from a search
//! over the breakpoints. No starts, no line search, no history — and
//! no allocation: it gathers into [`SolveScratch`] and appends the
//! weights to a buffer the caller owns, so a controller sweeping
//! thousands of ports solves each in place instead of remembering
//! solutions. Anything else (a cubic, a concave piece, a non-finite
//! coefficient) is refused with [`OptimizeError::NotConvexQuadratic`];
//! the controllers fit a convex quadratic surrogate to every model
//! before it gets here.

use crate::poly::Polynomial;
use std::cmp::Ordering;
use std::fmt;

/// The per-port weight allocation problem (Eq. 2).
#[derive(Debug, Clone)]
pub struct WeightProblem {
    /// Sensitivity model `Dᵢ` per application contending at the port.
    /// Models map bandwidth fraction (of full link capacity) → slowdown.
    pub models: Vec<Polynomial>,
    /// Per-model *domain floor*: the lowest bandwidth fraction the model
    /// was fitted on. Below it the polynomial is pure extrapolation, so
    /// the objective switches to a *linear extension* with the model's
    /// slope at the floor: monotone, trap-free, and faithful to the
    /// fitted trend. Empty means no floors.
    pub domain_floors: Vec<f64>,
    /// Total capacity fraction reserved for Saba (`C_saba`, §5.1).
    pub capacity: f64,
    /// Lower bound per weight. Must be ≥ 0; a small positive floor keeps
    /// every application live (WFQ starvation freedom, §5.2).
    pub min_weight: f64,
    /// Upper bound per weight (usually `capacity`).
    pub max_weight: f64,
    /// Strictly-convex balance regularizer `ε·Σ(wᵢ − C/n)²` added to
    /// the objective. In overloaded regimes (many contenders deep in
    /// their steep regions) the total-slowdown objective has a near-flat
    /// plateau of solutions; the regularizer breaks the tie toward the
    /// least-disruptive allocation, the equal split. Zero disables it.
    pub balance_reg: f64,
}

impl WeightProblem {
    /// Convenience constructor with `lo = 0.01`, `hi = capacity`, and no
    /// domain clamping.
    pub fn new(models: Vec<Polynomial>, capacity: f64) -> Self {
        let max_weight = capacity;
        Self {
            domain_floors: vec![0.0; models.len()],
            models,
            capacity,
            min_weight: (0.01f64).min(capacity),
            max_weight,
            balance_reg: 0.0,
        }
    }

    fn floor(&self, i: usize) -> f64 {
        self.domain_floors.get(i).copied().unwrap_or(0.0)
    }

    /// Objective value `Σ Dᵢ(wᵢ)` (linear extension below each model's
    /// domain floor) plus the balance regularizer.
    pub fn objective(&self, w: &[f64]) -> f64 {
        let mean = self.capacity / self.models.len() as f64;
        let base: f64 = self
            .models
            .iter()
            .enumerate()
            .zip(w)
            .map(|((i, m), &x)| {
                let lo = self.floor(i);
                if x < lo {
                    m.eval(lo) + m.eval_derivative(lo) * (x - lo)
                } else {
                    m.eval(x)
                }
            })
            .sum();
        let reg: f64 = w.iter().map(|&x| (x - mean) * (x - mean)).sum();
        base + self.balance_reg * reg
    }
}

/// Error from [`minimize_weights`].
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// No applications to allocate for.
    Empty,
    /// The bounds make the equality constraint unsatisfiable
    /// (`n·lo > C` or `n·hi < C`).
    Infeasible,
    /// Some model is not what [`solve_dual`] solves: a strictly convex
    /// quadratic with finite coefficients (degree above 2, non-positive
    /// curvature, or a domain floor above the lower bound with no
    /// regularizer to keep its linear extension's marginal rising).
    NotConvexQuadratic,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Empty => write!(f, "no applications in the weight problem"),
            OptimizeError::Infeasible => write!(f, "bounds are infeasible for the capacity"),
            OptimizeError::NotConvexQuadratic => {
                write!(f, "a model is not a strictly convex quadratic")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Solution of a [`WeightProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSolution {
    /// Optimal weights, summing to `capacity`.
    pub weights: Vec<f64>,
    /// Objective value at the solution.
    pub objective: f64,
}

/// Reusable buffers for repeated Eq. 2 solves.
///
/// The controllers solve one Eq. 2 problem per dirty port per epoch;
/// under churn the problems are small but frequent, and per-solve
/// allocations would dominate the exact dual solve (a few hundred
/// flops). Mirrors the `SharingScratch` pattern used by the fabric's
/// max-min sharing loop: the caller owns one scratch and threads it
/// through every solve; no result depends on what an earlier solve left
/// in it.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    dual: DualPorts,
}

impl SolveScratch {
    /// An empty scratch; buffers grow to the largest problem seen.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves Eq. 2 for the given problem: [`solve_dual`] over the
/// problem's models and floors, with the bounds checked and the
/// objective evaluated at the answer.
///
/// # Examples
///
/// ```
/// use saba_math::{minimize_weights, Polynomial, WeightProblem};
///
/// // A bandwidth-sensitive app (steep slowdown) and an insensitive one.
/// let sensitive = Polynomial::new(vec![6.0, -8.0, 3.0]);  // D(b) = 6 − 8b + 3b²
/// let insensitive = Polynomial::new(vec![1.5, -0.8, 0.3]);
/// let sol = minimize_weights(&WeightProblem::new(vec![sensitive, insensitive], 1.0)).unwrap();
/// // The sensitive application receives more bandwidth.
/// assert!(sol.weights[0] > sol.weights[1]);
/// let total: f64 = sol.weights.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn minimize_weights(problem: &WeightProblem) -> Result<WeightSolution, OptimizeError> {
    let n = problem.models.len();
    let (lo, hi, cap) = (problem.min_weight, problem.max_weight, problem.capacity);
    check_bounds(n, lo, hi, cap)?;
    let models = (0..n).map(|i| (&problem.models[i], problem.floor(i)));
    let mut weights = Vec::with_capacity(n);
    let scratch = &mut SolveScratch::new();
    if !solve_dual(
        models,
        cap,
        lo,
        hi,
        problem.balance_reg,
        scratch,
        &mut weights,
    ) {
        return Err(OptimizeError::NotConvexQuadratic);
    }
    Ok(WeightSolution {
        objective: problem.objective(&weights),
        weights,
    })
}

fn check_bounds(n: usize, lo: f64, hi: f64, cap: f64) -> Result<(), OptimizeError> {
    if n == 0 {
        return Err(OptimizeError::Empty);
    }
    if !(lo.is_finite() && hi.is_finite() && cap.is_finite()) || lo < 0.0 || hi < lo {
        return Err(OptimizeError::Infeasible);
    }
    if n as f64 * lo > cap + 1e-12 || (n as f64) * hi < cap - 1e-12 {
        return Err(OptimizeError::Infeasible);
    }
    Ok(())
}

/// Slope below which a marginal does not count as strictly increasing
/// in [`solve_dual`]'s qualifying test.
const MIN_CURVATURE: f64 = 1e-9;

/// Solves Eq. 2 **exactly** over borrowed models when the problem is
/// separable strictly convex quadratic: appends one weight per model to
/// `out`, whose contents it neither reads nor moves, and returns `true`.
/// Returns `false`, with `out` as it was, when the problem does not
/// qualify or its bounds are infeasible ([`minimize_weights`] tells the
/// two apart). A caller that solves port after port keeps one buffer;
/// one that wants a `Vec` passes an empty one.
///
/// `models` yields each application's polynomial with its domain floor.
/// The problem qualifies when every model has degree ≤ 2 and
/// `2·c₂ + 2·balance_reg > 0`, and either `balance_reg > 0` or no floor
/// lies above `min_weight` (below its floor a model is linear, so only
/// the regularizer keeps the marginal increasing there). Then each
/// marginal
///
/// ```text
///   gᵢ(w) = Dᵢ′(max(w, floorᵢ)) + 2ε·(w − C/n)
/// ```
///
/// is piecewise linear and strictly increasing, `wᵢ(λ) =
/// clamp(gᵢ⁻¹(λ), lo, hi)` is closed-form, and `Σᵢ wᵢ(λ)` is piecewise
/// linear and non-decreasing with at most `3n` kinks. The unique KKT
/// point is found by bracketing `C` between two adjacent kinks without
/// sorting them — each round evaluates the sum at one pivot kink and
/// keeps the kinks beyond it on the crossing's side — and solving that
/// linear segment for `λ` from the two sums the search already has:
/// expected `O(n log n)`, no starts, no line search, no projection, and
/// a result that depends on nothing but the problem (the pivots never
/// reach it: it is the segment's two ends and their sums).
///
/// # Examples
///
/// ```
/// use saba_math::{solve_dual, Polynomial, SolveScratch};
///
/// let steep = Polynomial::new(vec![6.0, -8.0, 3.0]);
/// let flat = Polynomial::new(vec![1.5, -0.8, 0.3]);
/// let mut w = Vec::new();
/// let qualified = solve_dual(
///     [(&steep, 0.0), (&flat, 0.0)],
///     1.0,
///     0.01,
///     1.0,
///     0.0,
///     &mut SolveScratch::new(),
///     &mut w,
/// );
/// assert!(qualified, "convex quadratics qualify");
/// // The marginals −8 + 6·w₀ and −0.8 + 0.6·w₁ cannot meet on the
/// // simplex, so the flat model sits on its lower bound.
/// assert_eq!(w[1], 0.01);
/// assert!((w[0] - 0.99).abs() < 1e-15);
/// ```
pub fn solve_dual<'a, I>(
    models: I,
    capacity: f64,
    min_weight: f64,
    max_weight: f64,
    balance_reg: f64,
    scratch: &mut SolveScratch,
    out: &mut Vec<f64>,
) -> bool
where
    I: IntoIterator<Item = (&'a Polynomial, f64)>,
    I::IntoIter: ExactSizeIterator,
{
    let models = models.into_iter();
    let dual = &mut scratch.dual;
    let qualifies = check_bounds(models.len(), min_weight, max_weight, capacity).is_ok()
        && dual.gather(models, capacity, min_weight, max_weight, balance_reg);
    if qualifies {
        dual.solve(capacity, min_weight, max_weight, out);
    }
    qualifies
}

/// Coordinate `i`'s marginal as [`DualPorts`] keeps it: `(icpt, slope,
/// icpt_below, kink)` — `icpt + slope·w` at or above its domain floor
/// and `icpt_below + slope_below·w` under it, the two meeting at the
/// marginal value `kink` (`−∞` when the floor is not above the lower
/// bound, so the lower piece is never selected).
type Piece = (f64, f64, f64, f64);

/// The qualifying problem [`solve_dual`] works on.
#[derive(Debug, Clone, Default)]
struct DualPorts {
    pieces: Vec<Piece>,
    slope_below: f64,
    /// Multiplier values at which some `wᵢ(λ)` changes piece.
    breaks: Vec<f64>,
}

impl DualPorts {
    /// Reads `(c₁, c₂, floor)` of every model in one pass; `false` as
    /// soon as one does not qualify. Bounds are already checked.
    fn gather<'a>(
        &mut self,
        models: impl ExactSizeIterator<Item = (&'a Polynomial, f64)>,
        cap: f64,
        lo: f64,
        hi: f64,
        reg: f64,
    ) -> bool {
        self.pieces.clear();
        self.breaks.clear();
        let pull = 2.0 * reg * (cap / models.len() as f64);
        let slope_below = 2.0 * reg;
        self.slope_below = slope_below;
        for (model, floor) in models {
            let c = model.coeffs();
            let c1 = c.get(1).copied().unwrap_or(0.0);
            let c2 = c.get(2).copied().unwrap_or(0.0);
            let slope = 2.0 * c2 + slope_below;
            let kinked = floor > lo;
            let qualifies = c.len() <= 3
                && c1.is_finite()
                && floor.is_finite()
                && slope.is_finite()
                && slope > MIN_CURVATURE
                && (!kinked || slope_below > MIN_CURVATURE);
            if !qualifies {
                return false;
            }
            let icpt = c1 - pull;
            let icpt_below = c1 + 2.0 * c2 * floor - pull;
            let marginal = |w: f64| {
                if w >= floor {
                    icpt + slope * w
                } else {
                    icpt_below + slope_below * w
                }
            };
            self.breaks.push(marginal(lo));
            self.breaks.push(marginal(hi));
            let kink = if kinked {
                self.breaks.push(marginal(floor));
                marginal(floor)
            } else {
                f64::NEG_INFINITY
            };
            self.pieces.push((icpt, slope, icpt_below, kink));
        }
        true
    }

    /// `(intercept, slope)` of the piece of `gᵢ` that `lam` selects.
    fn piece(&self, &(icpt, slope, icpt_below, kink): &Piece, lam: f64) -> (f64, f64) {
        if lam >= kink {
            (icpt, slope)
        } else {
            (icpt_below, self.slope_below)
        }
    }

    /// `wᵢ(λ) = clamp(gᵢ⁻¹(λ), lo, hi)`.
    fn weight(&self, piece: &Piece, lam: f64, lo: f64, hi: f64) -> f64 {
        let (icpt, slope) = self.piece(piece, lam);
        ((lam - icpt) / slope).clamp(lo, hi)
    }

    /// Appends the KKT point of the gathered problem to `out`.
    fn solve(&mut self, cap: f64, lo: f64, hi: f64, out: &mut Vec<f64>) {
        let mut breaks = std::mem::take(&mut self.breaks);
        let this = &*self;
        let weights = move |lam: f64| this.pieces.iter().map(move |p| this.weight(p, lam, lo, hi));
        let total = |lam: f64| -> f64 { weights(lam).sum() };

        // Σw(λ) is non-decreasing and linear between consecutive breaks:
        // bracket the capacity between the largest break below it and
        // the smallest at or above it, each with its sum, and
        // interpolate on that segment. Each round evaluates the sum at
        // one pivot and compacts the unsorted breaks to those strictly
        // beyond it on the side that still holds the crossing (written
        // over the rest: the search is their last reader). A missing
        // side is an all-pinned corner, `n·lo = C` or `n·hi = C`.
        let (mut below, mut above) = (None, None);
        let mut live = &mut breaks[..];
        while let Some(&pivot) = live.get(live.len() / 2) {
            let sum = total(pivot);
            let reached = sum >= cap;
            let beyond = if reached {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut kept = 0;
            for i in 0..live.len() {
                let b = live[i];
                live[kept] = b;
                kept += usize::from(b.total_cmp(&pivot) == beyond);
            }
            *if reached { &mut above } else { &mut below } = Some((pivot, sum));
            live = &mut live[..kept];
        }
        let lam = match (below, above) {
            (Some((l0, s0)), Some((l1, s1))) => l0 + (cap - s0) / (s1 - s0) * (l1 - l0),
            (Some((lam, _)), None) | (None, Some((lam, _))) => lam,
            (None, None) => unreachable!("every model adds breaks"),
        };
        let start = out.len();
        out.extend(weights(lam));
        let w = &mut out[start..];

        // `λ` carries rounding error, which a flat marginal amplifies in
        // `w`. One Newton step in `w`-space along the segment absorbs it:
        // every free marginal moves by the same amount, so stationarity
        // is kept while the sum returns to the capacity.
        let free = |x: f64| x > lo && x < hi;
        let give = |p: &Piece| 1.0 / self.piece(p, lam).1;
        let residual = cap - w.iter().sum::<f64>();
        let free_pieces = self.pieces.iter().zip(w.iter()).filter(|(_, x)| free(**x));
        let total_give: f64 = free_pieces.map(|(p, _)| give(p)).sum();
        if residual != 0.0 && total_give > 0.0 {
            for (x, p) in w.iter_mut().zip(&self.pieces).filter(|(x, _)| free(**x)) {
                *x = (*x + residual * give(p) / total_give).clamp(lo, hi);
            }
        }
        self.breaks = breaks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn single_app_gets_everything() {
        let p = WeightProblem::new(vec![Polynomial::new(vec![3.0, -2.0, 0.5])], 1.0);
        let sol = minimize_weights(&p).unwrap();
        assert!(close(sol.weights[0], 1.0, 1e-9));
    }

    #[test]
    fn identical_models_split_equally() {
        let m = Polynomial::new(vec![4.0, -5.0, 2.0]); // Convex, decreasing on [0,1].
        let p = WeightProblem::new(vec![m.clone(), m.clone(), m.clone(), m], 1.0);
        let sol = minimize_weights(&p).unwrap();
        for &w in &sol.weights {
            assert!(close(w, 0.25, 1e-6), "weights {:?}", sol.weights);
        }
    }

    #[test]
    fn sensitive_app_receives_more() {
        // Quadratic convex decreasing models with different steepness.
        let steep = Polynomial::new(vec![6.0, -8.0, 3.0]);
        let flat = Polynomial::new(vec![1.5, -0.8, 0.3]);
        let p = WeightProblem::new(vec![steep, flat], 1.0);
        let sol = minimize_weights(&p).unwrap();
        assert!(sol.weights[0] > sol.weights[1] + 0.1, "{:?}", sol.weights);
        assert!(close(sol.weights.iter().sum::<f64>(), 1.0, 1e-9));
    }

    #[test]
    fn constraint_always_satisfied() {
        let models: Vec<Polynomial> = (1..=8)
            .map(|i| Polynomial::new(vec![2.0 + i as f64, -(i as f64), 0.5 * i as f64]))
            .collect();
        let p = WeightProblem::new(models, 0.8);
        let sol = minimize_weights(&p).unwrap();
        assert!(close(sol.weights.iter().sum::<f64>(), 0.8, 1e-9));
        for &w in &sol.weights {
            assert!(w >= p.min_weight - 1e-12 && w <= p.max_weight + 1e-12);
        }
    }

    #[test]
    fn kkt_equal_marginals_at_interior_optimum() {
        // For convex models the interior optimum equalizes Dᵢ'(wᵢ).
        let a = Polynomial::new(vec![5.0, -6.0, 2.5]);
        let b = Polynomial::new(vec![3.0, -3.0, 1.5]);
        let p = WeightProblem::new(vec![a.clone(), b.clone()], 1.0);
        let sol = minimize_weights(&p).unwrap();
        let ga = a.eval_derivative(sol.weights[0]);
        let gb = b.eval_derivative(sol.weights[1]);
        assert!(
            close(ga, gb, 1e-4),
            "marginals {ga} vs {gb}, w={:?}",
            sol.weights
        );
    }

    #[test]
    fn beats_equal_split_on_skewed_mix() {
        let steep = Polynomial::new(vec![7.0, -9.0, 3.5]);
        let flat = Polynomial::new(vec![1.2, -0.3, 0.1]);
        let p = WeightProblem::new(vec![steep, flat], 1.0);
        let equal = p.objective(&[0.5, 0.5]);
        let sol = minimize_weights(&p).unwrap();
        assert!(
            sol.objective < equal - 0.05,
            "opt {} vs equal {}",
            sol.objective,
            equal
        );
    }

    #[test]
    fn empty_problem_rejected() {
        let p = WeightProblem::new(vec![], 1.0);
        assert_eq!(minimize_weights(&p).unwrap_err(), OptimizeError::Empty);
    }

    #[test]
    fn infeasible_bounds_rejected() {
        let mut p = WeightProblem::new(vec![Polynomial::constant(1.0); 4], 1.0);
        p.min_weight = 0.5; // 4 × 0.5 > 1.0.
        assert_eq!(minimize_weights(&p).unwrap_err(), OptimizeError::Infeasible);
    }

    #[test]
    fn dual_lands_on_hand_solved_interior_optimum() {
        // −6 + 5·w₀ = −3 + 3·(1 − w₀)  ⇒  w₀ = 3/4.
        let a = Polynomial::new(vec![5.0, -6.0, 2.5]);
        let b = Polynomial::new(vec![3.0, -3.0, 1.5]);
        let sol = minimize_weights(&WeightProblem::new(vec![a, b], 1.0)).unwrap();
        assert!(close(sol.weights[0], 0.75, 1e-15), "{:?}", sol.weights);
        assert!(close(sol.weights[1], 0.25, 1e-15), "{:?}", sol.weights);
    }

    #[test]
    fn dual_follows_the_linear_extension_below_a_floor() {
        // ε = ½, C/n = ½. Model 0 has its floor at 0.6, so for w₀ < 0.6
        // its marginal is −4 + 2·0.6 + (w₀ − ½) = −3.3 + w₀; model 1's is
        // −3.5 + 2·w₁ + (w₁ − ½) = −4 + 3·w₁. Equal marginals on
        // w₀ + w₁ = 1 give 4·w₀ = 2.3, i.e. w₀ = 0.575 — under the
        // floor, where the quadratic piece alone would say 7/12.
        let problem = WeightProblem {
            domain_floors: vec![0.6, 0.0],
            balance_reg: 0.5,
            ..WeightProblem::new(
                vec![
                    Polynomial::new(vec![5.0, -4.0, 1.0]),
                    Polynomial::new(vec![4.0, -3.5, 1.0]),
                ],
                1.0,
            )
        };
        let sol = minimize_weights(&problem).unwrap();
        assert!(close(sol.weights[0], 0.575, 1e-15), "{:?}", sol.weights);
        assert!(close(sol.weights[1], 0.425, 1e-15), "{:?}", sol.weights);
    }

    #[test]
    fn dual_handles_the_all_pinned_corner() {
        let m = Polynomial::new(vec![4.0, -5.0, 2.0]);
        let mut p = WeightProblem::new(vec![m.clone(), m.clone(), m.clone(), m], 1.0);
        p.min_weight = 0.25; // n·lo = C: the feasible set is one point.
        let sol = minimize_weights(&p).unwrap();
        assert_eq!(sol.weights, vec![0.25; 4]);
    }

    #[test]
    fn dual_declines_what_it_cannot_solve_exactly() {
        let convex = Polynomial::new(vec![2.0, -1.5, 0.8]);
        let mut scratch = SolveScratch::new();
        let mut declined = |models: Vec<Polynomial>, floor: f64, reg: f64| {
            let borrowed = models.iter().map(|m| (m, floor));
            let mut out = vec![7.0];
            let qualified = solve_dual(borrowed, 1.0, 0.01, 1.0, reg, &mut scratch, &mut out);
            assert_eq!(out[0], 7.0, "the solve appends");
            assert_eq!(out.len(), if qualified { 3 } else { 1 });
            let problem = WeightProblem {
                domain_floors: vec![floor; models.len()],
                balance_reg: reg,
                ..WeightProblem::new(models, 1.0)
            };
            let refused = minimize_weights(&problem) == Err(OptimizeError::NotConvexQuadratic);
            assert_eq!(refused, !qualified);
            refused
        };
        let cubic = Polynomial::new(vec![4.0, -10.0, 12.0, -5.0]);
        assert!(declined(vec![cubic, convex.clone()], 0.0, 0.1), "cubic");
        let concave = Polynomial::new(vec![2.0, -1.0, -0.5]);
        assert!(
            declined(vec![concave, convex.clone()], 0.0, 0.1),
            "c₂ + ε < 0"
        );
        // Below a floor only the regularizer keeps the marginal rising.
        assert!(declined(vec![convex.clone(), convex.clone()], 0.2, 0.0));
        assert!(!declined(vec![convex.clone(), convex.clone()], 0.2, 0.1));
        assert!(!declined(vec![convex.clone(), convex], 0.005, 0.0));
    }

    #[test]
    fn many_apps_scales() {
        let models: Vec<Polynomial> = (0..500)
            .map(|i| {
                let s = 1.0 + (i % 10) as f64;
                Polynomial::new(vec![1.0 + s, -s, s * 0.45])
            })
            .collect();
        let p = WeightProblem {
            min_weight: 0.0001,
            ..WeightProblem::new(models, 1.0)
        };
        let sol = minimize_weights(&p).unwrap();
        assert!(close(sol.weights.iter().sum::<f64>(), 1.0, 1e-6));
    }
}
