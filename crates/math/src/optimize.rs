//! Solvers for the controller's weight-calculation problem (paper Eq. 2):
//!
//! ```text
//!   minimize   Σᵢ Dᵢ(wᵢ)
//!   subject to Σᵢ wᵢ = C_saba,   lo ≤ wᵢ ≤ hi
//! ```
//!
//! where `Dᵢ` is application *i*'s polynomial sensitivity model and `wᵢ`
//! its bandwidth share at a switch output port. The paper uses NLopt's
//! SLSQP. Two native methods cover the problem, selected by the input's
//! own degree and curvature:
//!
//! - **Strictly convex quadratics** (every model of degree ≤ 2 with
//!   positive curvature once the regularizer is added — the controllers'
//!   surrogates) are solved *exactly* by [`solve_dual`]: each marginal
//!   `Dᵢ′` is piecewise linear and increasing, so `wᵢ(λ)` is closed-form
//!   and the multiplier of `Σwᵢ = C` follows from a breakpoint search.
//!   No starts, no line search, no history — and no allocation: it
//!   gathers into [`SolveScratch`] and appends the weights to a buffer
//!   the caller owns, so a controller sweeping thousands of ports
//!   solves each in place instead of remembering solutions.
//! - **Everything else** (cubic fits, non-convex models) takes the
//!   iterative path:
//!   1. a **projected-Newton / SQP** iteration exploiting the separable
//!      structure (diagonal Hessian + one linear constraint ⇒ closed-form
//!      KKT step), with Armijo backtracking and bound clamping, and
//!   2. a **projected-gradient** safeguard for iterations where the
//!      local Hessian is not positive, so non-convex fitted polynomials
//!      are handled too.
//!
//!   Its solution is polished by projecting onto the capped simplex, so
//!   the equality constraint holds to machine precision.

use crate::poly::Polynomial;
use std::fmt;

/// The per-port weight allocation problem (Eq. 2).
#[derive(Debug, Clone)]
pub struct WeightProblem {
    /// Sensitivity model `Dᵢ` per application contending at the port.
    /// Models map bandwidth fraction (of full link capacity) → slowdown.
    pub models: Vec<Polynomial>,
    /// Per-model *domain floor*: the lowest bandwidth fraction the model
    /// was fitted on. Below it the polynomial is pure extrapolation —
    /// cubics routinely turn over there — so the objective switches to a
    /// *linear extension* with the model's slope at the floor: monotone,
    /// trap-free, and faithful to the fitted trend. Empty means no
    /// floors.
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
    /// least-disruptive allocation — the behaviour a local SQP solver
    /// started at the equal split exhibits naturally. Zero disables it.
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

    fn gradient(&self, w: &[f64], out: &mut [f64]) {
        let mean = self.capacity / self.models.len() as f64;
        for (i, (g, &x)) in out.iter_mut().zip(w).enumerate() {
            *g = self.models[i].eval_derivative(x.max(self.floor(i)))
                + 2.0 * self.balance_reg * (x - mean);
        }
    }

    /// Value of model `i` at `x` (with the linear extension).
    fn value(&self, i: usize, x: f64) -> f64 {
        let lo = self.floor(i);
        if x < lo {
            self.models[i].eval(lo) + self.models[i].eval_derivative(lo) * (x - lo)
        } else {
            self.models[i].eval(x)
        }
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
    /// A model produced a non-finite value during the solve.
    NonFinite,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Empty => write!(f, "no applications in the weight problem"),
            OptimizeError::Infeasible => write!(f, "bounds are infeasible for the capacity"),
            OptimizeError::NonFinite => write!(f, "objective became non-finite"),
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
    /// Iterations used by the solver.
    pub iterations: usize,
}

const MAX_ITERS: usize = 100;
const GRAD_TOL: f64 = 1e-9;
/// Projected-gradient residual below which a warm-started solve is
/// accepted without falling back to the cold multi-start path.
const WARM_ACCEPT_TOL: f64 = 1e-8;

/// Reusable buffers for repeated Eq. 2 solves.
///
/// The controllers solve one Eq. 2 problem per dirty port per epoch;
/// under churn the problems are small but frequent, and per-solve
/// allocations would dominate both the exact dual solve (a few hundred
/// flops) and a warm-started descent (one or two Newton steps). Mirrors
/// the `SharingScratch` pattern used by the fabric's max-min sharing
/// loop: the caller owns one scratch and threads it through every
/// solve; no result depends on what an earlier solve left in it.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    grad: Vec<f64>,
    trial: Vec<f64>,
    seed: Vec<f64>,
    hess: Vec<f64>,
    dir: Vec<f64>,
    /// Free-face coordinate indices of the active-set polish.
    free: Vec<usize>,
    curv: Curvature,
    dual: DualPorts,
}

impl SolveScratch {
    /// An empty scratch; buffers grow to the largest problem seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the iterative path's buffers for `problem` and derives its
    /// second-derivative coefficients, once per solve.
    fn load(&mut self, problem: &WeightProblem) {
        let n = problem.models.len();
        for buf in [
            &mut self.grad,
            &mut self.trial,
            &mut self.hess,
            &mut self.dir,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.curv.load(&problem.models);
    }
}

/// Second-derivative coefficients of a problem's models, flattened:
/// `coeffs[starts[i]..starts[i + 1]]` holds model `i`'s
/// `k·(k−1)·c_k` for `k ≥ 2`, lowest degree first.
#[derive(Debug, Clone, Default)]
struct Curvature {
    coeffs: Vec<f64>,
    starts: Vec<usize>,
}

impl Curvature {
    fn load(&mut self, models: &[Polynomial]) {
        self.coeffs.clear();
        self.starts.clear();
        self.starts.push(0);
        for m in models {
            // The products are formed as differentiating twice forms
            // them, `(c_k·k)·(k−1)`, so values match `derivative()` bit
            // for bit.
            self.coeffs.extend(
                m.coeffs()
                    .iter()
                    .enumerate()
                    .skip(2)
                    .map(|(k, &c)| c * k as f64 * (k - 1) as f64),
            );
            self.starts.push(self.coeffs.len());
        }
    }

    fn of(&self, i: usize) -> &[f64] {
        &self.coeffs[self.starts[i]..self.starts[i + 1]]
    }

    /// `Dᵢ″(x)`, accumulated in ascending powers (the order
    /// `Polynomial::eval_derivative` uses).
    fn at(&self, i: usize, x: f64) -> f64 {
        let mut result = 0.0;
        let mut pow = 1.0;
        for &c in self.of(i) {
            result += c * pow;
            pow *= x;
        }
        result
    }
}

/// Solves Eq. 2 for the given problem.
///
/// # Examples
///
/// ```
/// use saba_math::{minimize_weights, Polynomial, WeightProblem};
///
/// // A bandwidth-sensitive app (steep slowdown) and an insensitive one.
/// let sensitive = Polynomial::new(vec![5.0, -4.0]);    // D(b) = 5 − 4b
/// let insensitive = Polynomial::new(vec![1.5, -0.5]);  // D(b) = 1.5 − 0.5b
/// let sol = minimize_weights(&WeightProblem::new(vec![sensitive, insensitive], 1.0)).unwrap();
/// // The sensitive application receives more bandwidth.
/// assert!(sol.weights[0] > sol.weights[1]);
/// let total: f64 = sol.weights.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn minimize_weights(problem: &WeightProblem) -> Result<WeightSolution, OptimizeError> {
    minimize_weights_scratch(problem, &mut SolveScratch::new())
}

/// [`minimize_weights`] with caller-owned buffers (no per-solve
/// allocation beyond the returned weight vector).
pub fn minimize_weights_scratch(
    problem: &WeightProblem,
    scratch: &mut SolveScratch,
) -> Result<WeightSolution, OptimizeError> {
    let (lo, hi, cap) = validate(problem)?;
    if let Some(sol) = dual_solution(problem, scratch) {
        return Ok(sol);
    }
    scratch.load(problem);
    minimize_iterative(problem, lo, hi, cap, scratch)
}

/// The cold iterative solve; `scratch` is already loaded for `problem`.
fn minimize_iterative(
    problem: &WeightProblem,
    lo: f64,
    hi: f64,
    cap: f64,
    scratch: &mut SolveScratch,
) -> Result<WeightSolution, OptimizeError> {
    let n = problem.models.len();

    // Two starts, each polished by projected-Newton descent:
    //
    // 1. the equal split (max-min), and
    // 2. a chunked-lookahead greedy water-fill — fitted sensitivity
    //    polynomials can be locally flat (saturated low-bandwidth
    //    regions) and yet steep further up, so greedy gains are
    //    evaluated over geometrically growing chunks of capacity; the
    //    lookahead sees across flat regions that defeat purely local
    //    marginals.
    let mut starts: Vec<Vec<f64>> = vec![vec![cap / n as f64; n]];
    if n > 1 {
        starts.push(greedy_waterfill(problem, lo, hi, cap));
    }

    let mut best: Option<WeightSolution> = None;
    for mut start in starts {
        project_capped_simplex(&mut start, cap, lo, hi);
        let sol = descend(problem, start, lo, hi, cap, scratch)?;
        if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
            best = Some(sol);
        }
    }
    Ok(best.expect("at least one start"))
}

/// Solves Eq. 2 warm-started from a previous epoch's weights.
///
/// Problems [`solve_dual`] covers are solved exactly and the seed is
/// ignored — their answer is a pure function of the problem. Otherwise
/// the seed (typically last epoch's solution for a port whose
/// application set changed slightly) is projected onto the feasible set
/// and descended from directly, skipping the cold path's two starts and
/// its greedy water-fill. The result is accepted only when it carries a
/// projected-gradient optimality certificate **and** the problem has
/// verifiable convex curvature across the feasible box — the regime in
/// which Eq. 2's KKT point is unique, so the warm solve provably lands
/// on the same optimum the cold solve would (the
/// `incremental_vs_scratch` conformance differential holds both to
/// 1e-6). In every other case — seed of the wrong arity, non-finite
/// seed, non-convex curvature, or a residual above tolerance — the
/// solver falls back to the cold path and returns *its* result
/// verbatim, so callers never observe a history-dependent answer.
pub fn solve_from(
    problem: &WeightProblem,
    seed: &[f64],
    scratch: &mut SolveScratch,
) -> Result<WeightSolution, OptimizeError> {
    let (lo, hi, cap) = validate(problem)?;
    if let Some(sol) = dual_solution(problem, scratch) {
        return Ok(sol);
    }
    scratch.load(problem);
    let n = problem.models.len();
    if seed.len() != n
        || seed.iter().any(|w| !w.is_finite())
        || !strongly_convex_on(problem, &scratch.curv, lo, hi)
    {
        return minimize_iterative(problem, lo, hi, cap, scratch);
    }
    scratch.seed.clear();
    scratch.seed.extend_from_slice(seed);
    let mut start = std::mem::take(&mut scratch.seed);
    project_capped_simplex(&mut start, cap, lo, hi);
    let sol = descend(problem, start, lo, hi, cap, scratch)?;

    // Optimality certificate: one projected-gradient step must not move.
    problem.gradient(&sol.weights, &mut scratch.grad);
    for ((t, &x), &g) in scratch
        .trial
        .iter_mut()
        .zip(&sol.weights)
        .zip(&scratch.grad)
    {
        *t = x - g;
    }
    project_capped_simplex(&mut scratch.trial, cap, lo, hi);
    let pg: f64 = scratch
        .trial
        .iter()
        .zip(&sol.weights)
        .map(|(a, b)| (a - b).abs())
        .sum();
    if pg < WARM_ACCEPT_TOL {
        return Ok(sol);
    }
    minimize_iterative(problem, lo, hi, cap, scratch)
}

fn validate(problem: &WeightProblem) -> Result<(f64, f64, f64), OptimizeError> {
    let (lo, hi, cap) = (problem.min_weight, problem.max_weight, problem.capacity);
    check_bounds(problem.models.len(), lo, hi, cap)?;
    Ok((lo, hi, cap))
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

/// Curvature below which a marginal does not count as strictly
/// increasing — for the warm path's uniqueness certificate and for
/// [`solve_dual`]'s qualifying test alike.
const MIN_CURVATURE: f64 = 1e-9;

/// Whether every model (plus the balance regularizer) has strictly
/// positive curvature across the feasible box. Up to degree 3 the second
/// derivative is linear, so the box's two ends decide; higher degrees
/// are sampled on a coarse grid. True for convexified centroid mixes;
/// raw fitted cubics can dip, in which case warm solves are not provably
/// unique and [`solve_from`] defers to the cold path.
fn strongly_convex_on(problem: &WeightProblem, curv: &Curvature, lo: f64, hi: f64) -> bool {
    const GRID: usize = 9;
    let span = (hi - lo).max(0.0);
    (0..problem.models.len()).all(|i| {
        let floor = problem.floor(i);
        let second = curv.of(i);
        let stride = if second.len() <= 2 { GRID } else { 1 };
        (0..=GRID).step_by(stride).all(|k| {
            let x = (lo + span * k as f64 / GRID as f64).max(floor);
            let c =
                second.iter().rev().fold(0.0, |acc, &c| acc * x + c) + 2.0 * problem.balance_reg;
            c.is_finite() && c > MIN_CURVATURE
        })
    })
}

/// The exact path of [`minimize_weights_scratch`] and [`solve_from`]:
/// `None` when `problem` does not qualify for [`solve_dual`].
fn dual_solution(problem: &WeightProblem, scratch: &mut SolveScratch) -> Option<WeightSolution> {
    let models = (0..problem.models.len()).map(|i| (&problem.models[i], problem.floor(i)));
    let mut weights = Vec::with_capacity(problem.models.len());
    solve_dual(
        models,
        problem.capacity,
        problem.min_weight,
        problem.max_weight,
        problem.balance_reg,
        scratch,
        &mut weights,
    )
    .then(|| WeightSolution {
        objective: problem.objective(&weights),
        weights,
        iterations: 0,
    })
}

/// Solves Eq. 2 **exactly** over borrowed models when the problem is
/// separable strictly convex quadratic: appends one weight per model to
/// `out`, whose contents it neither reads nor moves, and returns `true`.
/// Returns `false`, with `out` as it was — take
/// [`minimize_weights_scratch`], which also owns error reporting — when
/// the problem does not qualify. A caller that solves port after port
/// keeps one buffer; one that wants a `Vec` passes an empty one.
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
/// point is found by a binary search over the sorted kinks for the
/// segment on which the sum crosses `C`, and solving that linear segment
/// for `λ`: `O(n log n)`, no starts, no line search, no projection, and
/// a result that depends on nothing but the problem.
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

/// The qualifying problem [`solve_dual`] works on, one array per
/// quantity: coordinate `i`'s marginal is `icpt[i] + slope[i]·w` at or
/// above its domain floor and `icpt_below[i] + slope_below·w` under it,
/// the two meeting at the marginal value `kink[i]` (`−∞` when the floor
/// is not above the lower bound, so the lower piece is never selected).
#[derive(Debug, Clone, Default)]
struct DualPorts {
    icpt: Vec<f64>,
    slope: Vec<f64>,
    icpt_below: Vec<f64>,
    kink: Vec<f64>,
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
        for buf in [
            &mut self.icpt,
            &mut self.slope,
            &mut self.icpt_below,
            &mut self.kink,
            &mut self.breaks,
        ] {
            buf.clear();
        }
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
            self.kink.push(kink);
            self.icpt.push(icpt);
            self.slope.push(slope);
            self.icpt_below.push(icpt_below);
        }
        true
    }

    /// `(intercept, slope)` of the piece of `gᵢ` that `lam` selects.
    fn piece(&self, i: usize, lam: f64) -> (f64, f64) {
        if lam >= self.kink[i] {
            (self.icpt[i], self.slope[i])
        } else {
            (self.icpt_below[i], self.slope_below)
        }
    }

    /// `wᵢ(λ) = clamp(gᵢ⁻¹(λ), lo, hi)`.
    fn weight(&self, i: usize, lam: f64, lo: f64, hi: f64) -> f64 {
        let (icpt, slope) = self.piece(i, lam);
        ((lam - icpt) / slope).clamp(lo, hi)
    }

    /// Appends the KKT point of the gathered problem to `out`.
    fn solve(&mut self, cap: f64, lo: f64, hi: f64, out: &mut Vec<f64>) {
        let n = self.icpt.len();
        self.breaks.sort_unstable_by(f64::total_cmp);
        let total = |lam: f64| -> f64 { (0..n).map(|i| self.weight(i, lam, lo, hi)).sum() };

        // Σw(λ) is non-decreasing and linear between consecutive breaks:
        // find the first break at which it reaches the capacity and
        // interpolate on the segment that ends there. The two outer
        // cases are the all-pinned corners `n·lo = C` and `n·hi = C`.
        let k = self.breaks.partition_point(|&b| total(b) < cap);
        let lam = if k == 0 || k == self.breaks.len() {
            self.breaks[k.min(self.breaks.len() - 1)]
        } else {
            let (l0, l1) = (self.breaks[k - 1], self.breaks[k]);
            let (s0, s1) = (total(l0), total(l1));
            l0 + (cap - s0) / (s1 - s0) * (l1 - l0)
        };
        let start = out.len();
        out.extend((0..n).map(|i| self.weight(i, lam, lo, hi)));
        let w = &mut out[start..];

        // `λ` carries rounding error, which a flat marginal amplifies in
        // `w`. One Newton step in `w`-space along the segment absorbs it:
        // every free marginal moves by the same amount, so stationarity
        // is kept while the sum returns to the capacity.
        let free = |x: f64| x > lo && x < hi;
        let give = |i: usize| 1.0 / self.piece(i, lam).1;
        let residual = cap - w.iter().sum::<f64>();
        let total_give: f64 = (0..n).filter(|&i| free(w[i])).map(give).sum();
        if residual != 0.0 && total_give > 0.0 {
            for (i, x) in w.iter_mut().enumerate().filter(|(_, x)| free(**x)) {
                *x = (*x + residual * give(i) / total_give).clamp(lo, hi);
            }
        }
    }
}

/// Greedy capacity assignment with chunked lookahead: starting from the
/// weight floor, repeatedly hand the next chunk of capacity to the
/// application with the best slowdown reduction *per unit*, considering
/// chunk sizes 1, 2, 4, … units so that flat-then-steep curves compete
/// fairly.
fn greedy_waterfill(problem: &WeightProblem, lo: f64, hi: f64, cap: f64) -> Vec<f64> {
    let n = problem.models.len();
    let mut w = vec![lo; n];
    let mut remaining = cap - lo * n as f64;
    if remaining <= 0.0 {
        return w;
    }
    const UNITS: usize = 96;
    let unit = remaining / UNITS as f64;
    let mut guard = 0;
    while remaining > unit * 0.5 && guard < 4 * UNITS {
        guard += 1;
        let mut best: Option<(usize, usize, f64)> = None; // (app, chunk, rate)
        for (i, &wi) in w.iter().enumerate() {
            let headroom = ((hi - wi) / unit).floor() as usize;
            let max_chunk = headroom.min((remaining / unit).ceil() as usize);
            let cur = problem.value(i, wi);
            let mut chunk = 1usize;
            while chunk <= max_chunk {
                let gain = cur - problem.value(i, wi + chunk as f64 * unit);
                let rate = gain / chunk as f64;
                if rate.is_finite() && best.as_ref().is_none_or(|&(_, _, r)| rate > r) {
                    best = Some((i, chunk, rate));
                }
                chunk *= 2;
            }
        }
        match best {
            Some((i, chunk, rate)) if rate > 0.0 => {
                let give = (chunk as f64 * unit).min(remaining).min(hi - w[i]);
                w[i] += give;
                remaining -= give;
            }
            _ => break, // No positive marginal anywhere: spread the rest.
        }
    }
    if remaining > 0.0 {
        // Distribute leftovers evenly within bounds; the descent polish
        // and final projection absorb any residue.
        let share = remaining / n as f64;
        for x in w.iter_mut() {
            *x = (*x + share).min(hi);
        }
    }
    w
}

/// One projected-Newton descent from `w`.
fn descend(
    problem: &WeightProblem,
    mut w: Vec<f64>,
    lo: f64,
    hi: f64,
    cap: f64,
    scratch: &mut SolveScratch,
) -> Result<WeightSolution, OptimizeError> {
    let SolveScratch {
        grad,
        trial,
        hess,
        dir,
        curv,
        ..
    } = &mut *scratch;
    let mut iterations = 0;
    let mut f_cur = problem.objective(&w);
    if !f_cur.is_finite() {
        return Err(OptimizeError::NonFinite);
    }

    for _ in 0..MAX_ITERS {
        iterations += 1;
        problem.gradient(&w, grad);
        if grad.iter().any(|g| !g.is_finite()) {
            return Err(OptimizeError::NonFinite);
        }

        // Newton-SQP direction on the equality constraint: for a separable
        // objective the KKT system has a closed form. Fall back to the
        // plain projected-gradient direction when curvature is unusable.
        if !newton_direction(problem, curv, &w, grad, hess, dir) {
            gradient_direction(grad, dir);
        }

        // Project the trial point, not the direction: step, project, test.
        let accept_tol = 1e-10 * (1.0 + f_cur.abs());
        let mut step = 1.0;
        let mut improved = false;
        for _ in 0..14 {
            for ((t, &x), &d) in trial.iter_mut().zip(&w).zip(dir.iter()) {
                *t = x + step * d;
            }
            project_capped_simplex(trial, cap, lo, hi);
            let f_trial = problem.objective(trial);
            if !f_trial.is_finite() {
                return Err(OptimizeError::NonFinite);
            }
            if f_trial < f_cur - accept_tol {
                std::mem::swap(&mut w, trial);
                f_cur = f_trial;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if !improved {
            // Try the pure gradient direction once before declaring
            // convergence (the Newton step may point uphill near bounds).
            gradient_direction(grad, dir);
            let mut step = 1.0;
            for _ in 0..14 {
                for ((t, &x), &d) in trial.iter_mut().zip(&w).zip(dir.iter()) {
                    *t = x + step * d;
                }
                project_capped_simplex(trial, cap, lo, hi);
                let f_trial = problem.objective(trial);
                if f_trial < f_cur - accept_tol {
                    std::mem::swap(&mut w, trial);
                    f_cur = f_trial;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
        }
        if !improved {
            break;
        }
        // Projected-gradient optimality probe (amortized: the projection
        // costs O(n) bisection steps, so only probe every few rounds).
        if iterations % 4 == 0 {
            for ((t, &x), &g) in trial.iter_mut().zip(&w).zip(grad.iter()) {
                *t = x - g;
            }
            project_capped_simplex(trial, cap, lo, hi);
            let pg: f64 = trial.iter().zip(&w).map(|(a, b)| (a - b).abs()).sum();
            if pg < GRAD_TOL {
                break;
            }
        }
    }

    polish_active_set(problem, &mut w, &mut f_cur, lo, hi, cap, scratch);

    Ok(WeightSolution {
        weights: w,
        objective: f_cur,
        iterations,
    })
}

/// Face-Newton polish: identify the bound-active coordinate set, then
/// take the exact equality-constrained Newton step on the free face,
/// releasing bound coordinates whose KKT multiplier has the wrong sign.
///
/// Backtracking descent stalls within `accept_tol` of the optimum — a
/// few parts in 1e-6 — because near-optimal steps no longer clear the
/// Armijo test. On problems with positive diagonal curvature
/// (convexified centroid mixes) the face step is *exact*: once the
/// active set settles, one step lands on the unique KKT point to machine
/// precision. That precision is what lets warm-started solves
/// ([`solve_from`]) and cold solves agree to far better than the 1e-6
/// conformance tolerance. Silently does nothing when curvature is
/// unusable (non-convex fitted cubics keep the plain descent result).
fn polish_active_set(
    problem: &WeightProblem,
    w: &mut [f64],
    f_cur: &mut f64,
    lo: f64,
    hi: f64,
    cap: f64,
    scratch: &mut SolveScratch,
) {
    const ROUNDS: usize = 12;
    const EDGE: f64 = 1e-12;
    let n = w.len();
    if n == 0 {
        return;
    }
    let SolveScratch {
        grad,
        trial,
        hess,
        free,
        curv,
        ..
    } = scratch;
    let open = |x: f64| x > lo + EDGE && x < hi - EDGE;
    // Multiplier of the equality constraint estimated over `over`.
    fn multiplier(over: impl Iterator<Item = usize> + Clone, grad: &[f64], hess: &[f64]) -> f64 {
        let inv_sum: f64 = over.clone().map(|i| 1.0 / hess[i]).sum();
        -over.map(|i| grad[i] / hess[i]).sum::<f64>() / inv_sum
    }
    for _ in 0..ROUNDS {
        problem.gradient(w, grad);
        for (i, (hv, &x)) in hess.iter_mut().zip(w.iter()).enumerate() {
            let second = curv.at(i, x.max(problem.floor(i))) + 2.0 * problem.balance_reg;
            if !(second.is_finite() && second > 1e-12) {
                return;
            }
            *hv = second;
        }

        // Free set: strictly interior coordinates, plus bound coordinates
        // whose multiplier sign says they want to move inward. The
        // multiplier estimate ν comes from the interior coordinates (or
        // all of them when everything is pinned).
        free.clear();
        free.extend((0..n).filter(|&i| open(w[i])));
        let nu = if free.is_empty() {
            multiplier(0..n, grad, hess)
        } else {
            multiplier(free.iter().copied(), grad, hess)
        };
        for (i, &x) in w.iter().enumerate() {
            let wants_up = x <= lo + EDGE && grad[i] + nu < -GRAD_TOL;
            let wants_down = x >= hi - EDGE && grad[i] + nu > GRAD_TOL;
            if wants_up || wants_down {
                free.push(i);
            }
        }
        if free.is_empty() {
            return;
        }

        // Exact Newton step on the free face.
        let nu = multiplier(free.iter().copied(), grad, hess);
        trial.clear();
        trial.extend_from_slice(w);
        let mut moved = 0.0f64;
        for &i in free.iter() {
            let d = (-grad[i] - nu) / hess[i];
            moved = moved.max(d.abs());
            trial[i] = (w[i] + d).clamp(lo, hi);
        }
        // Clamping can break the equality constraint; push the residual
        // back into coordinates the step left strictly interior, and
        // fall back to the full projection when clamping swallows the
        // correction too (the objective is decreasing in total weight,
        // so an infeasible over-capacity point must never reach the
        // acceptance test).
        let err = cap - trial.iter().sum::<f64>();
        if err.abs() > 0.0 {
            let still_open = free.iter().filter(|&&i| open(trial[i])).count();
            if still_open > 0 {
                let share = err / still_open as f64;
                for &i in free.iter() {
                    if open(trial[i]) {
                        trial[i] = (trial[i] + share).clamp(lo, hi);
                    }
                }
            }
            let residue = cap - trial.iter().sum::<f64>();
            if residue.abs() > 1e-12 * (1.0 + cap.abs()) {
                project_capped_simplex(trial, cap, lo, hi);
            }
        }
        let f_trial = problem.objective(trial);
        if !f_trial.is_finite() || f_trial > *f_cur + 1e-11 * (1.0 + f_cur.abs()) {
            return;
        }
        w.copy_from_slice(trial);
        *f_cur = f_trial;
        if moved < 1e-14 {
            return;
        }
    }
}

/// Closed-form equality-constrained Newton step for a separable
/// objective, written into `dir` (`h` receives the diagonal Hessian).
///
/// Solves `[H 1; 1ᵀ 0] [d; ν] = [−g; 0]` with diagonal `H`; returns
/// `false` when any second derivative is non-positive (direction would
/// not be a descent direction of a convex model).
fn newton_direction(
    problem: &WeightProblem,
    curv: &Curvature,
    w: &[f64],
    grad: &[f64],
    h: &mut [f64],
    dir: &mut [f64],
) -> bool {
    for (i, (hv, &x)) in h.iter_mut().zip(w).enumerate() {
        // Below the floor the extension is linear (zero curvature); use
        // the curvature at the floor so the step still trades capacity
        // smoothly.
        let second = curv.at(i, x.max(problem.floor(i))) + 2.0 * problem.balance_reg;
        if !(second.is_finite() && second > 1e-12) {
            return false;
        }
        *hv = second;
    }
    let inv_sum: f64 = h.iter().map(|&v| 1.0 / v).sum();
    let weighted: f64 = grad.iter().zip(h.iter()).map(|(&g, &hv)| g / hv).sum();
    let nu = -weighted / inv_sum;
    for ((d, &g), &hv) in dir.iter_mut().zip(grad).zip(h.iter()) {
        *d = (-g - nu) / hv;
    }
    true
}

/// Steepest-descent direction projected onto the constraint null space
/// (`Σ dᵢ = 0`): subtract the mean gradient.
fn gradient_direction(grad: &[f64], dir: &mut [f64]) {
    let mean = grad.iter().sum::<f64>() / grad.len() as f64;
    for (d, &g) in dir.iter_mut().zip(grad) {
        *d = mean - g;
    }
}

/// Euclidean projection of `v` onto `{w : Σw = cap, lo ≤ wᵢ ≤ hi}`.
///
/// Classic shift-and-clamp: find `τ` such that
/// `Σ clamp(vᵢ − τ, lo, hi) = cap` by bisection (the sum is continuous
/// and non-increasing in `τ`). Feasibility must hold
/// (`n·lo ≤ cap ≤ n·hi`); the caller checks this.
pub fn project_capped_simplex(v: &mut [f64], cap: f64, lo: f64, hi: f64) {
    let n = v.len() as f64;
    debug_assert!(n * lo <= cap + 1e-9 && cap <= n * hi + 1e-9);
    let sum_at = |tau: f64, v: &[f64]| -> f64 { v.iter().map(|&x| (x - tau).clamp(lo, hi)).sum() };
    // Bracket τ.
    let vmax = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let vmin = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut t_lo = vmin - hi - 1.0; // sum = n*hi ≥ cap here
    let mut t_hi = vmax - lo + 1.0; // sum = n*lo ≤ cap here
    for _ in 0..45 {
        let mid = 0.5 * (t_lo + t_hi);
        if sum_at(mid, v) > cap {
            t_lo = mid;
        } else {
            t_hi = mid;
        }
    }
    let tau = 0.5 * (t_lo + t_hi);
    for x in v.iter_mut() {
        *x = (*x - tau).clamp(lo, hi);
    }
    // Polish any residual constraint error into unclamped coordinates.
    let err = cap - v.iter().sum::<f64>();
    if err.abs() > 0.0 {
        let free = |x: f64| x > lo + 1e-12 && x < hi - 1e-12;
        let count = v.iter().filter(|&&x| free(x)).count();
        if count > 0 {
            let share = err / count as f64;
            for x in v.iter_mut().filter(|x| free(**x)) {
                *x = (*x + share).clamp(lo, hi);
            }
        }
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
        let p = WeightProblem::new(vec![Polynomial::new(vec![3.0, -2.0])], 1.0);
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
    fn nonconvex_model_still_solved() {
        // A wiggly (non-convex) fitted cubic plus a convex one.
        let wiggly = Polynomial::new(vec![4.0, -10.0, 12.0, -5.0]);
        let convex = Polynomial::new(vec![2.0, -1.5, 0.8]);
        let p = WeightProblem::new(vec![wiggly, convex], 1.0);
        let sol = minimize_weights(&p).unwrap();
        assert!(close(sol.weights.iter().sum::<f64>(), 1.0, 1e-9));
        // Solution is at least as good as the equal split.
        assert!(sol.objective <= p.objective(&[0.5, 0.5]) + 1e-9);
    }

    #[test]
    fn projection_respects_bounds_and_sum() {
        let mut v = vec![0.9, 0.05, 0.3, -0.2];
        project_capped_simplex(&mut v, 1.0, 0.01, 1.0);
        assert!(close(v.iter().sum::<f64>(), 1.0, 1e-9), "{v:?}");
        for &x in &v {
            assert!((0.01 - 1e-12..=1.0 + 1e-12).contains(&x));
        }
    }

    #[test]
    fn projection_of_feasible_point_is_identity() {
        let mut v = vec![0.25, 0.25, 0.25, 0.25];
        project_capped_simplex(&mut v, 1.0, 0.0, 1.0);
        for &x in &v {
            assert!(close(x, 0.25, 1e-9));
        }
    }

    #[test]
    fn dual_lands_on_hand_solved_interior_optimum() {
        // −6 + 5·w₀ = −3 + 3·(1 − w₀)  ⇒  w₀ = 3/4.
        let a = Polynomial::new(vec![5.0, -6.0, 2.5]);
        let b = Polynomial::new(vec![3.0, -3.0, 1.5]);
        let sol = minimize_weights(&WeightProblem::new(vec![a, b], 1.0)).unwrap();
        assert_eq!(sol.iterations, 0, "convex quadratics are solved directly");
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
        assert_eq!(sol.iterations, 0);
        assert!(close(sol.weights[0], 0.575, 1e-15), "{:?}", sol.weights);
        assert!(close(sol.weights[1], 0.425, 1e-15), "{:?}", sol.weights);
    }

    #[test]
    fn dual_handles_the_all_pinned_corner() {
        let m = Polynomial::new(vec![4.0, -5.0, 2.0]);
        let mut p = WeightProblem::new(vec![m.clone(), m.clone(), m.clone(), m], 1.0);
        p.min_weight = 0.25; // n·lo = C: the feasible set is one point.
        let sol = minimize_weights(&p).unwrap();
        assert_eq!(sol.iterations, 0);
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
            !qualified && minimize_weights(&problem).unwrap().iterations > 0
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
