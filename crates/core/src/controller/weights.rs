//! Per-port bandwidth calculation — Eq. 2 of the paper.
//!
//! Given the sensitivity models of the applications sending flows to a
//! switch output port, find the weights minimizing the total predicted
//! slowdown subject to `Σ wᵢ = C_saba`. The paper uses NLopt's SLSQP;
//! we solve over convex quadratic surrogates of the fitted models, which
//! `saba-math`'s exact dual solve handles in closed form, with a
//! starvation-protection floor on every application's share (see
//! [`crate::controller::ControllerConfig::protect_fraction`]). Both
//! controller flavours take this one path: the centralized one fits a
//! surrogate to each workload's model, the distributed one to each PL
//! centroid (§5.4). The answer is a pure function of the member set, so
//! neither carries warm seeds: a port is solved straight into the
//! caller's weight buffer ([`port_weights_from_surrogates`]).

use crate::sensitivity::SensitivityModel;
use saba_math::{polyfit, solve_dual, FitError, OptimizeError, Polynomial, SolveScratch};

/// The domain floor of a PL centroid's surrogate: centroids carry no
/// profiling samples to read a saturation point from.
const CENTROID_FLOOR: f64 = 0.05;

/// A model's precomputed solver inputs: the convex quadratic surrogate
/// and the saturation point it is anchored at. Both depend only on the
/// fitted model (or PL centroid) and `C_saba` — so a controller
/// computes this once per workload or PL (again on a refit) instead of
/// re-deriving it inside every per-port solve.
///
/// Every surrogate that exists qualifies for the exact dual solve: a
/// model whose surrogate cannot be fitted with finite coefficients has
/// none ([`Self::of`] fails), and the controllers refuse it at the door.
#[derive(Debug, Clone)]
pub struct ModelSurrogate {
    /// Convex quadratic surrogate of the fitted model.
    pub surrogate: Polynomial,
    /// Lowest profiled bandwidth where slowdown still responds (the
    /// solver's domain floor for this model).
    pub saturation: f64,
}

impl ModelSurrogate {
    /// Precomputes the surrogate for one model under `c_saba`; fails
    /// when its predictions or the fitted coefficients are not finite.
    pub fn of(m: &SensitivityModel, c_saba: f64) -> Result<Self, FitError> {
        let sat = saturation_point(m);
        Ok(Self {
            surrogate: convex_surrogate(|b| m.predict(b), sat, c_saba)?,
            saturation: sat,
        })
    }

    /// The surrogate of a PL centroid (its raw coefficient vector),
    /// anchored at 0.05; fails like [`Self::of`].
    pub(crate) fn of_centroid(centroid: &[f64], c_saba: f64) -> Result<Self, FitError> {
        let poly = Polynomial::new(centroid.to_vec());
        Ok(Self {
            surrogate: convex_surrogate(|b| poly.eval(b), CENTROID_FLOOR, c_saba)?,
            saturation: CENTROID_FLOOR,
        })
    }
}

/// Solves Eq. 2 for the given application models at one port.
///
/// Returns one weight per model, in order, summing to `c_saba`. The
/// floor `min_weight` is shrunk automatically when many applications
/// contend (`n · floor` must stay below `c_saba`).
///
/// # Panics
///
/// Panics if `c_saba` is not in `(0, 1]`.
pub fn port_weights(
    models: &[&SensitivityModel],
    c_saba: f64,
    min_weight: f64,
) -> Result<Vec<f64>, OptimizeError> {
    port_weights_protected(models, c_saba, min_weight, 0.30)
}

/// [`port_weights`] with an explicit starvation-protection fraction
/// (see [`crate::controller::ControllerConfig::protect_fraction`]).
pub fn port_weights_protected(
    models: &[&SensitivityModel],
    c_saba: f64,
    min_weight: f64,
    protect: f64,
) -> Result<Vec<f64>, OptimizeError> {
    assert!(c_saba > 0.0 && c_saba <= 1.0, "C_saba must be in (0, 1]");
    // The solver operates on *convex quadratic surrogates* of the fitted
    // models, anchored at each model's saturation point (the lowest
    // profiled bandwidth where the measured slowdown still responds to
    // bandwidth). Slowdown versus bandwidth share is convex for
    // bulk-synchronous jobs, but a cubic fitted through a saturated
    // (pipelining-floor) region picks up concave segments, and total-
    // slowdown minimization over concave pieces degenerates into
    // winner-take-all corner solutions. The surrogate restores the
    // convex water-filling structure the paper's measurements give its
    // SLSQP solver, while `predict`/R² keep the full-degree model.
    let surrogates = models
        .iter()
        .map(|m| ModelSurrogate::of(m, c_saba).map_err(|_| OptimizeError::NotConvexQuadratic))
        .collect::<Result<Vec<_>, _>>()?;
    let (scratch, mut w) = (&mut SolveScratch::new(), Vec::with_capacity(models.len()));
    port_weights_from_surrogates(
        surrogates.iter(),
        c_saba,
        min_weight,
        protect,
        scratch,
        &mut w,
    )?;
    Ok(w)
}

/// [`port_weights_protected`] over precomputed surrogates with
/// caller-owned scratch, appending the port's weights to `weights`
/// (nothing on an error). This is the entry point both controllers use:
/// surrogates come from their per-workload or per-PL slots and are read
/// in place, through the iterator, by the exact dual solve, which
/// writes into the buffer the port visit reads — no allocation.
pub fn port_weights_from_surrogates<'a>(
    surrogates: impl ExactSizeIterator<Item = &'a ModelSurrogate>,
    c_saba: f64,
    min_weight: f64,
    protect: f64,
    scratch: &mut SolveScratch,
    weights: &mut Vec<f64>,
) -> Result<(), OptimizeError> {
    assert!(c_saba > 0.0 && c_saba <= 1.0, "C_saba must be in (0, 1]");
    if surrogates.len() == 0 {
        return Err(OptimizeError::Empty);
    }
    if surrogates.len() == 1 {
        weights.push(c_saba);
        return Ok(());
    }
    let floor = protective_floor(surrogates.len(), c_saba, min_weight, protect);
    let models = surrogates.map(|s| (&s.surrogate, s.saturation));
    if solve_dual(models, c_saba, floor, c_saba, BALANCE_REG, scratch, weights) {
        Ok(())
    } else {
        Err(OptimizeError::NotConvexQuadratic)
    }
}

/// The balance regularizer of every port solve, both flavours. Large
/// enough that a surrogate's linear extension below its floor keeps a
/// rising marginal (the dual needs one), small beside the surrogates'
/// curvature (`c₂ ≥ 1`), so the allocation stays the models' and not the
/// equal split's.
const BALANCE_REG: f64 = 0.1;

/// Fits a convex quadratic to `predict` over `[sat, hi]`.
///
/// The curvature is floored at a small positive value: a strictly
/// convex objective keeps the water-filling optimum unique and interior
/// (a linear surrogate would turn the allocation into an LP with
/// degenerate corner optima). Fails when a prediction on the grid or a
/// fitted coefficient is not finite, so every surrogate returned
/// qualifies for the dual solve.
fn convex_surrogate(
    predict: impl Fn(f64) -> f64,
    sat: f64,
    hi: f64,
) -> Result<Polynomial, FitError> {
    const GRID: usize = 9;
    const MIN_CURVATURE_C2: f64 = 1.0;
    let lo = sat.min(hi * 0.5);
    // Geometric grid: the steep low-bandwidth region is where allocation
    // decisions bite, so the fit weights it more heavily.
    let ratio = (hi / lo).max(1.0 + 1e-9);
    let xs: Vec<f64> = (0..GRID)
        .map(|i| lo * ratio.powf(i as f64 / (GRID - 1) as f64))
        .collect();
    let ys: Vec<f64> = xs.iter().map(|&b| predict(b)).collect();
    let c2_free = polyfit(&xs, &ys, 2)
        .map(|f| f.poly.coeffs().get(2).copied().unwrap_or(0.0))
        .unwrap_or(0.0);
    let c2 = c2_free.max(MIN_CURVATURE_C2);
    // Refit the linear part with the curvature pinned:
    // y − c2·x² = c0 + c1·x.
    let resid: Vec<f64> = xs.iter().zip(&ys).map(|(&x, &y)| y - c2 * x * x).collect();
    let f = polyfit(&xs, &resid, 1)?;
    let c = f.poly.coeffs();
    if !(c[0].is_finite() && c[1].is_finite() && (2.0 * c2).is_finite()) {
        return Err(FitError::Degenerate);
    }
    Ok(Polynomial::new(vec![c[0], c[1], c2]))
}

/// The lowest profiled bandwidth fraction at which the workload's
/// measured slowdown still responds to bandwidth (within 3 % of the
/// worst observed slowdown counts as saturated).
fn saturation_point(m: &SensitivityModel) -> f64 {
    let mut samples = m.samples.clone();
    if samples.is_empty() {
        return 0.05;
    }
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite samples"));
    let d_max = samples
        .iter()
        .map(|s| s.1)
        .fold(f64::NEG_INFINITY, f64::max);
    samples
        .iter()
        .find(|&&(_, d)| d < 0.97 * d_max)
        .map(|&(b, _)| b)
        .unwrap_or(samples[0].0)
        .clamp(samples[0].0, 0.25)
}

/// The per-application weight floor at a port with `n` contenders.
///
/// WFQ's starvation freedom (§5.2) is only meaningful if no
/// application's share collapses entirely; and an application pushed
/// far below its fair share enters the steep region of *its own* curve,
/// where the realized slowdown outgrows what the port-local model
/// credits. The floor therefore protects a growing fraction of the fair
/// share as contention rises — wide-open skew between two applications
/// (the §2.2 LR/PR split), moderate skew across a 16-job testbed mix,
/// and gentle tilts across dense datacenter ports.
fn protective_floor(n: usize, c_saba: f64, min_weight: f64, protect: f64) -> f64 {
    let fair = c_saba / n as f64;
    (fair * protect).max(min_weight.min(0.9 * fair))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(name: &str, samples: &[(f64, f64)]) -> SensitivityModel {
        SensitivityModel::fit(name, samples, 2).unwrap()
    }

    fn lr() -> SensitivityModel {
        // Steep: D(0.25) = 3.4.
        model(
            "LR",
            &[(0.1, 4.5), (0.25, 3.4), (0.5, 1.8), (0.75, 1.3), (1.0, 1.0)],
        )
    }

    fn pr() -> SensitivityModel {
        // Flat: D(0.25) = 1.4.
        model(
            "PR",
            &[(0.1, 2.0), (0.25, 1.4), (0.5, 1.1), (0.75, 1.0), (1.0, 1.0)],
        )
    }

    #[test]
    fn lone_app_gets_all_of_c_saba() {
        let w = port_weights(&[&lr()], 0.9, 0.02).unwrap();
        assert_eq!(w, vec![0.9]);
    }

    #[test]
    fn sensitive_app_gets_the_lions_share() {
        let (lr, pr) = (lr(), pr());
        let w = port_weights(&[&lr, &pr], 1.0, 0.02).unwrap();
        assert!(w[0] > 0.6, "LR weight {w:?}");
        assert!(w[0] > w[1] * 1.8, "skew too small: {w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn motivation_experiment_split_is_near_75_25() {
        // §2.2's skewed allocation gives LR 75 % and PR 25 %; Eq. 2 on
        // the fitted models lands in that neighbourhood.
        let (lr, pr) = (lr(), pr());
        let w = port_weights(&[&lr, &pr], 1.0, 0.02).unwrap();
        assert!((0.6..=0.95).contains(&w[0]), "LR share {w:?}");
    }

    #[test]
    fn floor_shrinks_with_many_apps() {
        let models: Vec<SensitivityModel> = (0..40)
            .map(|i| {
                model(
                    &format!("m{i}"),
                    &[
                        (0.25, 2.0 + i as f64 * 0.01),
                        (0.5, 1.5),
                        (0.75, 1.2),
                        (1.0, 1.0),
                    ],
                )
            })
            .collect();
        let refs: Vec<&SensitivityModel> = models.iter().collect();
        // 40 apps × 0.02 floor = 0.8 < 1.0 is fine, but the shrink rule
        // must also handle 40 × 0.05 = 2.0 > 1.0.
        let w = port_weights(&refs, 1.0, 0.05).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn identical_apps_split_evenly() {
        let m = lr();
        let w = port_weights(&[&m, &m, &m, &m], 1.0, 0.02).unwrap();
        for &x in &w {
            assert!((x - 0.25).abs() < 1e-4, "{w:?}");
        }
    }

    #[test]
    fn centroid_weights_agree_with_port_weights_on_ordering() {
        // The centralized path fits each model's clamped predictions
        // above its saturation point, the distributed path each raw
        // centroid polynomial above `CENTROID_FLOOR` — numerically
        // different, but both must favour the sensitive model.
        let (lr, pr) = (lr(), pr());
        let via_models = port_weights(&[&lr, &pr], 1.0, 0.02).unwrap();
        let centroids: Vec<ModelSurrogate> = [&lr, &pr]
            .iter()
            .map(|m| ModelSurrogate::of_centroid(m.coefficients(), 1.0).unwrap())
            .collect();
        let mut via_centroids = Vec::new();
        port_weights_from_surrogates(
            centroids.iter(),
            1.0,
            0.02,
            0.30,
            &mut SolveScratch::new(),
            &mut via_centroids,
        )
        .unwrap();
        assert!(via_models[0] > via_models[1]);
        assert!(via_centroids[0] > via_centroids[1]);
    }

    #[test]
    fn a_model_without_a_finite_surrogate_has_none() {
        // Finite predictions of order 1e308 overflow the fit's normal
        // equations.
        let huge = SensitivityModel {
            poly: Polynomial::new(vec![1e308, -1e308, 1e308]),
            ..lr()
        };
        assert!(ModelSurrogate::of(&huge, 1.0).is_err());
        assert!(ModelSurrogate::of_centroid(&[1e308, -1e308, 1e308], 1.0).is_err());
        assert!(ModelSurrogate::of_centroid(&[f64::NAN, -1.0, 0.5], 1.0).is_err());
        assert_eq!(
            port_weights(&[&lr(), &huge], 1.0, 0.02).unwrap_err(),
            OptimizeError::NotConvexQuadratic
        );
    }

    #[test]
    fn empty_models_is_an_error() {
        assert_eq!(
            port_weights(&[], 1.0, 0.02).unwrap_err(),
            OptimizeError::Empty
        );
    }
}
