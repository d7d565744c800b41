//! Invariant oracles.
//!
//! Each oracle checks one paper-level invariant on a concrete artifact
//! (an allocation vector, a batch of switch updates, a queue map, an
//! engine run) and returns `Err(reason)` on violation. Oracles never
//! panic on a failing property — the harness attributes the failure to
//! the scenario seed, shrinks it, and dumps a replay artifact instead.

use crate::reference::reference_rates;
use crate::scenario::{EngineScenario, FlowSetScenario};
use saba_core::controller::queuemap::PortMap;
use saba_core::controller::SwitchUpdate;
use saba_core::sensitivity::SensitivityModel;
use saba_sim::sharing::{compute_rates_into, ByIndex, SharingFlow, SharingScratch};

/// Relative tolerance for capacity/conservation checks: the production
/// allocator runs a *bounded* number of refill passes, so a few ULPs of
/// residual slack per pass are expected.
const FEASIBILITY_RTOL: f64 = 1e-6;

/// Tolerance when diffing the production allocator against the
/// reference solver. Both freeze flows in the same canonical order, so
/// the gap is pure floating-point accumulation noise.
const REFERENCE_RTOL: f64 = 1e-6;

/// Absolute floor added to relative comparisons (rates near zero).
const ATOL: f64 = 1e-9;

fn close(a: f64, b: f64, rtol: f64) -> bool {
    if a == b {
        return true; // Covers infinities.
    }
    (a - b).abs() <= ATOL + rtol * a.abs().max(b.abs())
}

/// **Capacity feasibility**: at every link, the rates of the flows
/// crossing it sum to at most the link capacity; every rate is
/// non-negative and within its flow's cap.
pub fn check_feasibility(
    capacities: &[f64],
    flows: &[SharingFlow],
    rates: &[f64],
) -> Result<(), String> {
    let mut used = vec![0.0; capacities.len()];
    for (i, f) in flows.iter().enumerate() {
        let r = rates[i];
        if r < 0.0 || r.is_nan() {
            return Err(format!("flow {i}: negative or NaN rate {r}"));
        }
        if r > f.rate_cap * (1.0 + FEASIBILITY_RTOL) + ATOL {
            return Err(format!("flow {i}: rate {r} exceeds cap {}", f.rate_cap));
        }
        if !f.path.is_empty() && !r.is_finite() {
            return Err(format!("flow {i}: infinite rate on a non-empty path"));
        }
        for &l in &f.path {
            used[l.0 as usize] += r;
        }
    }
    for (l, (&u, &c)) in used.iter().zip(capacities).enumerate() {
        if u > c * (1.0 + FEASIBILITY_RTOL) + ATOL {
            return Err(format!("link {l}: usage {u} exceeds capacity {c}"));
        }
    }
    Ok(())
}

/// **Work conservation**: every flow is either cap-limited or crosses
/// at least one saturated link — no flow can unilaterally take more.
pub fn check_work_conservation(
    capacities: &[f64],
    flows: &[SharingFlow],
    rates: &[f64],
) -> Result<(), String> {
    let mut used = vec![0.0; capacities.len()];
    for (f, &r) in flows.iter().zip(rates) {
        for &l in &f.path {
            used[l.0 as usize] += r;
        }
    }
    for (i, f) in flows.iter().enumerate() {
        if f.path.is_empty() {
            continue;
        }
        let capped = rates[i] >= f.rate_cap * (1.0 - FEASIBILITY_RTOL) - ATOL;
        let bottlenecked = f.path.iter().any(|&l| {
            let l = l.0 as usize;
            used[l] >= capacities[l] * (1.0 - FEASIBILITY_RTOL) - ATOL
        });
        if !capped && !bottlenecked {
            return Err(format!(
                "flow {i}: rate {} is below cap {} yet no link on its path is saturated",
                rates[i], f.rate_cap
            ));
        }
    }
    Ok(())
}

/// **Max-min optimality**: the production allocator matches the
/// textbook reference solver on this scenario, bundled and on the
/// unbundled reference scratch, to floating-point tolerance.
pub fn check_against_reference(sc: &FlowSetScenario) -> Result<(), String> {
    let flows = sc.sharing_flows();
    let want = reference_rates(&sc.capacities, &flows);
    for bundling in [true, false] {
        let mut scratch = if bundling {
            SharingScratch::default()
        } else {
            SharingScratch::unbundled()
        };
        let mut got = Vec::new();
        compute_rates_into(&sc.capacities, &ByIndex(&flows), &mut scratch, &mut got);
        check_feasibility(&sc.capacities, &flows, &got)?;
        check_work_conservation(&sc.capacities, &flows, &got)?;
        for i in 0..flows.len() {
            if !close(got[i], want[i], REFERENCE_RTOL) {
                return Err(format!(
                    "flow {i} (bundling={bundling}): allocator {} vs reference {}",
                    got[i], want[i]
                ));
            }
        }
    }
    Ok(())
}

/// **Eq. 2 weight budget**: every reprogrammed port's queue weights
/// sum to 1.0 — `C_saba` allocated across Saba queues plus, when
/// `c_saba < 1`, the `1 − C_saba` reserved queue for non-compliant
/// traffic — and the SL table only references real queues.
pub fn check_weight_budget(updates: &[SwitchUpdate], c_saba: f64) -> Result<(), String> {
    for u in updates {
        let total: f64 = u.config.weights.iter().sum();
        if !close(total, 1.0, 1e-6) {
            return Err(format!(
                "link {}: queue weights sum to {total}, want 1.0",
                u.link
            ));
        }
        if c_saba < 1.0 {
            let reserved = *u.config.weights.last().expect("validated non-empty");
            if !close(reserved, 1.0 - c_saba, 1e-6) {
                return Err(format!(
                    "link {}: reserved queue weight {reserved}, want {}",
                    u.link,
                    1.0 - c_saba
                ));
            }
        }
        let saba_total: f64 = if c_saba < 1.0 {
            u.config.weights[..u.config.weights.len() - 1].iter().sum()
        } else {
            total
        };
        if !close(saba_total, c_saba, 1e-6) {
            return Err(format!(
                "link {}: Saba queue weights sum to {saba_total}, want C_saba = {c_saba}",
                u.link
            ));
        }
        for (sl, &q) in u.config.sl_to_queue.iter().enumerate() {
            if q as usize >= u.config.weights.len() {
                return Err(format!(
                    "link {}: SL {sl} maps to queue {q} of {}",
                    u.link,
                    u.config.weights.len()
                ));
            }
        }
    }
    Ok(())
}

/// **Sensitivity monotonicity**: predicted slowdown never *increases*
/// with more bandwidth (more network cannot make an application
/// slower), within a small fitting-noise slack.
pub fn check_model_monotonicity(model: &SensitivityModel) -> Result<(), String> {
    // The profiled samples are ground truth: they must be strictly
    // non-increasing in bandwidth (up to measurement noise).
    let mut samples = model.samples.clone();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in samples.windows(2) {
        let ((b0, d0), (b1, d1)) = (pair[0], pair[1]);
        if d1 > d0 * (1.0 + 1e-6) + 1e-9 {
            return Err(format!(
                "{}: profiled slowdown rises from {d0} (b = {b0}) to {d1} (b = {b1})",
                model.workload
            ));
        }
    }
    // The fitted polynomial may legitimately swing up past its vertex
    // near b → 1 (a few percent of the model's dynamic range for
    // shallow degree-2 fits); only a rise that clears that fitting
    // artifact is an inversion.
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, d)| {
            (lo.min(d), hi.max(d))
        });
    let slack = 0.02 + 0.25 * (hi - lo).max(0.0);
    let mut floor = f64::INFINITY;
    for step in 0..=100 {
        let b = 0.05 + 0.95 * step as f64 / 100.0;
        let d = model.predict(b);
        if d > floor + slack {
            return Err(format!(
                "{}: fitted slowdown rises from {floor} to {d} at b = {b}",
                model.workload
            ));
        }
        floor = floor.min(d);
    }
    Ok(())
}

/// **PL → queue consistency** (§5.3.2): the groups of a port map are a
/// partition of the present PLs, fit within the queue budget, and the
/// SL table routes every present PL to the queue of its own group.
pub fn check_port_map(
    map: &PortMap,
    present_pls: &[usize],
    max_queues: usize,
) -> Result<(), String> {
    if map.groups.is_empty() || map.groups.len() > max_queues {
        return Err(format!(
            "{} queues used, budget is {max_queues}",
            map.groups.len()
        ));
    }
    let mut seen: Vec<usize> = map.groups.iter().flatten().copied().collect();
    seen.sort_unstable();
    let mut want: Vec<usize> = present_pls.to_vec();
    want.sort_unstable();
    want.dedup();
    if seen != want {
        return Err(format!(
            "groups {seen:?} are not a partition of the present PLs {want:?}"
        ));
    }
    for &pl in &want {
        let q = map
            .groups
            .iter()
            .position(|g| g.contains(&pl))
            .expect("partition checked above");
        if map.sl_to_queue[pl] as usize != q {
            return Err(format!(
                "PL {pl} is in group {q} but its SL maps to queue {}",
                map.sl_to_queue[pl]
            ));
        }
    }
    Ok(())
}

/// Seeded end-to-end exercise of the PL → queue invariant: builds a
/// [`QueueMapper`](saba_core::controller::queuemap::QueueMapper) over
/// random centroids and checks [`check_port_map`] for a random present
/// subset under every queue budget.
pub fn check_seeded_queue_map(seed: u64) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use saba_core::controller::queuemap::QueueMapper;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_4AB5);
    let npls = rng.gen_range(2..=16usize);
    let centroids: Vec<(usize, Vec<f64>)> = (0..npls)
        .map(|pl| (pl, (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect()))
        .collect();
    let mapper = QueueMapper::build(&centroids).expect("non-empty centroid set");
    let mut pls: Vec<usize> = (0..npls).collect();
    pls.shuffle(&mut rng);
    let present = &pls[..rng.gen_range(1..=npls)];
    for max_queues in 1..=8usize {
        let map = mapper.map_port(present, max_queues);
        check_port_map(&map, present, max_queues)
            .map_err(|e| format!("{npls} PLs, budget {max_queues}: {e}"))?;
    }
    Ok(())
}

/// **Deterministic replay**: running the same engine scenario twice
/// yields bit-identical completions, statistics, fault accounting, and
/// telemetry traces.
pub fn check_replay(sc: &EngineScenario) -> Result<(), String> {
    let a = sc.run(true);
    let b = sc.run(true);
    if a.completions != b.completions {
        return Err("completion streams diverge across identical-seed runs".into());
    }
    if a.stats != b.stats || (a.rerouted, a.parked, a.resumed) != (b.rerouted, b.parked, b.resumed)
    {
        return Err(format!(
            "run statistics diverge: {:?}/{:?} vs {:?}/{:?}",
            a.stats,
            (a.rerouted, a.parked, a.resumed),
            b.stats,
            (b.rerouted, b.parked, b.resumed)
        ));
    }
    if a.trace != b.trace {
        let i = a
            .trace
            .iter()
            .zip(&b.trace)
            .position(|(x, y)| x != y)
            .unwrap_or(a.trace.len().min(b.trace.len()));
        return Err(format!("telemetry traces diverge at event {i}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::ids::LinkId;

    fn flow(path: &[u32], w: f64) -> SharingFlow {
        SharingFlow {
            path: path.iter().map(|&l| LinkId(l)).collect(),
            weights: vec![w; path.len()],
            priority: 0,
            rate_cap: f64::INFINITY,
        }
    }

    #[test]
    fn feasibility_catches_oversubscription() {
        let flows = [flow(&[0], 1.0), flow(&[0], 1.0)];
        assert!(check_feasibility(&[100.0], &flows, &[60.0, 60.0]).is_err());
        assert!(check_feasibility(&[100.0], &flows, &[60.0, 40.0]).is_ok());
    }

    #[test]
    fn conservation_catches_idle_capacity() {
        let flows = [flow(&[0], 1.0)];
        assert!(check_work_conservation(&[100.0], &flows, &[50.0]).is_err());
        assert!(check_work_conservation(&[100.0], &flows, &[100.0]).is_ok());
    }

    #[test]
    fn conservation_accepts_cap_limited_flows() {
        let mut f = flow(&[0], 1.0);
        f.rate_cap = 10.0;
        assert!(check_work_conservation(&[100.0], &[f], &[10.0]).is_ok());
    }

    #[test]
    fn monotonicity_accepts_fitted_models() {
        let samples = vec![(0.25, 3.4), (0.5, 2.0), (0.75, 1.3), (1.0, 1.0)];
        let m = SensitivityModel::fit("LR", &samples, 2).unwrap();
        check_model_monotonicity(&m).unwrap();
    }

    #[test]
    fn monotonicity_rejects_inverted_models() {
        let samples = vec![(0.25, 1.0), (0.5, 1.4), (0.75, 1.9), (1.0, 2.5)];
        let m = SensitivityModel::fit("weird", &samples, 1).unwrap();
        assert!(check_model_monotonicity(&m).is_err());
    }
}
