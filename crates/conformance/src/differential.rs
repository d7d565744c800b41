//! Differential suites: two implementations of the same contract are
//! driven through identical inputs and their outputs diffed.
//!
//! - [`central_vs_distributed`] — the two controller designs (§5.4)
//!   must converge to the same per-application port weights after the
//!   same register/connect/destroy churn.
//! - [`bundled_vs_unbundled`] — full engine runs (faults and telemetry
//!   attached) with flow bundling on and off must complete the same
//!   flows at the same times: bundling is an exact optimization.
//! - [`baseline_fixtures`] — each comparator policy (§8.4) against a
//!   small hand-solved fixture.

use crate::oracles::check_weight_budget;
use crate::scenario::{ControlScenario, EngineScenario};
use saba_baselines::{
    CoflowSincroniaFabric, FecnBaseline, FecnConfig, HomaConfig, HomaFabric, IdealMaxMin,
    SincroniaFabric,
};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_sim::engine::{FabricModel, FlowSpec, Simulation};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_sim::topology::Topology;
use std::collections::BTreeMap;

/// Per-application weight tolerance between the central and distributed
/// designs.
///
/// The two controllers are *not* bit-identical by design: the central
/// solver optimizes protected convex surrogates per application, the
/// distributed shards solve over raw PL-centroid polynomials with a
/// stronger balance regularizer (§5.4 accepts a small optimality gap
/// for shard locality; §8.4 measures it at ≈4% end to end). The bound
/// below was calibrated by sweeping the tolerance over the 480-seed
/// `--long` corpus: the worst per-(port, app) gap lands between 0.11
/// and 0.15, so 0.18 holds with margin. It is a *regression tripwire*
/// for either solver drifting, not a bit-equality claim.
pub const CENTRAL_DIST_WEIGHT_TOL: f64 = 0.18;

/// Completion-time tolerance between bundled and unbundled engine runs
/// (pure floating-point reassociation noise).
const BUNDLING_RTOL: f64 = 1e-6;

/// Drives one controller design through the scenario's churn and
/// returns it with its budget-checked full recompute.
fn churned<P: Policy>(
    flavour: &str,
    sc: &ControlScenario,
    servers: &[NodeId],
    mut c: Controller<P>,
) -> Result<(Controller<P>, Vec<SwitchUpdate>), String> {
    for app in 0..sc.napps as u32 {
        c.register(AppId(app), &ControlScenario::workload_name(app as usize))
            .map_err(|e| format!("{flavour} register {app}: {e:?}"))?;
    }
    for (i, &(app, src, dst)) in sc.conns.iter().enumerate() {
        c.conn_create(AppId(app), servers[src], servers[dst], i as u64)
            .map_err(|e| format!("{flavour} conn {i}: {e:?}"))?;
    }
    for &i in &sc.destroys {
        c.conn_destroy(AppId(sc.conns[i].0), i as u64)
            .map_err(|e| format!("{flavour} destroy {i}: {e:?}"))?;
    }
    let updates = c.recompute_all();
    check_weight_budget(&updates, c.config().c_saba)?;
    Ok((c, updates))
}

/// Drives both controller designs through the same churn sequence and
/// diffs the per-application weights on every port.
pub fn central_vs_distributed(sc: &ControlScenario) -> Result<(), String> {
    let table = sc.table();
    let topo = sc.topology();
    let cfg = ControllerConfig::default();
    let servers = topo.servers();
    let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
    let central = CentralController::new(cfg.clone(), table, &topo);
    let (central, cu) = churned("central", sc, servers, central)?;
    let dist = DistributedController::new(cfg, db, &topo, 2);
    let (dist, du) = churned("distributed", sc, servers, dist)?;

    let cmap = by_link(&cu);
    let dmap = by_link(&du);
    if cmap.keys().ne(dmap.keys()) {
        return Err(format!(
            "port sets diverge: central {:?} vs distributed {:?}",
            cmap.keys().collect::<Vec<_>>(),
            dmap.keys().collect::<Vec<_>>()
        ));
    }

    for (&link, c) in &cmap {
        let d = &dmap[&link];
        for app in central.apps_at(saba_sim::ids::LinkId(link)) {
            let (Some(csl), Some(dsl)) = (central.sl_of(app), dist.sl_of(app)) else {
                continue;
            };
            let cw = c.weights[c.sl_to_queue[csl.0 as usize] as usize];
            let dw = d.weights[d.sl_to_queue[dsl.0 as usize] as usize];
            if (cw - dw).abs() > CENTRAL_DIST_WEIGHT_TOL {
                return Err(format!(
                    "link {link}, app {app}: central weight {cw:.4} vs distributed {dw:.4} \
                     (tolerance {CENTRAL_DIST_WEIGHT_TOL})"
                ));
            }
        }
    }
    Ok(())
}

fn by_link(updates: &[SwitchUpdate]) -> BTreeMap<u32, &saba_core::fabric::PortQueueConfig> {
    updates.iter().map(|u| (u.link.0, &u.config)).collect()
}

/// Runs the same engine scenario (faults armed, telemetry recording)
/// with bundling on and off; completions must match flow for flow.
pub fn bundled_vs_unbundled(sc: &EngineScenario) -> Result<(), String> {
    let a = sc.run(true);
    let b = sc.run(false);
    let at: BTreeMap<u64, f64> = a.completions.iter().copied().collect();
    let bt: BTreeMap<u64, f64> = b.completions.iter().copied().collect();
    if at.keys().ne(bt.keys()) {
        return Err(format!(
            "completed flow sets diverge: {} bundled vs {} unbundled",
            at.len(),
            bt.len()
        ));
    }
    for (tag, &ta) in &at {
        let tb = bt[tag];
        if (ta - tb).abs() > 1e-9 + BUNDLING_RTOL * ta.abs().max(tb.abs()) {
            return Err(format!(
                "flow {tag}: completes at {ta} bundled vs {tb} unbundled"
            ));
        }
    }
    if a.stats.flows_completed != b.stats.flows_completed
        || (a.rerouted, a.parked, a.resumed) != (b.rerouted, b.parked, b.resumed)
    {
        return Err(format!(
            "run accounting diverges: {:?} vs {:?}",
            (a.stats.flows_completed, a.rerouted, a.parked, a.resumed),
            (b.stats.flows_completed, b.rerouted, b.parked, b.resumed)
        ));
    }
    Ok(())
}

fn fixture_spec(src: NodeId, dst: NodeId, bytes: f64, app: u32, tag: u64) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        bytes,
        sl: ServiceLevel(0),
        app: AppId(app),
        tag,
        rate_cap: f64::INFINITY,
        min_rate: 0.0,
    }
}

fn run_fixture<M: FabricModel>(model: M, flows: &[FlowSpec]) -> BTreeMap<u64, f64> {
    let topo = Topology::single_switch(4, 100.0);
    let mut sim = Simulation::new(topo, model);
    for f in flows {
        sim.start_flow(f.clone());
    }
    sim.run_to_idle()
        .into_iter()
        .map(|c| (c.spec.tag, c.finished))
        .collect()
}

fn expect(done: &BTreeMap<u64, f64>, tag: u64, want: f64, what: &str) -> Result<(), String> {
    let got = done
        .get(&tag)
        .ok_or_else(|| format!("{what}: flow {tag} never completed"))?;
    if (got - want).abs() > 1e-6 * want.max(1.0) {
        return Err(format!("{what}: flow {tag} finished at {got}, want {want}"));
    }
    Ok(())
}

/// Each baseline policy against a hand-solved fixture on a 4-server
/// single-switch testbed with 100 B/s links.
pub fn baseline_fixtures() -> Result<(), String> {
    let topo = Topology::single_switch(4, 100.0);
    let s = topo.servers().to_vec();

    // Ideal max-min, parking lot: two 1000 B flows converge on s2's
    // downlink and split it 50/50 — both finish at exactly 20 s; a
    // third, uncontended 1000 B flow runs at line rate.
    let done = run_fixture(
        IdealMaxMin::default(),
        &[
            fixture_spec(s[0], s[2], 1000.0, 0, 1),
            fixture_spec(s[1], s[2], 1000.0, 1, 2),
            fixture_spec(s[3], s[1], 1000.0, 2, 3),
        ],
    );
    expect(&done, 1, 20.0, "ideal parking lot")?;
    expect(&done, 2, 20.0, "ideal parking lot")?;
    expect(&done, 3, 10.0, "ideal uncontended")?;

    // FECN: a single flow suffers no imperfection (η(1) = 1, exact line
    // rate); under 2-way contention η(2) < 1 strictly delays both flows
    // past the ideal 20 s.
    let done = run_fixture(
        FecnBaseline::new(FecnConfig::default()),
        &[fixture_spec(s[0], s[1], 1000.0, 0, 1)],
    );
    expect(&done, 1, 10.0, "fecn solo")?;
    let done = run_fixture(
        FecnBaseline::new(FecnConfig::default()),
        &[
            fixture_spec(s[0], s[2], 1000.0, 0, 1),
            fixture_spec(s[1], s[2], 1000.0, 1, 2),
        ],
    );
    for tag in [1, 2] {
        let t = done
            .get(&tag)
            .ok_or_else(|| format!("fecn contended: flow {tag} never completed"))?;
        if *t <= 20.0 {
            return Err(format!(
                "fecn contended: flow {tag} at {t} s beats the ideal 20 s — η(2) must cost"
            ));
        }
    }

    // Homa: a solo flow is exact; a 500 B flow sharing its source NIC
    // with a 10 000 B flow (distinct receivers, so no overcommit)
    // preempts it outright — short at its 5 s solo time, long only
    // after the short's bytes drained (≥ 100 s serial tail).
    let done = run_fixture(
        HomaFabric::new(HomaConfig::default()),
        &[fixture_spec(s[0], s[1], 1000.0, 0, 1)],
    );
    expect(&done, 1, 10.0, "homa solo")?;
    let done = run_fixture(
        HomaFabric::new(HomaConfig::default()),
        &[
            fixture_spec(s[0], s[1], 500.0, 0, 1),
            fixture_spec(s[0], s[2], 10_000.0, 1, 2),
        ],
    );
    expect(&done, 1, 5.0, "homa short-before-long")?;
    let long = done[&2];
    if long < 100.0 {
        return Err(format!(
            "homa short-before-long: long flow at {long} s, expected ≥ 100 s (serialized tail)"
        ));
    }

    // Sincronia: two single-flow coflows on one source NIC; BSSI runs
    // the 1000 B coflow first (10 s), the 4000 B one drains the link
    // right after (50 s).
    let done = run_fixture(
        SincroniaFabric::new(),
        &[
            fixture_spec(s[0], s[1], 1000.0, 0, 1),
            fixture_spec(s[0], s[2], 4000.0, 1, 2),
        ],
    );
    expect(&done, 1, 10.0, "sincronia small-first")?;
    expect(&done, 2, 50.0, "sincronia large-second")?;
    Ok(())
}

/// The coflow-aware Sincronia extension against hand-solved two-coflow
/// fixtures on the single-switch testbed (100 B/s links), plus the
/// collapse differential against the per-app approximation.
pub fn coflow_fixtures() -> Result<(), String> {
    let topo = Topology::single_switch(4, 100.0);
    let s = topo.servers().to_vec();
    let tag = |id: u64| id << saba_workload::coflow::COFLOW_TAG_SHIFT;

    // One application, two single-constituent coflows sharing one
    // source NIC. Coflow-granular BSSI drains the 100 B coflow first
    // (CCT exactly 1 s), then the 10 000 B one (101 s)...
    let flows = [
        fixture_spec(s[0], s[1], 100.0, 0, tag(0)),
        fixture_spec(s[0], s[2], 10_000.0, 0, tag(1)),
    ];
    let done = run_fixture(CoflowSincroniaFabric::new(), &flows);
    expect(&done, tag(0), 1.0, "coflow-granular small-first")?;
    expect(&done, tag(1), 101.0, "coflow-granular large-second")?;
    // ...while the per-app approximation folds both into one app-0
    // coflow whose constituents fair-share the NIC: the small flow
    // stretches to 2 s; the large one still takes 101 s (the NIC moves
    // 10 100 bytes either way).
    let done = run_fixture(SincroniaFabric::new(), &flows);
    expect(&done, tag(0), 2.0, "per-app fair-share small")?;
    expect(&done, tag(1), 101.0, "per-app large")?;

    // Collapse: one coflow per application makes the (app, coflow)
    // refinement the identity, so the two fabrics must agree flow for
    // flow — here on the classic small-before-large BSSI order.
    let flows = [
        fixture_spec(s[0], s[1], 1000.0, 0, tag(0)),
        fixture_spec(s[0], s[2], 4000.0, 1, tag(5)),
    ];
    let fine = run_fixture(CoflowSincroniaFabric::new(), &flows);
    let coarse = run_fixture(SincroniaFabric::new(), &flows);
    expect(&fine, tag(0), 10.0, "collapse small-first")?;
    expect(&fine, tag(5), 50.0, "collapse large-second")?;
    if fine.keys().ne(coarse.keys()) {
        return Err("collapse: completed flow sets diverge".into());
    }
    for (t, &ta) in &fine {
        let tb = coarse[t];
        if (ta - tb).abs() > 1e-9 + 1e-9 * ta.abs().max(tb.abs()) {
            return Err(format!(
                "collapse: flow {t} at {ta} coflow-granular vs {tb} per-app"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_match_hand_solved_fixtures() {
        baseline_fixtures().unwrap();
    }

    #[test]
    fn coflow_baselines_match_hand_solved_fixtures() {
        coflow_fixtures().unwrap();
    }

    #[test]
    fn controllers_converge_on_a_small_scenario() {
        central_vs_distributed(&ControlScenario::generate(1)).unwrap();
    }

    #[test]
    fn bundling_is_exact_on_a_small_scenario() {
        bundled_vs_unbundled(&EngineScenario::generate(1)).unwrap();
    }
}
