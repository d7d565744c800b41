//! Golden-scenario regression for the paper-figure pipelines.
//!
//! Two checked-in CSVs pin the observable outputs of the figure
//! pipelines to their current values:
//!
//! - `golden/fig12_shape.csv` — the controller-overhead pipeline
//!   (Fig. 12), reduced to its *deterministic* skeleton: for a sweep of
//!   application counts, the number of reprogrammed ports, total queues
//!   programmed, and a weight checksum. Wall-clock solve times are
//!   intentionally excluded — goldens must be bit-stable across
//!   machines.
//! - `golden/speedup.csv` — one fixed-seed cluster setup run under the
//!   baseline and under Saba, reported as the per-workload speedups of
//!   the Fig. 8 report path, at fixed precision.
//!
//! `check_goldens` diffs freshly computed CSVs against the checked-in
//! copies; `conformance --bless` rewrites them after an intentional
//! behaviour change (the diff then documents the change in review).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_cluster::corun::CorunConfig;
use saba_cluster::metrics::per_workload_speedups;
use saba_cluster::{generate_setup, run_setup, Policy, SetupConfig};
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_sim::ids::AppId;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::catalog;
use std::path::PathBuf;

/// The checked-in Fig. 12 shape golden.
pub const FIG12_SHAPE_GOLDEN: &str = include_str!("../golden/fig12_shape.csv");
/// The checked-in speedup golden.
pub const SPEEDUP_GOLDEN: &str = include_str!("../golden/speedup.csv");
/// The checked-in coflow CCT golden.
pub const COFLOW_GOLDEN: &str = include_str!("../golden/coflow.csv");

/// The Fig. 12 synthetic-table generator (same shape as the bench bin).
fn synthetic_table(count: usize, rng: &mut StdRng) -> SensitivityTable {
    let mut table = SensitivityTable::new();
    for i in 0..count {
        let steep = rng.gen_range(0.2..4.0);
        let floor = rng.gen_range(0.08..0.2);
        let samples: Vec<(f64, f64)> = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&b: &f64| (b, 1.0 + steep * (1.0 / b.max(floor) - 1.0) / 9.0))
            .collect();
        table.insert(SensitivityModel::fit(&format!("wl{i}"), &samples, 2).expect("fit"));
    }
    table
}

/// One Fig. 12 shape row's controller, loaded and never swept.
fn fig12_shape_controller(topo: &Topology, napps: usize) -> CentralController {
    let mut rng = StdRng::seed_from_u64(0x000F_1612 ^ napps as u64);
    let table = synthetic_table(napps, &mut rng);
    let mut controller = CentralController::new(ControllerConfig::default(), table, topo);
    let servers = topo.servers();
    for a in 0..napps {
        let app = AppId(a as u32);
        controller
            .register(app, &format!("wl{a}"))
            .expect("registered");
        // Four instances talking in a ring, placed at random.
        let nodes: Vec<_> = (0..4)
            .map(|_| servers[rng.gen_range(0..servers.len())])
            .collect();
        for w in 0..4 {
            let (src, dst) = (nodes[w], nodes[(w + 1) % 4]);
            if src != dst {
                controller.preload_connection(app, src, dst, (a * 100 + w) as u64);
            }
        }
    }
    controller
}

/// Computes the Fig. 12 shape CSV: the deterministic outputs of one
/// whole-fabric recompute for each application count — ports from two
/// applications wide to more than a hundred (the widest carries about
/// half the applications), every one solved exactly.
pub fn fig12_shape_csv() -> String {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
    let mut out = String::from("napps,ports,queues,weight_checksum\n");
    for napps in [2, 4, 8, 16, 32, 64, 128, 256] {
        let updates = fig12_shape_controller(&topo, napps).recompute_all();
        let queues: usize = updates.iter().map(|u| u.config.weights.len()).sum();
        let checksum: f64 = updates
            .iter()
            .map(|u| {
                let per_port: f64 = u
                    .config
                    .weights
                    .iter()
                    .enumerate()
                    .map(|(q, w)| (q + 1) as f64 * w)
                    .sum();
                (u.link.0 + 1) as f64 * per_port
            })
            .sum();
        out.push_str(&format!(
            "{napps},{},{queues},{checksum:.6}\n",
            updates.len()
        ));
    }
    out
}

/// Computes the speedup CSV: one fixed-seed cluster setup (16 jobs, 32
/// servers) run under the FECN baseline and under Saba central.
pub fn speedup_csv() -> String {
    let table = saba_bench::catalog_table(3);
    let cat = catalog();
    let mut rng = StdRng::seed_from_u64(0x5ABA_601D);
    let setup = generate_setup(&cat, &SetupConfig::default(), &mut rng);
    let cfg = CorunConfig {
        seed: 0x5ABA_601D,
        ..Default::default()
    };
    let servers = 32;
    let base = run_setup(&setup, servers, &Policy::baseline(), &table, &cat, &cfg)
        .expect("baseline run completes");
    let saba = run_setup(&setup, servers, &Policy::saba(), &table, &cat, &cfg)
        .expect("saba run completes");
    let report = per_workload_speedups(&base, &saba);
    let mut out = String::from("workload,speedup\n");
    for (w, s) in &report.per_workload {
        out.push_str(&format!("{w},{s:.4}\n"));
    }
    out.push_str(&format!("Average,{:.4}\n", report.average));
    out
}

/// Computes the coflow CCT CSV: the hand-solved two-coflow fixture of
/// `differential::coflow_fixtures` (one application, a 100 B and a
/// 10 000 B coflow sharing a 100 B/s source NIC) run under the
/// coflow-granular scheduler and under the per-app Sincronia
/// approximation, reported as per-coflow completion times.
pub fn coflow_cct_csv() -> String {
    use saba_baselines::{CoflowSincroniaFabric, SincroniaFabric};
    use saba_sim::engine::{FabricModel, FlowSpec, Simulation};
    use saba_sim::ids::ServiceLevel;
    use saba_workload::coflow::COFLOW_TAG_SHIFT;

    fn ccts<M: FabricModel>(model: M) -> std::collections::BTreeMap<u64, f64> {
        let topo = Topology::single_switch(4, 100.0);
        let s = topo.servers().to_vec();
        let mut sim = Simulation::new(topo, model);
        for (coflow, dst, bytes) in [(0u64, 1usize, 100.0), (1, 2, 10_000.0)] {
            sim.start_flow(FlowSpec {
                src: s[0],
                dst: s[dst],
                bytes,
                sl: ServiceLevel(0),
                app: AppId(0),
                tag: coflow << COFLOW_TAG_SHIFT,
                rate_cap: f64::INFINITY,
                min_rate: 0.0,
            });
        }
        let mut out = std::collections::BTreeMap::new();
        for c in sim.run_to_idle() {
            let id = c.spec.tag >> COFLOW_TAG_SHIFT;
            let t = out.entry(id).or_insert(f64::NEG_INFINITY);
            *t = t.max(c.finished);
        }
        out
    }

    let mut out = String::from("fabric,coflow,cct\n");
    for (name, done) in [
        ("coflow_sincronia", ccts(CoflowSincroniaFabric::new())),
        ("sincronia", ccts(SincroniaFabric::new())),
    ] {
        for (id, t) in done {
            out.push_str(&format!("{name},{id},{t:.6}\n"));
        }
    }
    out
}

/// First differing line of two CSVs, for failure messages.
fn first_diff(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("line {}: got `{g}`, golden `{w}`", i + 1);
        }
    }
    format!(
        "line counts differ: got {}, golden {}",
        got.lines().count(),
        want.lines().count()
    )
}

/// Diffs the freshly computed CSVs against the checked-in goldens.
pub fn check_goldens() -> Result<(), String> {
    let got = fig12_shape_csv();
    if got != FIG12_SHAPE_GOLDEN {
        return Err(format!(
            "fig12_shape.csv drifted from golden ({}); run `conformance --bless` if intentional",
            first_diff(&got, FIG12_SHAPE_GOLDEN)
        ));
    }
    let got = speedup_csv();
    if got != SPEEDUP_GOLDEN {
        return Err(format!(
            "speedup.csv drifted from golden ({}); run `conformance --bless` if intentional",
            first_diff(&got, SPEEDUP_GOLDEN)
        ));
    }
    let got = coflow_cct_csv();
    if got != COFLOW_GOLDEN {
        return Err(format!(
            "coflow.csv drifted from golden ({}); run `conformance --bless` if intentional",
            first_diff(&got, COFLOW_GOLDEN)
        ));
    }
    Ok(())
}

/// Rewrites the checked-in goldens with freshly computed CSVs and
/// returns the written paths.
pub fn bless() -> std::io::Result<Vec<PathBuf>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    std::fs::create_dir_all(&dir)?;
    let fig12 = dir.join("fig12_shape.csv");
    std::fs::write(&fig12, fig12_shape_csv())?;
    let speedup = dir.join("speedup.csv");
    std::fs::write(&speedup, speedup_csv())?;
    let coflow = dir.join("coflow.csv");
    std::fs::write(&coflow, coflow_cct_csv())?;
    Ok(vec![fig12, speedup, coflow])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shape_matches_golden() {
        assert_eq!(
            fig12_shape_csv(),
            FIG12_SHAPE_GOLDEN,
            "run `conformance --bless` if this change is intentional"
        );
    }

    #[test]
    fn fig12_shape_pins_a_port_wider_than_a_hundred_applications() {
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let mut controller = fig12_shape_controller(&topo, 256);
        let updates = controller.recompute_all();
        let widest = updates.iter().map(|u| controller.apps_at(u.link).len());
        let widest = widest.max().expect("occupied ports");
        assert!(widest > 100, "widest port: {widest} applications");
    }

    #[test]
    fn fig12_shape_is_deterministic() {
        assert_eq!(fig12_shape_csv(), fig12_shape_csv());
    }

    #[test]
    fn coflow_cct_matches_golden() {
        assert_eq!(
            coflow_cct_csv(),
            COFLOW_GOLDEN,
            "run `conformance --bless` if this change is intentional"
        );
    }
}
