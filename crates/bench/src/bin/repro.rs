//! `repro` — the paper's evaluation (Table 1, Figs. 1–12, §8), the
//! design-knob ablation, the fault ladder and the telemetry dump, from
//! one table of experiments.
//!
//! Usage: `repro [<experiment>...] [--quick]`, where an experiment is one
//! of `table1 fig1 fig2 fig5 fig6 fig8 fig9 fig10 fig11 fig12 ablation
//! resilience observe`; with no names every experiment runs, in that
//! order. Each prints its rows and writes its files under `results/`
//! (`SABA_RESULTS_DIR` redirects them): every tracked CSV there is what
//! `repro <experiment>` writes. `--quick` runs at smoke scale, prints,
//! and writes nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_bench::{catalog_table, print_table, results_dir};
use saba_cluster::corun::{execute, CorunConfig, PlannedJob};
use saba_cluster::corun_faults::{execute_with_faults, execute_with_faults_traced, plan_jobs};
use saba_cluster::metrics::merge_reports;
use saba_cluster::runner::{default_threads, parallel_map};
use saba_cluster::{
    generate_setup, per_workload_speedups, run_datacenter, run_setup, ClusterSetup,
    DatacenterConfig, JobResult, JobSpec, Policy, SetupConfig, SpeedupReport,
};
use saba_core::controller::central::CentralController;
use saba_core::controller::ControllerConfig;
use saba_core::fabric::{PortQueueConfig, SabaFabric};
use saba_core::library::{InProcTransport, SabaLib};
use saba_core::profiler::{to_slowdowns, Profiler, ProfilerConfig};
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_faults::schedule::{FaultKind, FaultSchedule, FaultSpec, ScheduleConfig};
use saba_faults::transport::{ReliableTransport, RetryPolicy, RpcFaultConfig};
use saba_math::stats::{percentile, Ecdf};
use saba_sim::engine::{FairShareFabric, Simulation};
use saba_sim::ids::{AppId, LinkId, ServiceLevel};
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_sim::LINK_56G_BPS;
use saba_telemetry::{validate_jsonl, Histogram};
use saba_workload::synthetic::{synthetic_workloads, SyntheticConfig};
use saba_workload::trace::{utilization_series, zip_trace};
use saba_workload::{
    catalog, run_jobs, workload_by_name, JobPlan, JobRuntime, WorkloadClass, WorkloadSpec,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// An experiment's command-line name and the function that runs it.
type Experiment = (&'static str, fn(&Run));

/// Every experiment, in the order a bare `repro` runs them.
const EXPERIMENTS: [Experiment; 13] = [
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("ablation", ablation),
    ("resilience", resilience),
    ("observe", observe),
];

/// The Table-1 workloads in the paper's figure order.
const ORDER: [&str; 10] = [
    "LR", "RF", "GBT", "SVM", "NI", "NW", "PR", "SQL", "WC", "Sort",
];

/// One table row: a label (a comma splits it into leading columns) and
/// its values.
type Row = (String, Vec<f64>);

/// How experiments run: at full scale writing their CSVs, or at
/// `--quick` smoke scale writing nothing.
struct Run {
    quick: bool,
    /// Set when a claim an experiment checks does not hold: `repro`
    /// then exits 1 once every experiment has run.
    failed: Cell<bool>,
}

impl Run {
    /// Checks one of the paper's claims on this run's numbers; a false
    /// one is reported on stderr and fails the run.
    fn check(&self, holds: bool, claim: impl FnOnce() -> String) {
        if !holds {
            eprintln!("repro: {}", claim());
            self.failed.set(true);
        }
    }

    /// Writes `contents` to `results/<file>`; a quick run writes nothing.
    fn write(&self, file: &str, contents: &str) {
        if !self.quick {
            let path = results_dir().join(file);
            std::fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }

    /// Writes `header` and `lines` to `results/<file>`, one per line.
    fn save(&self, file: &str, header: &str, lines: &[String]) {
        let text: String = std::iter::once(header)
            .chain(lines.iter().map(String::as_str))
            .flat_map(|line| [line, "\n"])
            .collect();
        self.write(file, &text);
    }

    /// The row emitter: prints `rows` under `title` at 2 decimals and
    /// saves them to `file` as [`csv_lines`].
    fn rows(&self, title: &str, file: &str, header: &str, rows: &[Row]) {
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|(label, values)| {
                let values = values.iter().map(|v| format!("{v:.2}"));
                label.split(',').map(str::to_string).chain(values).collect()
            })
            .collect();
        print_table(title, &header.split(',').collect::<Vec<_>>(), &cells);
        self.save(file, header, &csv_lines(rows));
    }
}

/// One `label,{:.4},…` CSV line per row.
fn csv_lines(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|(label, values)| {
            let values = values.iter().map(|v| format!(",{v:.4}"));
            std::iter::once(label.clone()).chain(values).collect()
        })
        .collect()
}

/// Parses `[<experiment>...] [--quick]` into the experiments to run (all
/// of them when none is named) and whether `--quick` was given.
fn parse(args: &[String]) -> Result<(Vec<Experiment>, bool), String> {
    let mut quick = false;
    let mut chosen = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if let Some(e) = EXPERIMENTS.iter().find(|(name, _)| name == arg) {
            chosen.push(*e);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "unknown experiment {arg:?}; expected any of: {} [--quick]",
                names.join(" ")
            ));
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.to_vec();
    }
    Ok((chosen, quick))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiments, quick) = parse(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2)
    });
    let run = Run {
        quick,
        failed: Cell::new(false),
    };
    for (_, experiment) in experiments {
        experiment(&run);
    }
    if run.failed.get() {
        std::process::exit(1);
    }
}

/// Table 1 — the workload catalog: class and profiled dataset per
/// workload, plus the calibrated model parameters this reproduction
/// derives them from.
fn table1(run: &Run) {
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for w in catalog() {
        let plan = w.profile_plan();
        let t0 = plan.analytic_completion(LINK_56G_BPS);
        let comm_frac = 1.0 - plan.total_compute_secs() / t0;
        let class = match w.class {
            WorkloadClass::MachineLearning => "Machine Learning",
            WorkloadClass::Graph => "Graph",
            WorkloadClass::Websearch => "Websearch",
            WorkloadClass::Sql => "SQL",
            WorkloadClass::Micro => "Micro",
            WorkloadClass::Synthetic => "Synthetic",
        };
        let stages = w.stages.len();
        rows.push(vec![
            w.name.clone(),
            class.to_string(),
            w.dataset_desc.clone(),
            stages.to_string(),
            format!("{t0:.0}"),
            format!("{:.0}%", comm_frac * 100.0),
        ]);
        let (name, dataset) = (&w.name, &w.dataset_desc);
        lines.push(format!(
            "{name},{class},{dataset:?},{stages},{t0:.1},{comm_frac:.3}"
        ));
    }
    print_table(
        "Table 1: workloads and dataset sizes",
        &[
            "workload",
            "class",
            "dataset",
            "stages",
            "T0 (s)",
            "comm frac",
        ],
        &rows,
    );
    let header = "workload,class,dataset,stages,t0_s,comm_frac";
    run.save("table1_workloads.csv", header, &lines);
}

/// Isolated completion time of a catalog workload at a NIC throttle
/// (with the profiler's pipelining-floor semantics).
fn isolated(name: &str, bw: f64) -> f64 {
    let spec = workload_by_name(name).expect("catalog workload");
    let mut topo = Topology::single_switch(spec.profile_nodes, LINK_56G_BPS);
    topo.throttle_all_nics(bw);
    let mut sim = Simulation::new(topo, FairShareFabric::default());
    let nodes = sim.topo().servers().to_vec();
    let job = JobRuntime::new(AppId(0), ServiceLevel(0), nodes, spec.profile_plan(), 0);
    run_jobs(&mut sim, &mut [job], |_, _| {}).expect("isolated run completes")[0]
}

/// Co-runs LR and PR over all 8 servers under the FECN max-min baseline
/// (`None`) or a static WFQ split `(w_lr, w_pr)`, returning their times.
fn corun_lr_pr(skewed: Option<(f64, f64)>) -> (f64, f64) {
    let topo = Topology::single_switch(8, LINK_56G_BPS);
    let nodes = topo.servers().to_vec();
    let jobs: Vec<PlannedJob> = ["LR", "PR"]
        .into_iter()
        .map(|name| PlannedJob {
            workload: name.to_string(),
            dataset_scale: 1.0,
            plan: workload_by_name(name)
                .expect("catalog workload")
                .profile_plan(),
            nodes: nodes.clone(),
        })
        .collect();
    let Some((w_lr, w_pr)) = skewed else {
        let results = execute(topo, jobs, &Policy::baseline(), &SensitivityTable::new())
            .expect("baseline co-run completes");
        return (results[0].completion, results[1].completion);
    };
    // LR's SL0 -> queue 0 (weight w_lr), PR's SL1 -> queue 1 (weight
    // w_pr), on every port.
    let mut fabric = SabaFabric::for_topology(&topo);
    let mut map = [0u8; 16];
    map[1] = 1;
    let cfg = PortQueueConfig::new(map, vec![w_lr, w_pr]);
    for l in 0..topo.num_links() {
        fabric.set_port(LinkId(l as u32), cfg.clone());
    }
    let mut sim = Simulation::new(topo, fabric);
    let mut runtimes: Vec<JobRuntime> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            let mut rt = JobRuntime::new(
                AppId(i as u32),
                ServiceLevel(i as u8),
                j.nodes,
                j.plan,
                (i as u64) << 32,
            );
            rt.set_pipeline_floor(false);
            rt
        })
        .collect();
    let times = run_jobs(&mut sim, &mut runtimes, |_, _| {}).expect("skewed co-run completes");
    (times[0], times[1])
}

/// Figure 1 — the motivation experiments (§2.1, §2.2).
///
/// (a) Slowdown of every workload with the NIC throttled to 75 % and
/// 25 % (in isolation on 8 servers). (b) LR and PR co-running on the same
/// 8 servers under the max-min InfiniBand baseline and a static skewed
/// 75/25 WFQ split.
fn fig1(run: &Run) {
    let rows: Vec<Row> = ORDER
        .iter()
        .map(|&name| {
            let t100 = isolated(name, 1.0);
            let slowdowns = vec![isolated(name, 0.75) / t100, isolated(name, 0.25) / t100];
            (name.to_string(), slowdowns)
        })
        .collect();
    run.rows(
        "Figure 1a: slowdown under reduced bandwidth (isolation)",
        "fig1a_slowdown.csv",
        "workload,slowdown_75,slowdown_25",
        &rows,
    );
    let avg25 = rows.iter().map(|(_, d)| d[1]).sum::<f64>() / rows.len() as f64;
    println!("average at 25% BW: {avg25:.2}");
    println!("paper anchors: LR 1.3/3.4, Sort ~1.0/1.1, average at 25% = 2.1");

    let (lr, pr) = (isolated("LR", 1.0), isolated("PR", 1.0));
    let (lr_mm, pr_mm) = corun_lr_pr(None);
    let (lr_sk, pr_sk) = corun_lr_pr(Some((0.75, 0.25)));
    run.rows(
        "Figure 1b: co-run slowdown vs stand-alone",
        "fig1b_corun.csv",
        "scheme,lr_slowdown,pr_slowdown",
        &[
            ("max-min".into(), vec![lr_mm / lr, pr_mm / pr]),
            ("skewed".into(), vec![lr_sk / lr, pr_sk / pr]),
        ],
    );
    println!("paper anchors: max-min LR 2.26 / PR 1.21; skewed LR 1.48 / PR 1.34");
}

/// Figure 2 — CPU and network utilization timelines of LR and PR at 75 %
/// and 25 % NIC bandwidth (§2.3).
fn fig2(run: &Run) {
    let bucket = 2.0;
    for name in ["LR", "PR"] {
        let spec = workload_by_name(name).expect("catalog workload");
        let mut completions = Vec::new();
        for bw in [0.75, 0.25] {
            let mut topo = Topology::single_switch(spec.profile_nodes, LINK_56G_BPS);
            topo.throttle_all_nics(bw);
            let mut sim = Simulation::new(topo, FairShareFabric::default());
            let nodes = sim.topo().servers().to_vec();
            let probe = sim.add_probe(sim.topo().nic_link(nodes[0]), bucket);
            let mut job = JobRuntime::new(AppId(0), ServiceLevel(0), nodes, spec.profile_plan(), 0);
            job.enable_cpu_trace();
            let mut jobs = [job];
            let horizon =
                run_jobs(&mut sim, &mut jobs, |_, _| {}).expect("isolated run completes")[0];
            completions.push(horizon);
            let busy = jobs[0]
                .cpu_busy_intervals()
                .expect("CPU tracing is enabled");
            let cpu = utilization_series(busy, bucket, horizon);
            // Normalized against the *unthrottled* NIC.
            let net = sim.probe(probe).utilization_series(LINK_56G_BPS);
            let points = zip_trace(&cpu, &net, bucket);

            let lines: Vec<String> = points
                .iter()
                .map(|p| format!("{:.1},{:.1},{:.1}", p.time, p.cpu_pct, p.net_pct))
                .collect();
            let pct = (bw * 100.0) as u32;
            let file = format!("fig2_{}_{pct}pct.csv", name.to_lowercase());
            run.save(&file, "time_s,cpu_pct,net_pct", &lines);

            // Console sparkline: network utilization, 1 char per 4 buckets.
            let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
            let line: String = points
                .chunks(4)
                .map(|c| {
                    let avg = c.iter().map(|p| p.net_pct).sum::<f64>() / c.len() as f64;
                    glyphs[((avg / 100.0 * 7.0).round() as usize).min(7)]
                })
                .collect();
            println!("{name} @ {pct:>3}% BW  net |{line}|");
        }
        println!(
            "{name}: completion {:.0} s @75% -> {:.0} s @25% ({:.2}x)\n",
            completions[0],
            completions[1],
            completions[1] / completions[0]
        );
    }
    println!("paper anchors: LR 172 s -> 447 s (2.59x); PR 310 s -> 427 s (1.37x)");
}

/// The profiler's slowdown samples of workload `name` running `plan`.
fn slowdowns(name: &str, plan: &JobPlan) -> Vec<(f64, f64)> {
    to_slowdowns(&Profiler::new(ProfilerConfig::default()).measure_samples(name, plan))
}

/// Figure 5 — SQL's and LR's sensitivity samples with their degree-1/2/3
/// fits (§4.2).
fn fig5(run: &Run) {
    for name in ["SQL", "LR"] {
        let samples = slowdowns(
            name,
            &workload_by_name(name)
                .expect("catalog workload")
                .profile_plan(),
        );
        let models: Vec<SensitivityModel> = (1..=3)
            .map(|k| SensitivityModel::fit(name, &samples, k).expect("fit succeeds"))
            .collect();
        let rows: Vec<Row> = samples
            .iter()
            .map(|&(b, d)| {
                let fits = models.iter().map(|m| m.predict(b));
                (format!("{b:.2}"), std::iter::once(d).chain(fits).collect())
            })
            .collect();
        run.rows(
            &format!("Figure 5: {name} samples and fitted models"),
            &format!("fig5_{}.csv", name.to_lowercase()),
            "bw,sample,fit_k1,fit_k2,fit_k3",
            &rows,
        );
        let r2: Vec<String> = models
            .iter()
            .map(|m| format!("{:.3}", m.r_squared))
            .collect();
        println!("R² for k=1/2/3: {}", r2.join(" / "));
    }
    println!(
        "\npaper anchors: SQL needs k=3 (R² 0.63 -> 0.96); LR is near-linear \
         (k=1 R² 0.84, k=2 0.94, k=3 0.95)"
    );
}

/// Figure 6 — accuracy of the sensitivity models (§4.2): (a) R² against
/// polynomial degree; the k = 3 profile-time model's R² against samples
/// measured (b) at 0.1× / 1× / 10× the dataset and (c) at 0.5×–4× the
/// profiled node count.
fn fig6(run: &Run) {
    let specs: Vec<WorkloadSpec> = ORDER
        .iter()
        .map(|name| workload_by_name(name).expect("catalog workload"))
        .collect();
    let profiles: Vec<Vec<(f64, f64)>> = specs
        .iter()
        .map(|s| slowdowns(&s.name, &s.profile_plan()))
        .collect();

    let rows: Vec<Row> = specs
        .iter()
        .zip(&profiles)
        .map(|(spec, samples)| {
            let r2 = (1..=3).map(|k| {
                SensitivityModel::fit(&spec.name, samples, k)
                    .expect("fit succeeds")
                    .r_squared
            });
            (spec.name.clone(), r2.collect())
        })
        .collect();
    run.rows(
        "Figure 6a: R² vs degree of polynomial",
        "fig6a_degree.csv",
        "workload,r2_k1,r2_k2,r2_k3",
        &rows,
    );

    // R² of the k = 3 profile-time model against runtime samples at
    // (dataset scale, node count); the profiled point is the fit's own R².
    let accuracy = |spec: &WorkloadSpec, profile: &[(f64, f64)], points: &[(f64, usize)]| {
        let model = SensitivityModel::fit(&spec.name, profile, 3).expect("fit succeeds");
        let r2 = points.iter().map(|&(scale, nodes)| {
            if scale == 1.0 && nodes == spec.profile_nodes {
                model.r_squared
            } else {
                model.accuracy_against(&slowdowns(&spec.name, &spec.plan(scale, nodes)))
            }
        });
        (spec.name.clone(), r2.collect())
    };
    let rows: Vec<Row> = specs
        .iter()
        .zip(&profiles)
        .map(|(spec, s)| {
            let n = spec.profile_nodes;
            accuracy(spec, s, &[(0.1, n), (1.0, n), (10.0, n)])
        })
        .collect();
    run.rows(
        "Figure 6b: R² vs runtime dataset size",
        "fig6b_dataset.csv",
        "workload,r2_0.1x,r2_1x,r2_10x",
        &rows,
    );
    let rows: Vec<Row> = specs
        .iter()
        .zip(&profiles)
        .map(|(spec, s)| {
            let nodes = [0.5, 1.0, 2.0, 3.0, 4.0]
                .map(|x| (1.0, ((spec.profile_nodes as f64 * x) as usize).max(1)));
            accuracy(spec, s, &nodes)
        })
        .collect();
    run.rows(
        "Figure 6c: R² vs runtime node count",
        "fig6c_nodes.csv",
        "workload,r2_0.5x,r2_1x,r2_2x,r2_3x,r2_4x",
        &rows,
    );
    println!(
        "\npaper anchors: (a) all ≥0.60 at k=1, SQL 0.63→0.96; \
         (b) all ≥0.55, SVM least affected, NI most; \
         (c) all ≥0.50 up to 3x, most <0.50 at 4x except LR/RF/Sort"
    );
}

/// Per-workload speedup columns, one per report, in [`ORDER`] (a
/// workload missing from any report is skipped), then their averages.
fn columns(reports: &[SpeedupReport]) -> Vec<Row> {
    let per_workload = ORDER.iter().filter_map(|&w| {
        let values = reports.iter().map(|r| r.per_workload.get(w).copied());
        Some((w.to_string(), values.collect::<Option<Vec<f64>>>()?))
    });
    let average = (
        "Average".to_string(),
        reports.iter().map(|r| r.average).collect(),
    );
    per_workload.chain([average]).collect()
}

/// The §8.2 randomised sweep: `setups` seeded 16-job setups on 32
/// servers (setup `i` drawn from seed `seed + i`), each run under the
/// FECN baseline and under `policy`. Returns every setup's report and
/// their merge.
fn sweep(
    seed: u64,
    setups: usize,
    table: &SensitivityTable,
    policy: &Policy,
) -> (Vec<SpeedupReport>, SpeedupReport) {
    let cat = catalog();
    let runs = parallel_map(setups, default_threads(), |i| {
        let mut rng = StdRng::seed_from_u64(seed + i as u64);
        let setup = generate_setup(&cat, &SetupConfig::default(), &mut rng);
        let cfg = CorunConfig {
            seed: 0x5aba ^ i as u64,
            ..Default::default()
        };
        let base = run_setup(&setup, 32, &Policy::baseline(), table, &cat, &cfg)
            .expect("baseline run completes");
        let res = run_setup(&setup, 32, policy, table, &cat, &cfg).expect("policy run completes");
        let names: Vec<String> = setup.jobs.iter().map(|j| j.workload.clone()).collect();
        (per_workload_speedups(&base, &res), names)
    });
    let (reports, names): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    let merged = merge_reports(&reports, &names);
    (reports, merged)
}

/// Figure 8 — the main testbed result (§8.2): (a) Saba's speedup over
/// the InfiniBand baseline per workload across randomized setups (paper:
/// 500 setups of 16 jobs over 32 servers), (b) the CDF of the per-setup
/// average speedup.
fn fig8(run: &Run) {
    let setups = if run.quick { 20 } else { 500 };
    println!("Figure 8: {setups} cluster setups, 16 jobs each, 32 servers");
    let (reports, merged) = sweep(0xF168, setups, &catalog_table(3), &Policy::saba());
    run.rows(
        "Figure 8a: speedup of Saba over baseline",
        "fig8a_speedup.csv",
        "workload,speedup",
        &columns(&[merged]),
    );

    let per_setup: Vec<f64> = reports.iter().map(|r| r.average).collect();
    let ecdf = Ecdf::new(&per_setup);
    let cdf: Vec<Row> = ecdf
        .points()
        .iter()
        .map(|&(v, p)| (format!("{v:.4}"), vec![p]))
        .collect();
    run.save("fig8b_cdf.csv", "avg_speedup,cdf", &csv_lines(&cdf));
    let below = per_setup.iter().filter(|&&s| s < 1.0).count();
    println!(
        "\nFigure 8b: per-setup average speedup ranges {:.2}x..{:.2}x; \
         {below} of {setups} setups below 1.0x",
        ecdf.min(),
        ecdf.max()
    );
    println!("paper anchors: average 1.88x, range 0.94x..2.92x, 2/500 setups below 1.0x");
}

/// Saba's speedups over the baseline on a homogeneous setup: every
/// workload, at `dataset` × its dataset, spans all `servers`.
fn homogeneous(servers: usize, dataset: f64, table: &SensitivityTable) -> SpeedupReport {
    let cat = catalog();
    let jobs = ORDER.iter().map(|w| JobSpec {
        workload: w.to_string(),
        dataset_scale: dataset,
        servers: (0..servers).collect(),
    });
    let setup = ClusterSetup {
        jobs: jobs.collect(),
    };
    let cfg = CorunConfig::default();
    let base = run_setup(&setup, servers, &Policy::baseline(), table, &cat, &cfg)
        .expect("baseline run completes");
    let saba =
        run_setup(&setup, servers, &Policy::saba(), table, &cat, &cfg).expect("saba run completes");
    per_workload_speedups(&base, &saba)
}

/// Figure 9 — sensitivity studies on homogeneous co-runs (§8.3): speedup
/// against (a) runtime dataset size, (b) node count (0.5×–4× of the 8
/// profiled nodes), (c) polynomial degree.
fn fig9(run: &Run) {
    let table3 = catalog_table(3);
    let reports: Vec<_> = [0.1, 1.0, 10.0].map(|s| homogeneous(8, s, &table3)).into();
    run.rows(
        "Figure 9a: speedup vs dataset size",
        "fig9a_dataset.csv",
        "workload,0.1x,1x,10x",
        &columns(&reports),
    );
    println!("paper anchors: averages 1.33 / 1.54 / 1.40");

    let reports: Vec<_> = [4, 8, 16, 24, 32]
        .map(|n| homogeneous(n, 1.0, &table3))
        .into();
    run.rows(
        "Figure 9b: speedup vs node count",
        "fig9b_nodes.csv",
        "workload,0.5x,1x,2x,3x,4x",
        &columns(&reports),
    );
    println!("paper anchors: averages 1.42 / 1.54 / 1.34 / 1.26 / 1.09");

    let reports: Vec<_> = [1, 2, 3]
        .map(|k| homogeneous(8, 1.0, &catalog_table(k)))
        .into();
    run.rows(
        "Figure 9c: speedup vs polynomial degree",
        "fig9c_degree.csv",
        "workload,k=1,k=2,k=3",
        &columns(&reports),
    );
    println!("paper anchors: averages 1.27 / 1.42 / ~1.54");
}

/// The §8.4 datacenter: 20 synthetic workloads, profiled fresh, on the
/// 1,944-server spine-leaf fabric with 97 instances each (432 servers
/// and 21 instances under `--quick`), and the FECN baseline's run every
/// policy is compared against.
struct Datacenter {
    workloads: Vec<WorkloadSpec>,
    table: SensitivityTable,
    cfg: DatacenterConfig,
    base: Vec<JobResult>,
}

impl Datacenter {
    fn new(quick: bool) -> Self {
        let workloads = synthetic_workloads(&SyntheticConfig::default(), 0x5aba);
        let table = Profiler::new(ProfilerConfig::default())
            .profile_all(&workloads)
            .expect("synthetic profiling succeeds");
        let cfg = if quick {
            DatacenterConfig {
                topo: SpineLeafConfig {
                    spines: 12,
                    leaves: 24,
                    tors: 24,
                    servers_per_tor: 18,
                    leaf_uplinks_per_tor: 6,
                    link_capacity: LINK_56G_BPS,
                },
                instances_per_workload: 21,
                ..DatacenterConfig::paper()
            }
        } else {
            DatacenterConfig::paper()
        };
        println!(
            "datacenter: {} servers, {} workloads x {} instances",
            cfg.topo.tors * cfg.topo.servers_per_tor,
            workloads.len(),
            cfg.instances_per_workload
        );
        let base = run_datacenter(&workloads, &Policy::baseline(), &table, &cfg)
            .expect("baseline completes");
        Self {
            workloads,
            table,
            cfg,
            base,
        }
    }

    /// `policy`'s speedups over the baseline run.
    fn speedups(&self, policy: &Policy) -> SpeedupReport {
        let res = run_datacenter(&self.workloads, policy, &self.table, &self.cfg)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", policy.name()));
        per_workload_speedups(&self.base, &res)
    }
}

/// Saba at the datacenter's dense-mix operator setting
/// (`protect_fraction = 0.55`, DESIGN.md §8).
fn dense_saba() -> ControllerConfig {
    ControllerConfig {
        protect_fraction: 0.55,
        ..Default::default()
    }
}

/// Figure 10 — the datacenter comparison (§8.4 studies 4–6): Saba, ideal
/// max-min, Homa and Sincronia against the InfiniBand FECN baseline.
fn fig10(run: &Run) {
    let dc = Datacenter::new(run.quick);
    let policies = [
        Policy::Saba(dense_saba()),
        Policy::IdealMaxMin,
        Policy::Homa(Default::default()),
        Policy::Sincronia,
    ];
    let reports: Vec<SpeedupReport> = policies.iter().map(|p| dc.speedups(p)).collect();
    let rows: Vec<Row> = dc
        .workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (
                w.name.clone(),
                reports.iter().map(|r| r.per_job[i]).collect(),
            )
        })
        .collect();
    run.rows(
        "Figure 10: speedup over the baseline",
        "fig10_policies.csv",
        "workload,saba,ideal_max_min,homa,sincronia",
        &rows,
    );
    let avgs: Vec<String> = reports
        .iter()
        .map(|r| format!("{:.2}", r.average))
        .collect();
    let saba = &reports[0].per_job;
    let max = saba.iter().cloned().fold(f64::MIN, f64::max);
    let min = saba.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "\naverages (Saba / ideal / Homa / Sincronia): {}",
        avgs.join(" / ")
    );
    println!("Saba per-workload range: {min:.2}x .. {max:.2}x");
    println!(
        "paper anchors: averages Saba 1.27, ideal 1.14, Homa 1.12, Sincronia 1.19; \
         Saba range ~0.97x..1.79x"
    );
}

/// Figure 11 — controller design and queue count (§8.4 studies 7–8) on
/// the Fig. 10 setup: (a) centralized vs distributed controller, (b)
/// speedup against queues per port (16 = one per PL is the ceiling here).
/// Fails the run when (a)'s two rows are more than 2 % apart: the paper
/// has the distributed design "within a couple of percent".
fn fig11(run: &Run) {
    let dc = Datacenter::new(run.quick);
    let avg = |policy: Policy| vec![dc.speedups(&policy).average];
    let central = dc.speedups(&Policy::Saba(dense_saba())).average;
    let distributed = dc
        .speedups(&Policy::SabaDistributed(dense_saba(), 16))
        .average;
    let gap = (distributed - central).abs() / central;
    run.rows(
        "Figure 11a: centralized vs distributed controller",
        "fig11a_controller.csv",
        "controller,avg_speedup",
        &[
            ("centralized".into(), vec![central]),
            ("distributed".into(), vec![distributed]),
        ],
    );
    println!(
        "paper anchors: centralized 1.27, distributed 1.23; here {:.2} % apart (at most 2 %)",
        100.0 * gap
    );
    run.check(gap <= 0.02, || {
        format!(
            "Figure 11a: distributed {distributed:.4} is {:.2} % from centralized \
             {central:.4}, more than 2 %",
            100.0 * gap
        )
    });

    let rows: Vec<Row> = [2usize, 4, 8, 16]
        .into_iter()
        .map(|queues_per_port| {
            let cfg = ControllerConfig {
                queues_per_port,
                ..dense_saba()
            };
            (queues_per_port.to_string(), avg(Policy::Saba(cfg)))
        })
        .collect();
    run.rows(
        "Figure 11b: speedup vs queues per port",
        "fig11b_queues.csv",
        "queues,avg_speedup",
        &rows,
    );
    println!(
        "paper anchors: 1.12 (2 queues), 1.27 (8), 1.33 (unlimited); \
         16 queues = one per PL is the ceiling here"
    );
}

/// A synthetic sensitivity table of `count` degree-`k` models with
/// varied steepness.
fn synthetic_table(count: usize, k: usize, rng: &mut StdRng) -> SensitivityTable {
    let mut table = SensitivityTable::new();
    for i in 0..count {
        let steep = rng.gen_range(0.2..4.0);
        let floor = rng.gen_range(0.08..0.2);
        let samples: Vec<(f64, f64)> = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&b: &f64| (b, 1.0 + steep * (1.0 / b.max(floor) - 1.0) / 9.0))
            .collect();
        table.insert(SensitivityModel::fit(&format!("wl{i}"), &samples, k).expect("fit"));
    }
    table
}

/// Figure 12 — controller overhead (§8.5): the central controller's
/// time to compute every switch's shares on the 1,944-server fabric,
/// across scenarios of 1–1,000 applications (32 instances each, placed
/// at random) with degree-1/2/3 models. 600 scenarios (30 under
/// `--quick`; the paper ran 30,000). The CSV's timing column is
/// host-dependent; the first two columns are seeded.
fn fig12(run: &Run) {
    let scenarios = if run.quick { 30 } else { 600 };
    let instances = 32;
    let topo = Topology::spine_leaf(&SpineLeafConfig::paper());
    println!(
        "Figure 12: {} scenarios, |A| in 1..=1000, {} instances/app, {} servers",
        scenarios,
        instances,
        topo.servers().len()
    );

    let mut rng = StdRng::seed_from_u64(0x000F_1612);
    // Measured calculation times, bucketed by (k, |A| <= 250): exact
    // samples for the CSV/percentiles, and the controller's own solve
    // histograms merged across scenarios for the telemetry view.
    let mut small: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut large: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut small_hist: Vec<Histogram> = vec![Histogram::new(); 3];
    let mut large_hist: Vec<Histogram> = vec![Histogram::new(); 3];
    let mut lines = Vec::new();

    for s in 0..scenarios {
        let num_apps = rng.gen_range(1..=1000usize);
        let k = 1 + s % 3;
        let table = synthetic_table(num_apps, k, &mut rng);
        let mut controller = CentralController::new(ControllerConfig::default(), table, &topo);
        controller.enable_solve_timing();
        let servers = topo.servers();
        for a in 0..num_apps {
            let app = AppId(a as u32);
            controller
                .register(app, &format!("wl{a}"))
                .expect("registered");
            // 32 instances talking pairwise (ring), placed at random.
            let nodes: Vec<_> = (0..instances)
                .map(|_| servers[rng.gen_range(0..servers.len())])
                .collect();
            for w in 0..instances {
                let (src, dst) = (nodes[w], nodes[(w + 1) % instances]);
                if src != dst {
                    controller.preload_connection(app, src, dst, (a * 100 + w) as u64);
                }
            }
        }
        // Timing comes from the controller's own solve instrumentation
        // (the same source the telemetry registry exposes under
        // `wall.`-prefixed names), not a caller-side stopwatch.
        let before = controller.solve_secs_total();
        let updates = controller.recompute_all();
        let secs = controller.solve_secs_total() - before;
        std::hint::black_box(updates);

        let (bucket, hists) = if num_apps <= 250 {
            (&mut small, &mut small_hist)
        } else {
            (&mut large, &mut large_hist)
        };
        bucket[k - 1].push(secs);
        hists[k - 1].merge(controller.solve_histogram());
        lines.push(format!("{num_apps},{k},{secs:.6}"));
    }
    run.save("fig12_overhead.csv", "num_apps,degree,calc_seconds", &lines);

    let mut rows = Vec::new();
    for (name, bucket, hists) in [
        ("|A| <= 250", &small, &small_hist),
        ("250 < |A| <= 1000", &large, &large_hist),
    ] {
        for k in 1..=3 {
            let xs = &bucket[k - 1];
            let h = &hists[k - 1];
            if xs.is_empty() {
                continue;
            }
            rows.push(vec![
                name.to_string(),
                format!("k={k}"),
                format!("{}", xs.len()),
                format!("{:.3}", percentile(xs, 50.0).expect("samples")),
                format!("{:.3}", percentile(xs, 99.0).expect("samples")),
                format!("{:.3}", h.p50().expect("histogram samples")),
                format!("{:.3}", h.p99().expect("histogram samples")),
            ]);
        }
    }
    print_table(
        "Figure 12: controller calculation time (seconds)",
        &["apps", "degree", "n", "p50", "p99", "hist p50", "hist p99"],
        &rows,
    );
    println!("paper anchors (p99): |A|<=250: 0.09/0.16/0.31 s; |A|<=1000: 0.43/0.72/1.13 s");
}

/// Ablation — not a paper figure: how much of Saba's benefit each
/// mechanism contributes on the §8.2 testbed mix, over 8 sweep setups
/// (2 under `--quick`) per value of the starvation-protection fraction
/// (0 = pure Eq. 2, 0.9 ≈ fair sharing), the model degree, and the
/// per-port queue budget.
fn ablation(run: &Run) {
    let setups = if run.quick { 2 } else { 8 };
    println!("Ablation over {setups} testbed setups each");
    let avg = |table: &SensitivityTable, cfg: ControllerConfig| {
        vec![sweep(0xAB1A, setups, table, &Policy::Saba(cfg)).1.average]
    };
    let table3 = catalog_table(3);
    let mut rows: Vec<Row> = Vec::new();
    for protect_fraction in [0.0, 0.3, 0.6, 0.9] {
        let cfg = ControllerConfig {
            protect_fraction,
            ..Default::default()
        };
        rows.push((
            format!("protect_fraction,{protect_fraction}"),
            avg(&table3, cfg),
        ));
    }
    for k in [1, 2, 3] {
        rows.push((
            format!("degree,k={k}"),
            avg(&catalog_table(k), Default::default()),
        ));
    }
    for queues_per_port in [2usize, 8, 16] {
        let cfg = ControllerConfig {
            queues_per_port,
            ..Default::default()
        };
        rows.push((
            format!("queues_per_port,{queues_per_port}"),
            avg(&table3, cfg),
        ));
    }
    run.rows(
        "Ablation: average speedup over baseline",
        "ablation.csv",
        "dimension,value,avg_speedup",
        &rows,
    );
}

/// `jobs` of LR, Sort, PR and SQL on the tiny spine-leaf with `jobs`
/// servers under each of its 4 ToRs, job `i` on server `i` of every ToR:
/// every job crosses the leaf and spine tiers a fault schedule breaks.
fn cross_rack_world(jobs: usize) -> (Topology, Vec<PlannedJob>) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(jobs));
    let servers = topo.servers().len();
    let specs: Vec<(String, f64, Vec<usize>)> = ["LR", "Sort", "PR", "SQL"][..jobs]
        .iter()
        .enumerate()
        .map(|(i, w)| (w.to_string(), 1.0, (i..servers).step_by(jobs).collect()))
        .collect();
    let planned = plan_jobs(&topo, &specs, &catalog(), 0.0, 0x5aba).expect("plannable jobs");
    (topo, planned)
}

/// Resilience — not a paper figure: how much of Saba's speedup survives
/// faults. Saba against the FECN baseline on [`cross_rack_world`] (four
/// jobs on 16 servers; two on 8 under `--quick`) under seeded fault
/// schedules of rising severity: 0 healthy; 1 link degradation and lossy
/// control-plane RPC; 2 adds a failed cable and a controller crash; 3 a
/// failed switch and (distributed flavour) a shard crash. Both policies
/// meet the same network faults; only Saba has a control plane to lose. A
/// second table soaks the RPC stack (`ReliableTransport`) at rising loss
/// rates. Wall-clock recovery latency is printed only: the CSVs hold
/// deterministic values alone.
fn resilience(run: &Run) {
    let table = catalog_table(3);
    let (topo, jobs) = cross_rack_world(if run.quick { 2 } else { 4 });
    let corun = |policy: &Policy, schedule: &FaultSchedule| {
        execute_with_faults(topo.clone(), jobs.clone(), policy, &table, schedule)
            .unwrap_or_else(|e| panic!("{} co-run under faults: {e}", policy.name()))
    };
    // Horizon: the healthy Saba run's makespan, so fault windows land
    // inside the co-run instead of after it.
    let healthy = corun(&Policy::saba(), &FaultSchedule::default());
    let horizon = healthy
        .results
        .iter()
        .map(|r| r.completion)
        .fold(0.0, f64::max);

    let (mut lines, mut cells, mut recoveries) = (Vec::new(), Vec::new(), Vec::new());
    let distributed = Policy::SabaDistributed(ControllerConfig::default(), 4);
    for (policy, name, num_shards) in [
        (Policy::saba(), "saba", 0),
        (distributed, "saba-distributed", 4),
    ] {
        let mut reference = None;
        for severity in 0..=3u32 {
            let cfg = ScheduleConfig {
                severity,
                horizon,
                num_shards,
            };
            let schedule = FaultSchedule::generate(&topo, &cfg, 0xFA17 ^ u64::from(severity));
            let base = corun(&Policy::baseline(), &schedule);
            let saba = corun(&policy, &schedule);
            let speedup = per_workload_speedups(&base.results, &saba.results).average;
            let retention = speedup / *reference.get_or_insert(speedup);
            let faults = schedule.faults.len();
            let (s, i) = (&saba.sim_stats, &saba.injector_stats);
            let r = saba.resilience.expect("saba policies have a controller");
            lines.push(format!(
                "{severity},{name},{faults},{speedup:.6},{retention:.6},{},{},{},{},{},{},{},{},{}",
                s.route_recomputes,
                i.rerouted,
                i.parked,
                i.resumed,
                r.stale_events,
                r.updates_suppressed,
                r.crashes,
                r.shard_crashes,
                r.recoveries,
            ));
            cells.push(vec![
                severity.to_string(),
                name.to_string(),
                faults.to_string(),
                format!("{speedup:.2}x"),
                format!("{:.0}%", retention * 100.0),
                i.rerouted.to_string(),
                i.parked.to_string(),
                i.resumed.to_string(),
                r.stale_events.to_string(),
                (r.crashes + r.shard_crashes).to_string(),
            ]);
            if r.recoveries > 0 {
                recoveries.push(format!(
                    "severity {severity} ({name}): last recovery took {} us wall-clock \
                     ({} registrations, {} connections replayed)",
                    r.last_recovery_micros, r.replayed_registrations, r.replayed_connections
                ));
            }
        }
    }
    run.save(
        "resilience.csv",
        "severity,policy,faults,avg_speedup,retention,route_recomputes,rerouted,parked,\
         resumed,stale_events,updates_suppressed,crashes,shard_crashes,recoveries",
        &lines,
    );
    print_table(
        "Speedup retention under faults (Saba vs FECN)",
        &[
            "sev",
            "policy",
            "faults",
            "speedup",
            "retention",
            "reroutes",
            "parked",
            "resumed",
            "stale",
            "crashes",
        ],
        &cells,
    );
    for line in recoveries {
        println!("{line}");
    }

    let rounds = if run.quick { 25 } else { 200 };
    let soak: Vec<String> = [0.0, 0.1, 0.3]
        .iter()
        .map(|&drop| rpc_soak_row(drop, rounds, &table))
        .collect();
    run.save(
        "resilience_rpc.csv",
        "drop_rate,calls,attempts,retries,duplicates,dedup_hits,exhausted,simulated_delay_s",
        &soak,
    );
    let cells: Vec<Vec<String>> = soak
        .iter()
        .map(|row| {
            let f: Vec<&str> = row.split(',').collect();
            [0, 1, 2, 3, 5, 7].map(|k| f[k].to_string()).to_vec()
        })
        .collect();
    print_table(
        "Control-plane RPC soak (retry + idempotent ids)",
        &["drop", "calls", "attempts", "retries", "dedup", "delay_s"],
        &cells,
    );
    println!(
        "paper anchor: Saba's gains come from reallocation, so they must survive \
         reallocation-under-failure; FECN has no control plane to lose but also \
         nothing to recover."
    );
}

/// Runs the Fig. 7 lifecycle `rounds` times through `ReliableTransport`
/// at one loss rate; returns the RPC counters as a CSV row.
fn rpc_soak_row(drop: f64, rounds: usize, table: &SensitivityTable) -> String {
    let topo = Topology::single_switch(4, LINK_56G_BPS);
    let servers = topo.servers().to_vec();
    let ctl = Rc::new(RefCell::new(CentralController::new(
        ControllerConfig::default(),
        table.clone(),
        &topo,
    )));
    let transport = ReliableTransport::new(
        InProcTransport::new(Rc::clone(&ctl)),
        RpcFaultConfig::lossy(drop, drop / 2.0),
        RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        },
        0x5aba ^ drop.to_bits(),
    );
    let mut lib = SabaLib::new(AppId(0), transport);
    lib.saba_app_register("LR").expect("register survives loss");
    for round in 0..rounds {
        let a = lib
            .saba_conn_create(servers[round % 4], servers[(round + 1) % 4])
            .expect("create survives loss");
        lib.saba_conn_destroy(a).expect("destroy survives loss");
    }
    lib.saba_app_deregister().expect("deregister survives loss");
    assert_eq!(ctl.borrow().num_conns(), 0, "lossy churn must not leak");
    let s = lib.transport().stats();
    format!(
        "{drop:.2},{},{},{},{},{},{},{:.6}",
        s.calls,
        s.attempts,
        s.retries,
        s.duplicates,
        s.dedup_hits,
        s.exhausted,
        lib.transport().simulated_delay()
    )
}

/// Observe — not a paper figure: the telemetry stack end to end. The
/// two-job [`cross_rack_world`] under a severity-2 fault schedule plus a
/// controller crash, with the full recorder attached, exported as
/// `observe_trace.jsonl` and `observe_trace.csv` (simulated time only),
/// `observe_metrics.json` (wall-clock readings only under `wall.` names)
/// and `observe_flight.json` (the crash-time snapshots). None of the four
/// is tracked.
fn observe(run: &Run) {
    let table = Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("catalog profiling succeeds");
    let (topo, jobs) = cross_rack_world(2);
    // Horizon from a healthy run, so fault windows land inside it.
    let healthy = execute(topo.clone(), jobs.clone(), &Policy::saba(), &table)
        .expect("healthy co-run completes");
    let horizon = healthy.iter().map(|r| r.completion).fold(0.0, f64::max);
    let cfg = ScheduleConfig {
        severity: 2,
        horizon,
        num_shards: 0,
    };
    let mut schedule = FaultSchedule::generate(&topo, &cfg, 0x0B5E);
    schedule.faults.push(FaultSpec {
        kind: FaultKind::CrashController,
        start: 0.3 * horizon,
        duration: 0.4 * horizon,
    });
    let (_, rec) = execute_with_faults_traced(topo, jobs, &Policy::saba(), &table, &schedule)
        .expect("traced co-run completes");

    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in rec.trace.events() {
        *by_kind.entry(ev.kind.name()).or_default() += 1;
    }
    let rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(kind, n)| vec![kind.to_string(), n.to_string()])
        .collect();
    print_table("Trace events by kind", &["event", "count"], &rows);
    println!(
        "trace: {} events retained ({} total, {} dropped); flight snapshots: {}",
        rec.trace.len(),
        rec.trace.total(),
        rec.trace.dropped(),
        rec.flight.snapshots().len()
    );
    let jsonl = rec.trace.to_jsonl();
    validate_jsonl(&jsonl).expect("exported trace is schema-valid");
    run.write("observe_trace.jsonl", &jsonl);
    run.write("observe_trace.csv", &rec.trace.to_csv());
    run.write("observe_metrics.json", &rec.registry.to_json());
    run.write("observe_flight.json", &rec.flight.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn row_emitter_writes_label_then_four_decimals() {
        let rows: Vec<Row> = vec![
            ("LR".into(), vec![1.0, 2.345_67]),
            ("protect_fraction,0.3".into(), vec![1.0 / 3.0]),
        ];
        assert_eq!(
            csv_lines(&rows),
            ["LR,1.0000,2.3457", "protect_fraction,0.3,0.3333"]
        );
    }

    #[test]
    fn unknown_experiment_is_an_error_listing_the_valid_names() {
        let err = parse(&args(&["fig1", "fig7"])).expect_err("fig7 is not an experiment");
        assert_eq!(
            err,
            "unknown experiment \"fig7\"; expected any of: table1 fig1 fig2 fig5 fig6 fig8 \
             fig9 fig10 fig11 fig12 ablation resilience observe [--quick]"
        );
        assert!(parse(&args(&["fig8", "--setups", "20"])).is_err());
        assert!(parse(&args(&["resilience", "--smoke"])).is_err());
    }

    #[test]
    fn no_names_runs_every_experiment_and_quick_is_a_switch() {
        let (all, quick) = parse(&args(&["--quick"])).unwrap();
        assert!(quick);
        assert_eq!(all.len(), EXPERIMENTS.len());
        let (some, quick) = parse(&args(&["fig12", "observe", "table1", "resilience"])).unwrap();
        assert!(!quick);
        let names: Vec<&str> = some.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["fig12", "observe", "table1", "resilience"]);
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
