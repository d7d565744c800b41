//! The conformance driver.
//!
//! ```text
//! conformance [--smoke | --long] [--seed-start N] [--bless]
//! ```
//!
//! `--smoke` (the default, CI's PR gate) runs the differential suites
//! over ~600 seeded scenarios plus the invariant oracles, baseline
//! fixtures, and golden-CSV checks, in a couple of minutes. `--long`
//! multiplies every scenario count by ten for the scheduled run.
//! `--bless` regenerates the checked-in golden CSVs instead of
//! checking them.
//!
//! On the first failing scenario the driver shrinks it to a minimal
//! counterexample (greedy component deletion, see `saba_conformance::
//! shrink`) and dumps a replay artifact — the shrunk scenario JSON plus
//! the telemetry trace and a flight-recorder snapshot of the failing
//! run — under `results/conformance_failures/`, then exits non-zero.

use saba_baselines::CoflowSincroniaFabric;
use saba_bench::results_dir;
use saba_conformance::differential::{
    baseline_fixtures, bundled_vs_unbundled, central_vs_distributed, coflow_fixtures,
};
use saba_conformance::golden;
use saba_conformance::incremental::{incremental_vs_scratch, ChurnScript};
use saba_conformance::obs::service_observability;
use saba_conformance::oracles::{
    check_against_reference, check_model_monotonicity, check_replay, check_seeded_queue_map,
};
use saba_conformance::scenario::{ControlScenario, EngineScenario, FlowSetScenario};
use saba_conformance::scenarios::{
    check_coflow_cct, check_reprofile, reprofile_demo, CoflowScenario, ReprofileScript,
};
use saba_conformance::shrink::{shrink_coflow, shrink_engine, shrink_flow_set};
use saba_telemetry::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

struct Profile {
    flow_sets: u64,
    engines: u64,
    controls: u64,
    incremental: u64,
    obs: u64,
    diversity: u64,
}

const SMOKE: Profile = Profile {
    flow_sets: 500,
    engines: 60,
    controls: 48,
    incremental: 500,
    obs: 500,
    diversity: 500,
};

const LONG: Profile = Profile {
    flow_sets: 5000,
    engines: 600,
    controls: 480,
    incremental: 5000,
    obs: 5000,
    diversity: 5000,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    if has("--bless") {
        match golden::bless() {
            Ok(paths) => {
                for p in paths {
                    println!("blessed {}", p.display());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let profile = if has("--long") { LONG } else { SMOKE };
    let seed_start: u64 = args
        .iter()
        .position(|a| a == "--seed-start")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let mut scenarios = 0u64;
    let fail = |name: &str, err: String| -> ExitCode {
        eprintln!("FAIL [{name}]: {err}");
        ExitCode::FAILURE
    };

    // 1. Allocator vs reference solver, plus feasibility and work
    //    conservation, over random flow sets.
    println!(
        "allocator vs reference: {} seeded flow sets",
        profile.flow_sets
    );
    for seed in seed_start..seed_start + profile.flow_sets {
        let sc = FlowSetScenario::generate(seed);
        if check_against_reference(&sc).is_err() {
            let small = shrink_flow_set(&sc, &mut |s| check_against_reference(s).is_err());
            let err = check_against_reference(&small).expect_err("shrunk scenario still fails");
            let path = dump_flow_set(&small, &err);
            return fail(
                "allocator-vs-reference",
                format!(
                    "seed {seed}: {err}\nshrunk to {} flows; artifact: {}",
                    small.flows.len(),
                    path.display()
                ),
            );
        }
        scenarios += 1;
    }

    // 2. Full-engine differentials: bundling equivalence and replay
    //    determinism, with faults and telemetry attached.
    println!("engine differentials: {} seeded scenarios", profile.engines);
    for seed in seed_start..seed_start + profile.engines {
        let sc = EngineScenario::generate(seed);
        if let Err(e) = check_replay(&sc) {
            return fail("replay-determinism", format!("seed {seed}: {e}"));
        }
        if let Err(e) = bundled_vs_unbundled(&sc) {
            let small = shrink_engine(&sc, &mut |s| bundled_vs_unbundled(s).is_err());
            let err = bundled_vs_unbundled(&small).expect_err("shrunk scenario still fails");
            let path = dump_engine(&small, &err);
            return fail(
                "bundled-vs-unbundled",
                format!(
                    "seed {seed}: {e}\nshrunk to {} flows / {} faults; artifact: {}",
                    small.flows.len(),
                    small.faults.len(),
                    path.display()
                ),
            );
        }
        scenarios += 1;
    }

    // 3. Controller differentials plus Eq. 2 / queue-map oracles, and
    //    sensitivity-model monotonicity on every generated table.
    println!(
        "central vs distributed: {} seeded churn scenarios",
        profile.controls
    );
    for seed in seed_start..seed_start + profile.controls {
        let sc = ControlScenario::generate(seed);
        let table = sc.table();
        for wl in 0..sc.napps {
            let model = table
                .get(&ControlScenario::workload_name(wl))
                .expect("generated model");
            if let Err(e) = check_model_monotonicity(model) {
                return fail("model-monotonicity", format!("seed {seed}: {e}"));
            }
        }
        if let Err(e) = central_vs_distributed(&sc) {
            return fail("central-vs-distributed", format!("seed {seed}: {e}"));
        }
        if let Err(e) = check_seeded_queue_map(seed) {
            return fail("pl-queue-mapping", format!("seed {seed}: {e}"));
        }
        scenarios += 1;
    }

    // 4. Incremental vs from-scratch epochs: after every event of a
    //    seeded churn script, the switch state accumulated from the
    //    incremental controllers' diffed updates must match a
    //    from-scratch recompute (both flavours).
    println!(
        "incremental vs scratch: {} seeded churn scripts",
        profile.incremental
    );
    for seed in seed_start..seed_start + profile.incremental {
        let sc = ChurnScript::generate(seed);
        if let Err(e) = incremental_vs_scratch(&sc) {
            return fail("incremental-vs-scratch", format!("seed {seed}: {e}"));
        }
        scenarios += 1;
    }

    // 5. Service-plane observability: byte-identical span-tree JSONL
    //    across runs, RPC→epoch span linkage, scrapeable exposition with
    //    monotone counters, and an exact traced-vs-untraced state match
    //    (no observer effect).
    println!(
        "service observability: {} seeded churn scripts",
        profile.obs
    );
    for seed in seed_start..seed_start + profile.obs {
        let sc = ChurnScript::generate(seed);
        if let Err(e) = service_observability(&sc) {
            return fail("service-observability", format!("seed {seed}: {e}"));
        }
        scenarios += 1;
    }

    // 6. Workload-diversity scenarios: coflow CCT semantics (plus the
    //    collapse differential) under random fault schedules, and the
    //    streaming-drift re-profiling invariants (no-op epochs, monotone
    //    improving refits, incremental == scratch on both flavours).
    println!(
        "workload diversity: {} coflow + {} re-profiling scenarios",
        profile.diversity,
        profile.diversity / 5
    );
    for seed in seed_start..seed_start + profile.diversity {
        let sc = CoflowScenario::generate(seed);
        if let Err(e) = check_coflow_cct(&sc) {
            let small = shrink_coflow(&sc, &mut |s| check_coflow_cct(s).is_err());
            let err = check_coflow_cct(&small).expect_err("shrunk scenario still fails");
            let path = dump_coflow(&small, &err);
            return fail(
                "coflow-cct",
                format!(
                    "seed {seed}: {e}\nshrunk to {} coflows / {} faults; artifact: {}",
                    small.coflows.len(),
                    small.faults.len(),
                    path.display()
                ),
            );
        }
        scenarios += 1;
    }
    for seed in seed_start..seed_start + profile.diversity / 5 {
        let sc = ReprofileScript::generate(seed);
        if let Err(e) = check_reprofile(&sc) {
            let path = dump_reprofile(&sc, &e);
            return fail(
                "reprofile",
                format!("seed {seed}: {e}\nartifact: {}", path.display()),
            );
        }
        scenarios += 1;
    }
    match reprofile_demo() {
        Ok(summary) => println!("{summary}"),
        Err(e) => return fail("reprofile-demo", e),
    }

    // 7. Baselines against hand-solved fixtures.
    println!("baseline fixtures");
    if let Err(e) = baseline_fixtures() {
        return fail("baseline-fixtures", e);
    }
    if let Err(e) = coflow_fixtures() {
        return fail("coflow-fixtures", e);
    }

    // 8. Golden CSVs of the figure pipelines.
    println!("golden CSVs");
    if let Err(e) = golden::check_goldens() {
        return fail("golden", e);
    }

    println!("conformance: {scenarios} scenarios, all suites green");
    ExitCode::SUCCESS
}

fn failure_dir() -> PathBuf {
    let dir = results_dir().join("conformance_failures");
    std::fs::create_dir_all(&dir).expect("create failure dir");
    dir
}

/// A replay artifact for a failing flow-set scenario.
#[derive(serde::Serialize)]
struct FlowSetArtifact {
    suite: String,
    error: String,
    scenario: FlowSetScenario,
}

fn dump_flow_set(sc: &FlowSetScenario, err: &str) -> PathBuf {
    let path = failure_dir().join(format!("flow_set_seed_{}.json", sc.seed));
    let artifact = FlowSetArtifact {
        suite: "allocator-vs-reference".into(),
        error: err.into(),
        scenario: sc.clone(),
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}

/// A replay artifact for a failing engine scenario: the shrunk
/// scenario plus the failing run's telemetry (flight snapshot JSON and
/// full trace JSONL).
#[derive(serde::Serialize)]
struct EngineArtifact {
    suite: String,
    error: String,
    scenario: EngineScenario,
    flight_json: String,
    trace_jsonl: String,
}

/// A replay artifact for a failing coflow scenario: the shrunk
/// scenario plus the full telemetry trace of the failing run.
#[derive(serde::Serialize)]
struct CoflowArtifact {
    suite: String,
    error: String,
    scenario: CoflowScenario,
    trace_jsonl: String,
}

fn dump_coflow(sc: &CoflowScenario, err: &str) -> PathBuf {
    let path = failure_dir().join(format!("coflow_seed_{}.json", sc.seed));
    let (_, recorder) = sc.run_recorded(CoflowSincroniaFabric::new());
    let artifact = CoflowArtifact {
        suite: "coflow-cct".into(),
        error: err.into(),
        scenario: sc.clone(),
        trace_jsonl: recorder.trace.to_jsonl(),
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}

/// A replay artifact for a failing re-profiling script.
#[derive(serde::Serialize)]
struct ReprofileArtifact {
    suite: String,
    error: String,
    scenario: ReprofileScript,
}

fn dump_reprofile(sc: &ReprofileScript, err: &str) -> PathBuf {
    let path = failure_dir().join(format!("reprofile_seed_{}.json", sc.seed));
    let artifact = ReprofileArtifact {
        suite: "reprofile".into(),
        error: err.into(),
        scenario: sc.clone(),
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}

fn dump_engine(sc: &EngineScenario, err: &str) -> PathBuf {
    let path = failure_dir().join(format!("engine_seed_{}.json", sc.seed));
    // Re-run the failing scenario with the recorder attached and keep a
    // flight snapshot plus the full trace as the replay artifact.
    let (run, mut recorder) = sc.run_recorded(true);
    let state = JsonValue::obj(vec![
        ("seed", JsonValue::Num(sc.seed as f64)),
        (
            "flows_completed",
            JsonValue::Num(run.stats.flows_completed as f64),
        ),
        ("rerouted", JsonValue::Num(run.rerouted as f64)),
        ("parked", JsonValue::Num(run.parked as f64)),
    ]);
    let t = run.completions.last().map(|&(_, t)| t).unwrap_or(0.0);
    let tracer = recorder.trace.clone();
    recorder
        .flight
        .capture("conformance-failure", t, &tracer, state);
    let artifact = EngineArtifact {
        suite: "bundled-vs-unbundled".into(),
        error: err.into(),
        scenario: sc.clone(),
        flight_json: recorder.flight.to_json(),
        trace_jsonl: recorder.trace.to_jsonl(),
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}
