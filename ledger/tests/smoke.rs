//! Runs every workload, untraced and traced, at `--quick` scale and holds
//! each result line to `BENCHMARK.json`: exactly the declared metrics,
//! in order, with their units, all checks passing, no failed op.

use saba_telemetry::json::{self, JsonValue};
use std::process::Command;

fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    let text = |item: &JsonValue, k: &str| {
        item.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    items
        .iter()
        .map(|i| (text(i, "name"), text(i, "unit")))
        .collect()
}

#[test]
fn quick_run_of_every_workload_reports_exactly_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (workload, _) in listed(&bench, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
                .args([
                    "--workload",
                    &workload,
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .output()
                .unwrap();
            let what = format!("{workload} --trace {trace}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{what} failed:\n{stderr}");
            let stdout = String::from_utf8(run.stdout).unwrap();
            let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();

            let JsonValue::Obj(pairs) = &result else {
                panic!("{what}: the result is not an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                result.get("correct").unwrap().as_bool(),
                Some(true),
                "{what}"
            );
            assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{what}");
            assert!(
                result.get("attempted").unwrap().as_u64().unwrap() >= 1,
                "{what}"
            );

            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{what}: no metrics object")
            };
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, cell)| {
                    assert!(
                        cell.get("value").unwrap().as_f64().is_some(),
                        "{what}: {name}"
                    );
                    (
                        name.clone(),
                        cell.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(reported, listed(&bench, key), "{what}");
            if trace == "0" {
                for (name, cell) in metrics {
                    let value = cell.get("value").unwrap().as_f64().unwrap();
                    assert!(value > 0.0, "{what}: end-to-end metric {name} is {value}");
                }
            }
        }
    }
}
