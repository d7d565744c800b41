//! `ledger compare A.json B.json`: judges run set B against run set A
//! (both written by `ledger all`) with the bounds `BENCHMARK.json` fixes,
//! one row per (workload, end-to-end metric).

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use saba_telemetry::json::{self, JsonValue};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// The runs' own spread exceeds the bound: no call either way.
    Unresolved,
    Regression,
}

/// One judged (workload, metric) pair.
#[derive(Debug)]
pub struct Row {
    pub base_median: f64,
    pub new_median: f64,
    /// `new_median / base_median`.
    pub ratio: f64,
    /// Larger quartile spread of the two run sets.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Applies `bound` (the share of the base median by which the metric
/// may get worse) to two sets of values of one metric on one workload.
/// `spread_counts` is false for `setup_s`: a handful of one-off builds
/// per run, which the benchmark contract judges by its medians alone.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64, spread_counts: bool) -> Row {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let ratio = new_median / base_median;
    let worsening = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = stats::quartile_spread(base).max(stats::quartile_spread(new));
    let verdict = if worsening > bound {
        Verdict::Regression
    } else if spread_counts && spread > bound {
        Verdict::Unresolved
    } else if -worsening > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        base_median,
        new_median,
        ratio,
        spread,
        verdict,
    }
}

/// The untraced runs of one `ledger all` result file.
struct RunSet {
    doc: JsonValue,
}

impl RunSet {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("quick").and_then(JsonValue::as_bool) != Some(false) {
            return Err(format!(
                "{path}: a --quick run set measures too little to compare"
            ));
        }
        Ok(Self { doc })
    }

    fn wal_fs(&self) -> &str {
        self.doc
            .get("wal_fs")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
    }

    fn untraced<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a JsonValue> + 'a {
        let runs = match self.doc.get("runs") {
            Some(JsonValue::Arr(runs)) => runs.as_slice(),
            _ => &[],
        };
        runs.iter().filter(move |r| {
            r.get("workload").and_then(JsonValue::as_str) == Some(workload)
                && r.get("trace").and_then(JsonValue::as_u64) == Some(0)
        })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.untraced(workload)
            .filter_map(|r| {
                r.get("result")?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// `(failed, attempted)` summed over the workload's untraced runs.
    fn failed_of(&self, workload: &str) -> (u64, u64) {
        let field = |r: &JsonValue, k: &str| {
            r.get("result")
                .and_then(|x| x.get(k))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        self.untraced(workload).fold((0, 0), |(f, a), r| {
            (f + field(r, "failed"), a + field(r, "attempted"))
        })
    }
}

/// The bound `BENCHMARK.json` fixes per end-to-end metric.
fn bounds(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(JsonValue::Arr(items)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{path}: an end_to_end entry lacks name or bound"))
        })
        .collect()
}

/// Prints the table and returns the process exit code: 0 nothing got
/// worse, 1 a regression, 2 the files cannot be compared, 3 no
/// regression but at least one unresolved pair.
pub fn run(base_path: &str, new_path: &str, benchmark_path: &str) -> i32 {
    let loaded = RunSet::load(base_path)
        .and_then(|a| Ok((a, RunSet::load(new_path)?, bounds(benchmark_path)?)));
    let (base, new, bounds) = match loaded {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    if base.wal_fs() != new.wal_fs() {
        eprintln!(
            "compare: WAL filesystems differ ({} vs {}); disk numbers are not comparable",
            base.wal_fs(),
            new.wal_fs()
        );
        return 2;
    }

    let (mut regressions, mut unresolved) = (0, 0);
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (a, b) = (
                base.values(workload, def.name),
                new.values(workload, def.name),
            );
            let bound = bounds.iter().find(|(n, _)| n == def.name).map(|&(_, b)| b);
            let (Some(bound), false, false) = (bound, a.is_empty(), b.is_empty()) else {
                eprintln!(
                    "compare: {workload}/{} is missing from a file or BENCHMARK.json",
                    def.name
                );
                return 2;
            };
            let row = judge(&a, &b, def.better, bound, def.name != "setup_s");
            regressions += (row.verdict == Verdict::Regression) as u32;
            unresolved += (row.verdict == Verdict::Unresolved) as u32;
            println!(
                "{:<12} {:<12} {:>14.4} {:>14.4} {:>8.4} {:>7.1}% {:>5.0}%  {:?} (n={}/{}, {})",
                workload,
                def.name,
                row.base_median,
                row.new_median,
                row.ratio,
                100.0 * row.spread,
                100.0 * bound,
                row.verdict,
                a.len(),
                b.len(),
                def.unit
            );
        }
        let ((fa, na), (fb, nb)) = (base.failed_of(workload), new.failed_of(workload));
        let (share_a, share_b) = (fa as f64 / na.max(1) as f64, fb as f64 / nb.max(1) as f64);
        let worse = share_b > share_a;
        regressions += worse as u32;
        println!(
            "{:<12} {:<12} {:>14} {:>14}  failed/attempted  {}",
            workload,
            "failed_ops",
            format!("{fa}/{na}"),
            format!("{fb}/{nb}"),
            if worse { "Regression" } else { "Unchanged" }
        );
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    match (regressions, unresolved) {
        (0, 0) => 0,
        (0, _) => 3,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let by = |f: f64| steady.map(|v| v * f);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&steady, &by(1.05), Better::Lower, 0.10, true).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &by(1.15), Better::Lower, 0.10, true).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&steady, &by(0.80), Better::Lower, 0.10, true).verdict,
            Verdict::Improved
        );
        // Higher is better: the same ratios read the other way.
        assert_eq!(
            judge(&steady, &by(0.85), Better::Higher, 0.10, true).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&steady, &by(1.20), Better::Higher, 0.10, true).verdict,
            Verdict::Improved
        );
        // A set noisier than the bound cannot be called unchanged...
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.10, true).verdict,
            Verdict::Unresolved
        );
        // ...but a clear worsening is still a regression.
        assert_eq!(
            judge(&noisy, &by(1.5), Better::Lower, 0.10, true).verdict,
            Verdict::Regression
        );
        // Where the spread does not count (set-up), medians alone decide.
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.10, false).verdict,
            Verdict::Unchanged
        );
        let row = judge(&steady, &by(1.05), Better::Lower, 0.10, true);
        assert!((row.ratio - 1.05).abs() < 1e-12 && row.base_median == 100.0);
    }
}
