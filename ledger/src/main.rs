//! `ledger` — the repo's performance ledger.
//!
//! ```text
//! ledger [run] --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! ledger all [--seed S] [--seconds N] [--reps R] [--quick] [--out FILE]
//! ledger compare BASE.json NEW.json [--benchmark BENCHMARK.json]
//! ```
//!
//! One workload runs per process. With tracing off it reports the
//! end-to-end metrics; with tracing on, the per-layer ones, measured
//! from outside by timing calls into each layer's public functions.
//! The last line of stdout is the result as one JSON object; everything
//! else goes to stderr. See `README.md` beside this package.

mod compare;
mod epoch;
mod gen;
mod metrics;
mod simrun;
mod span;
mod stats;
mod svc;

use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use saba_telemetry::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// What an untraced run hands back.
pub struct E2e {
    /// Median time to build everything up to the first timed op.
    pub setup_s: f64,
    /// `(CPU seconds, ops completed)` per slice of the timed region.
    pub slices: Vec<(f64, u64)>,
    /// Wall-clock latency of every timed op, µs (stderr only).
    pub lat_us: Vec<f64>,
    /// Wall-clock throughput of the timed region (stderr only).
    pub wall_ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Slices an untraced run cuts its timed region into (`epoch_cold` and
/// `sim_corun`, whose ops take seconds, use one slice per repetition).
pub const SLICES: usize = 10;

/// Runs `f` as one slice; `f` returns the ops it completed and whatever
/// else the caller wants back.
pub fn slice<T>(slices: &mut Vec<(f64, u64)>, f: impl FnOnce() -> (u64, T)) -> T {
    let cpu0 = cpu_seconds();
    let (ops, rest) = f();
    slices.push((cpu_seconds() - cpu0, ops));
    rest
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "the ledger reads Linux's procfs and process CPU clock"
);

/// CPU time (user + system, every thread, exited ones included) this
/// process has used so far, in seconds. `/proc/self/stat` has the same
/// figure in 10 ms ticks, too coarse for a two-second slice.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout 64-bit
    // Linux uses (asserted above), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Builds the workload `reps` times from nothing, keeps the last build
/// and returns the median build time in seconds with it.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&secs), built.expect("reps >= 1"))
}

/// By how many percent the traced figure exceeds the untraced one.
pub fn overhead_pct(traced: f64, plain: f64) -> f64 {
    100.0 * (traced - plain) / plain
}

/// Logs a failed correctness check; `true` when it passed.
pub fn report(check: &str, result: Result<(), String>) -> bool {
    match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!("CHECK FAILED ({check}): {e}");
            false
        }
    }
}

/// Where runs put their WALs, span dumps and result files: inside the
/// build directory, which every checkout ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("ledger")
}

/// Peak resident set of this process, from the kernel's own account.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Filesystem type under `dir` (longest mount-point prefix).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--flag value` pairs and bare words of a command line.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
    quick: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut flags, mut words, mut quick) = (Vec::new(), Vec::new(), false);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--quick" {
                quick = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                words.push(a.clone());
            }
        }
        Ok(Self {
            flags,
            words,
            quick,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !names.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    /// Seconds to measure: a tenth of the asked time under `--quick`.
    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if !(s > 0.0 && s <= 60.0) {
            return Err(format!("--seconds {s}: allowed 0 < s <= 60"));
        }
        Ok(if self.quick { s / 10.0 } else { s })
    }

    fn seed(&self) -> Result<u64, String> {
        self.number("seed", gen::DEFAULT_SEED)
    }
}

fn run_args(cli: &Cli) -> Result<RunArgs, String> {
    cli.known(&["workload", "seed", "seconds", "trace"])?;
    let workload = cli.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    Ok(RunArgs {
        workload: workload.to_string(),
        seed: cli.seed()?,
        seconds: cli.seconds()?,
        trace: match cli.number("trace", 0u8)? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: allowed 0 or 1")),
        },
    })
}

/// Runs one workload in this process and prints its result line.
/// Returns the exit code.
fn run(args: &RunArgs) -> i32 {
    metrics::validate(END_TO_END, 16).expect("end-to-end metric list");
    metrics::validate(PER_LAYER, 128).expect("per-layer metric list");
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    eprintln!(
        "ledger: {} seed {} for {} s, trace {}; {} cpus, wal_fs {}, transport loopback-tcp",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        saba_math::parallel::default_threads(),
        fs_type(&scratch)
    );
    let (seed, seconds) = (args.seed, args.seconds);
    let mut out = Outcome::default();
    let defs = if args.trace {
        let mut tracer = span::Tracer::new();
        out.correct = true;
        match (svc::Mode::of(&args.workload), args.workload.as_str()) {
            (Some(mode), _) => svc::traced(mode, seed, seconds, &scratch, &mut tracer, &mut out),
            (None, "epoch_cold") => epoch::cold_traced(seed, seconds, &mut tracer, &mut out),
            (None, "epoch_churn") => epoch::churn_traced(seed, seconds, &mut tracer, &mut out),
            (None, "sim_corun") => simrun::traced(seed, &mut tracer, &mut out),
            (None, other) => unreachable!("workload {other} was validated"),
        }
        out.set("bench.spans", tracer.len() as f64);
        let dump = out_dir().join(format!("{}.spans.jsonl", args.workload));
        match tracer.dump(&dump) {
            Ok(()) => eprintln!("{} spans -> {}", tracer.len(), dump.display()),
            Err(e) => out.correct = report("span dump", Err(e.to_string())),
        }
        PER_LAYER
    } else {
        let mut e2e = match (svc::Mode::of(&args.workload), args.workload.as_str()) {
            (Some(mode), _) => svc::e2e(mode, seed, seconds, &scratch),
            (None, "epoch_cold") => epoch::cold_e2e(seed, seconds),
            (None, "epoch_churn") => epoch::churn_e2e(seed, seconds),
            (None, "sim_corun") => simrun::e2e(seed, seconds),
            (None, other) => unreachable!("workload {other} was validated"),
        };
        stats::sort(&mut e2e.lat_us);
        let (tail_q, tail_us) = stats::tail(&e2e.lat_us);
        let per_op: Vec<String> = e2e
            .slices
            .iter()
            .map(|&(cpu, ops)| format!("{:.1}", cpu * 1e6 / ops.max(1) as f64))
            .collect();
        eprintln!("cpu us/op by slice: {}", per_op.join(" "));
        eprintln!(
            "wall clock (not gated): {:.1} ops/s, p50 {:.1} us, p{:.0} {:.1} us over {} samples",
            e2e.wall_ops_per_s,
            stats::percentile(&e2e.lat_us, 0.5),
            100.0 * tail_q,
            tail_us,
            e2e.lat_us.len()
        );
        out.correct = e2e.correct;
        out.attempted = e2e.attempted;
        out.failed = e2e.failed;
        out.set("op_cpu_us", stats::median_slice(&e2e.slices) * 1e6);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("setup_s", e2e.setup_s);
        END_TO_END
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for d in defs {
        if let Some(v) = out.get(d.name) {
            eprintln!("  {:<36} {v:>16.4} {}", d.name, d.unit);
        }
    }
    out.correct &= out.attempted >= 1;
    println!("{}", out.to_json(defs).to_json());
    if out.correct {
        0
    } else {
        1
    }
}

/// Re-executes this binary once per workload, untraced then traced,
/// `reps` times over with consecutive seeds, and writes the result file.
fn all(cli: &Cli) -> Result<i32, String> {
    cli.known(&["seed", "seconds", "reps", "out"])?;
    let (seed, seconds) = (cli.seed()?, cli.seconds()?);
    let reps: u64 = cli.number("reps", 1)?;
    let out_path = cli
        .get("out")
        .map_or_else(|| out_dir().join("ledger.json"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut worst = 0;
    for rep in 0..reps {
        for (workload, _) in WORKLOADS {
            for trace in [0u8, 1] {
                let seed = seed.wrapping_add(rep);
                let output = std::process::Command::new(&exe)
                    .args(["run", "--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = stdout
                    .lines()
                    .last()
                    .and_then(|l| json::parse(l).ok())
                    .ok_or_else(|| format!("{workload} trace {trace} printed no result"))?;
                worst = worst.max(output.status.code().unwrap_or(1));
                runs.push(JsonValue::obj(vec![
                    ("workload", JsonValue::Str(workload.to_string())),
                    ("trace", JsonValue::Num(trace as f64)),
                    ("seed", JsonValue::Num(seed as f64)),
                    ("result", result),
                ]));
            }
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let doc = JsonValue::obj(vec![
        ("quick", JsonValue::Bool(cli.quick)),
        ("seconds", JsonValue::Num(seconds)),
        (
            "cpus",
            JsonValue::Num(saba_math::parallel::default_threads() as f64),
        ),
        ("wal_fs", JsonValue::Str(fs_type(&out_dir()))),
        ("transport", JsonValue::Str("loopback-tcp".into())),
        ("runs", JsonValue::Arr(runs)),
    ]);
    std::fs::write(&out_path, doc.to_json() + "\n").map_err(|e| e.to_string())?;
    eprintln!("wrote {}", out_path.display());
    Ok(worst)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let code = Cli::parse(rest).and_then(|cli| match command {
        "all" => all(&cli),
        "compare" => {
            cli.known(&["benchmark"])?;
            let [base, new] = cli.words.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let benchmark = cli.get("benchmark").unwrap_or("BENCHMARK.json");
            Ok(compare::run(base, new, benchmark))
        }
        _ => Ok(run(&run_args(&cli)?)),
    });
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        eprintln!(
            "usage: ledger [run] --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]"
        );
        eprintln!("       ledger all [--seed S] [--seconds N] [--reps R] [--quick] [--out FILE]");
        eprintln!("       ledger compare BASE.json NEW.json [--benchmark BENCHMARK.json]");
        2
    }));
}
