//! Shared infrastructure for the experiment binaries in `src/bin/`.
//!
//! `repro` regenerates every table and figure of the paper's evaluation
//! from one table of experiments; `observe`, `resilience` and `service`
//! exercise the telemetry, fault and service tiers. Results land under
//! [`results_dir`]. Timing lives in the performance ledger (`ledger/`),
//! not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// The directory experiment CSVs are written to (`results/`, created on
/// demand next to the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env_or("SABA_RESULTS_DIR", "results"));
    fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

/// Reads `--flag value` style integer arguments.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == flag {
            return args[i + 1]
                .parse()
                .unwrap_or_else(|_| panic!("{flag} expects an integer, got {:?}", args[i + 1]));
        }
    }
    default
}

/// Writes a CSV file into [`results_dir`], returning its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("CSV file must be creatable");
    writeln!(f, "{header}").expect("CSV write");
    for r in rows {
        writeln!(f, "{r}").expect("CSV write");
    }
    path
}

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    // Width bookkeeping is in *characters*, not bytes (cells may hold
    // multi-byte glyphs).
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| {
                let pad = w.saturating_sub(c.chars().count());
                format!("{}{}", " ".repeat(pad), c)
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Profiles the full Table-1 catalog with degree-`degree` fits (the
/// §7.1 bandwidth points, light measurement noise; the paper's models
/// are degree 3).
pub fn catalog_table(degree: usize) -> SensitivityTable {
    Profiler::new(ProfilerConfig {
        degree,
        ..Default::default()
    })
    .profile_all(&saba_workload::catalog())
    .expect("catalog profiling succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_usize_default() {
        assert_eq!(arg_usize("--no-such-flag", 7), 7);
    }
}
