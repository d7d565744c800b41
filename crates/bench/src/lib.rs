//! Shared infrastructure for `repro` (`src/bin/repro.rs`), which
//! regenerates every table and figure of the paper's evaluation, the
//! fault ladder and the telemetry dump from one table of experiments.
//! Results land under [`results_dir`]. Timing lives in the performance
//! ledger (`ledger/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use std::fs;
use std::path::PathBuf;

/// The directory experiment results are written to (`results/`, or
/// `SABA_RESULTS_DIR` when set; created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("SABA_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
    fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
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
