//! Epoch latency under connection churn (the `BENCH_allocation.json`
//! "churn_epoch" rows).
//!
//! ```text
//! churn [--quick] [--conns N] [--reps R]
//! ```
//!
//! For each churn fraction (1 %, 10 %, 100 % of the live connection
//! set), measures:
//!
//! - **incremental** — a warmed controller handles the epoch's
//!   destroy/create events; dirty-port tracking, memoized Eq. 2
//!   solves, and queue-reprogramming diffs confine the work to ports
//!   whose application set changed.
//! - **from-scratch** — a cold controller over the post-churn live set
//!   runs one `recompute_all`, the periodic full-fabric recompute a
//!   non-incremental controller would need to restore the same state.
//!
//! Before timing, the two end states are cross-checked port for port
//! (forced recomputes of both controllers must agree exactly). Timings
//! are minima over `--reps` repetitions; controller clones happen
//! outside the timed region.

use saba_bench::churn::{apply_ops, ChurnBench};
use saba_bench::{arg_usize, print_table, quick_mode};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    let nconns = arg_usize("--conns", if quick { 400 } else { 4000 });
    let reps = arg_usize("--reps", if quick { 3 } else { 7 });
    let mut bench = ChurnBench::new(nconns, 1);
    println!(
        "churn epochs on the paper fabric: {} servers, {} apps, {} conns",
        bench.servers.len(),
        saba_bench::churn::NUM_APPS,
        bench.live.len()
    );

    let warm = bench.warm_controller();
    let mut rows = Vec::new();
    for &(label, fraction) in &[("1pct", 0.01), ("10pct", 0.10), ("100pct", 1.00)] {
        let (ops, post) = bench.plan(fraction, 7);

        // Cross-check: the incremental end state must equal the
        // from-scratch end state. Forced recomputes emit every occupied
        // port on both sides; diff them exactly.
        {
            let mut inc = warm.clone();
            apply_ops(&mut inc, &ops);
            let mut scratch = bench.cold_controller(&post);
            let a = inc.recompute_all();
            let b = scratch.recompute_all();
            assert_eq!(a.len(), b.len(), "{label}: occupied port sets diverge");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.link, y.link, "{label}: port order diverges");
                assert_eq!(
                    x.config.sl_to_queue, y.config.sl_to_queue,
                    "{label}: SL map diverges at link {}",
                    x.link
                );
                for (wx, wy) in x.config.weights.iter().zip(&y.config.weights) {
                    assert!(
                        (wx - wy).abs() <= 1e-9 + 1e-6 * wx.abs().max(wy.abs()),
                        "{label}: weights diverge at link {}: {wx} vs {wy}",
                        x.link
                    );
                }
            }
        }

        let mut inc_s = f64::INFINITY;
        let mut emitted = 0;
        for _ in 0..reps {
            let mut c = warm.clone();
            let t0 = Instant::now();
            emitted = black_box(apply_ops(&mut c, &ops));
            inc_s = inc_s.min(t0.elapsed().as_secs_f64());
        }

        let mut scratch_s = f64::INFINITY;
        for _ in 0..reps {
            let mut c = bench.cold_controller(&post);
            let t0 = Instant::now();
            let updates = black_box(c.recompute_all());
            scratch_s = scratch_s.min(t0.elapsed().as_secs_f64());
            black_box(updates.len());
        }

        println!(
            "  {label}: {} events, {emitted} updates emitted, incremental {inc_s:.6} s, \
             from-scratch {scratch_s:.6} s, speedup {:.2}x",
            ops.len(),
            scratch_s / inc_s
        );
        rows.push(vec![
            label.to_string(),
            format!("{}", ops.len()),
            format!("{emitted}"),
            format!("{inc_s:.6}"),
            format!("{scratch_s:.6}"),
            format!("{:.2}", scratch_s / inc_s),
        ]);
    }
    print_table(
        "epoch latency under churn (1,944-server fabric)",
        &[
            "churn",
            "events",
            "updates",
            "incremental_s",
            "scratch_s",
            "speedup",
        ],
        &rows,
    );
}
