//! Parallel-vs-serial controller differential.
//!
//! The scale-out work parallelizes the independent per-port Eq. 2
//! solves of a reprogramming batch across worker threads. That is a
//! pure implementation detail: the emitted `SwitchUpdate` stream, the
//! accumulated switch state, the epoch scopes, and every stats counter
//! must be **bit-identical** — not merely tolerance-close — to the
//! single-threaded path, at any thread count. This suite drives the
//! same seeded churn script through each controller flavour at
//! several thread counts in lockstep and compares each epoch's output
//! with exact (`==`) equality; a single reordered floating-point
//! reduction anywhere in the parallel merge shows up as a failure
//! here.

use crate::incremental::{ChurnEvent, ChurnScript};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_sim::ids::{AppId, NodeId};

/// Thread counts exercised by the differential: the serial baseline,
/// the smallest parallel configuration, and an oversubscribed one
/// (more workers than ports on the small testbed switch).
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn diff_exact(
    flavour: &str,
    threads: usize,
    step: usize,
    serial: &[SwitchUpdate],
    parallel: &[SwitchUpdate],
) -> Result<(), String> {
    if serial != parallel {
        let mismatch = serial
            .iter()
            .zip(parallel)
            .position(|(a, b)| a != b)
            .map_or_else(
                || format!("lengths {} vs {}", serial.len(), parallel.len()),
                |i| format!("first divergence at update {i}"),
            );
        return Err(format!(
            "[{flavour}] step {step}: {threads}-thread updates diverge from serial ({mismatch})"
        ));
    }
    Ok(())
}

/// Drives the churn script through one controller flavour at every
/// thread count of [`THREAD_COUNTS`] in lockstep, requiring exact
/// equality of every epoch's updates, the epoch scopes, and the final
/// stats counters against the single-threaded baseline. Ends with a
/// forced full recompute, which exercises the parallel prewarm on the
/// widest dirty set.
fn lockstep<P: Policy>(
    flavour: &str,
    sc: &ChurnScript,
    servers: &[NodeId],
    fresh: impl Fn() -> Controller<P>,
) -> Result<(), String> {
    let mut ctls: Vec<Controller<P>> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mut c = fresh();
            c.set_solver_threads(t);
            c
        })
        .collect();
    for app in 0..sc.napps as u32 {
        let wl = ChurnScript::workload_name(app as usize);
        for c in &mut ctls {
            c.register(AppId(app), &wl)
                .map_err(|e| format!("{flavour} register {app}: {e}"))?;
        }
    }

    for (step, ev) in sc.events.iter().enumerate() {
        let mut out: Vec<Vec<SwitchUpdate>> = Vec::with_capacity(ctls.len());
        for c in &mut ctls {
            out.push(match *ev {
                ChurnEvent::Create { app, src, dst, tag } => c
                    .conn_create(AppId(app), servers[src], servers[dst], tag)
                    .map_err(|e| format!("{flavour} create step {step}: {e}"))?,
                ChurnEvent::Destroy { app, tag } => c
                    .conn_destroy(AppId(app), tag)
                    .map_err(|e| format!("{flavour} destroy step {step}: {e}"))?,
            });
        }
        for (k, &t) in THREAD_COUNTS.iter().enumerate().skip(1) {
            diff_exact(flavour, t, step, &out[0], &out[k])?;
            if ctls[k].last_epoch() != ctls[0].last_epoch() {
                return Err(format!(
                    "[{flavour}] step {step}: {t}-thread epoch scope {:?} vs serial {:?}",
                    ctls[k].last_epoch(),
                    ctls[0].last_epoch()
                ));
            }
        }
    }

    // Forced full recompute: the widest prewarm batch of the run.
    let full: Vec<Vec<SwitchUpdate>> = ctls.iter_mut().map(|c| c.recompute_all()).collect();
    let what = format!("{flavour} recompute");
    for (k, &t) in THREAD_COUNTS.iter().enumerate().skip(1) {
        diff_exact(&what, t, sc.events.len(), &full[0], &full[k])?;
        if ctls[k].stats() != ctls[0].stats() {
            return Err(format!(
                "[{flavour}] {t}-thread stats {:?} vs serial {:?}",
                ctls[k].stats(),
                ctls[0].stats()
            ));
        }
    }
    Ok(())
}

/// Runs the parallel-vs-serial lockstep over both controller flavours.
pub fn parallel_vs_serial(sc: &ChurnScript) -> Result<(), String> {
    let table = sc.table();
    let topo = sc.topology();
    let cfg = ControllerConfig::default();
    let servers = topo.servers();
    let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
    lockstep("central", sc, servers, || {
        CentralController::new(cfg.clone(), table.clone(), &topo)
    })?;
    lockstep("distributed", sc, servers, || {
        DistributedController::new(cfg.clone(), db.clone(), &topo, 2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_on_small_seeds() {
        for seed in 0..8 {
            parallel_vs_serial(&ChurnScript::generate(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
