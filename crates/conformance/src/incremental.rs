//! Incremental-vs-scratch controller differential.
//!
//! The controllers reprogram incrementally: dirty-port tracking limits
//! each epoch to ports whose application set changed, Eq. 2 solves are
//! memoized (on the distributed flavour, by PL set), and a diff
//! against the last programmed state suppresses no-op `SwitchUpdate`s.
//! None of that may be *observable*: after every single churn event,
//! the switch state accumulated from the incremental controller's
//! emitted updates must match what a from-scratch controller — same
//! registrations, the currently-live connections preloaded, one full
//! recompute — would program. This suite drives seeded churn scripts
//! through both flavours and diffs per-port queue weights (1e-12
//! rtol), SL-to-queue maps (exact), the PL map (exact), and the
//! programmed port *sets* after each event.

use crate::oracles::check_weight_budget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_core::fabric::PortQueueConfig;
use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_sim::ids::{AppId, NodeId};
use saba_sim::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-queue weight tolerance between the incremental state and the
/// from-scratch recompute, both flavours. Every port is solved exactly
/// from its member set alone — the central flavour's applications and
/// the distributed flavour's PLs alike — so incremental and
/// from-scratch states differ by nothing an epoch's history could
/// explain.
pub const INCREMENTAL_RTOL: f64 = 1e-12;

/// One connection-churn event of a [`ChurnScript`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// `conn_create(app, servers[src], servers[dst], tag)`.
    Create {
        /// Application id.
        app: u32,
        /// Source server index.
        src: usize,
        /// Destination server index.
        dst: usize,
        /// Connection tag.
        tag: u64,
    },
    /// `conn_destroy(app, tag)` of a previously created connection.
    Destroy {
        /// Application id (owner of `tag`).
        app: u32,
        /// Connection tag.
        tag: u64,
    },
}

/// A seeded churn script: applications registered up-front, then an
/// interleaved create/destroy sequence (creates ~60 %, destroys drawn
/// from the currently-live set, no deregistrations) on a single-switch
/// testbed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnScript {
    /// The generating seed.
    pub seed: u64,
    /// Number of applications.
    pub napps: usize,
    /// Per-application sensitivity steepness (model generator input).
    pub steepness: Vec<f64>,
    /// Servers on the testbed switch.
    pub servers: usize,
    /// The event sequence.
    pub events: Vec<ChurnEvent>,
}

impl ChurnScript {
    /// Generates the churn script for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ABA_10C8);
        let napps = rng.gen_range(2..=6usize);
        let steepness: Vec<f64> = (0..napps)
            .map(|i| 0.3 + i as f64 * 0.9 + rng.gen_range(0.0..0.3))
            .collect();
        let servers = rng.gen_range(4..=8usize);
        let nevents = rng.gen_range(10..=40usize);
        let mut events = Vec::with_capacity(nevents);
        let mut live: Vec<(u32, u64)> = Vec::new();
        let mut next_tag = 0u64;
        for _ in 0..nevents {
            if live.is_empty() || rng.gen_bool(0.6) {
                let app = rng.gen_range(0..napps as u32);
                let src = rng.gen_range(0..servers);
                let mut dst = rng.gen_range(0..servers);
                if dst == src {
                    dst = (dst + 1) % servers;
                }
                let tag = next_tag;
                next_tag += 1;
                live.push((app, tag));
                events.push(ChurnEvent::Create { app, src, dst, tag });
            } else {
                let (app, tag) = live.swap_remove(rng.gen_range(0..live.len()));
                events.push(ChurnEvent::Destroy { app, tag });
            }
        }
        Self {
            seed,
            napps,
            steepness,
            servers,
            events,
        }
    }

    /// The script's synthetic sensitivity table (one degree-2 model per
    /// application, the fig12 generator's shape).
    pub fn table(&self) -> SensitivityTable {
        let mut table = SensitivityTable::new();
        for (i, &steep) in self.steepness.iter().enumerate() {
            let samples: Vec<(f64, f64)> = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
                .iter()
                .map(|&b: &f64| (b, 1.0 + steep * (1.0 / b.max(0.1) - 1.0) / 9.0))
                .collect();
            table.insert(SensitivityModel::fit(&Self::workload_name(i), &samples, 2).expect("fit"));
        }
        table
    }

    /// The workload name of application `i`.
    pub fn workload_name(i: usize) -> String {
        format!("wl{i}")
    }

    /// The testbed topology.
    pub fn topology(&self) -> Topology {
        Topology::single_switch(self.servers, 100.0)
    }
}

/// Diffs an incrementally accumulated switch state against the update
/// set of a from-scratch recompute, at [`INCREMENTAL_RTOL`] on queue
/// weights. `flavour` and `step` only label the error message. This is
/// the shared oracle of the churn differential below and of the
/// service tier's failover drills (a standby's post-takeover state
/// must match a from-scratch solve of the durable log).
pub fn diff_switch_states(
    flavour: &str,
    step: usize,
    programmed: &BTreeMap<u32, PortQueueConfig>,
    scratch: &[SwitchUpdate],
) -> Result<(), String> {
    let rtol = INCREMENTAL_RTOL;
    let scratch_map: BTreeMap<u32, &PortQueueConfig> =
        scratch.iter().map(|u| (u.link.0, &u.config)).collect();
    for (&link, cfg) in &scratch_map {
        let Some(inc) = programmed.get(&link) else {
            return Err(format!(
                "[{flavour}] step {step}: link {link} programmed from scratch but never \
                 touched incrementally"
            ));
        };
        if inc.sl_to_queue != cfg.sl_to_queue {
            return Err(format!(
                "[{flavour}] step {step}: link {link} SL map diverges: {:?} vs scratch {:?}",
                inc.sl_to_queue, cfg.sl_to_queue
            ));
        }
        if inc.weights.len() != cfg.weights.len() {
            return Err(format!(
                "[{flavour}] step {step}: link {link} queue count diverges: {} vs scratch {}",
                inc.weights.len(),
                cfg.weights.len()
            ));
        }
        for (q, (&wi, &ws)) in inc.weights.iter().zip(&cfg.weights).enumerate() {
            if (wi - ws).abs() > rtol * (1e-3 + wi.abs().max(ws.abs())) {
                return Err(format!(
                    "[{flavour}] step {step}: link {link} queue {q} weight {wi} vs \
                     scratch {ws} (rtol {rtol})"
                ));
            }
        }
    }
    // Ports the scratch recompute skips are ports without Saba traffic:
    // the incremental side must have left them at (or reverted them to)
    // the factory default. The accumulated map keeps reverts rather
    // than dropping them — a config equal to the default is ambiguous
    // between "revert" and "programmed for a single full-share
    // application", and only the scratch side knows which.
    let default = PortQueueConfig::default();
    for (&link, cfg) in programmed {
        if !scratch_map.contains_key(&link) && *cfg != default {
            return Err(format!(
                "[{flavour}] step {step}: link {link} still programmed incrementally but a \
                 from-scratch controller leaves it at the default"
            ));
        }
    }
    Ok(())
}

/// Applies one epoch's emitted updates to the accumulated switch state
/// (the last configuration each port received, reverts included).
pub(crate) fn apply_updates(
    programmed: &mut BTreeMap<u32, PortQueueConfig>,
    updates: &[SwitchUpdate],
) {
    for u in updates {
        programmed.insert(u.link.0, u.config.clone());
    }
}

/// Drives the churn script through one controller flavour, replaying
/// each prefix against a from-scratch controller after every event:
/// same registration order (hence, on the central flavour's online
/// clusterer, the same PL assignments — the distributed PL map lives in
/// the shared offline database), the live connections preloaded, one
/// recompute.
fn churn_vs_scratch<P: Policy>(
    flavour: &str,
    sc: &ChurnScript,
    servers: &[NodeId],
    fresh: impl Fn() -> Controller<P>,
) -> Result<(), String> {
    let registered = |what: &str| -> Result<Controller<P>, String> {
        let mut c = fresh();
        for app in 0..sc.napps as u32 {
            c.register(AppId(app), &ChurnScript::workload_name(app as usize))
                .map_err(|e| format!("{flavour} {what} register {app}: {e}"))?;
        }
        Ok(c)
    };
    let c_saba = ControllerConfig::default().c_saba;
    let mut inc = registered("incremental")?;
    // Switch state accumulated from the incremental updates alone.
    let mut programmed: BTreeMap<u32, PortQueueConfig> = BTreeMap::new();
    let mut live: Vec<(u32, usize, usize, u64)> = Vec::new();

    for (step, ev) in sc.events.iter().enumerate() {
        let updates = match *ev {
            ChurnEvent::Create { app, src, dst, tag } => {
                live.push((app, src, dst, tag));
                inc.conn_create(AppId(app), servers[src], servers[dst], tag)
                    .map_err(|e| format!("{flavour} create step {step}: {e}"))?
            }
            ChurnEvent::Destroy { app, tag } => {
                live.retain(|&(.., t)| t != tag);
                inc.conn_destroy(AppId(app), tag)
                    .map_err(|e| format!("{flavour} destroy step {step}: {e}"))?
            }
        };
        check_weight_budget(&updates, c_saba)?;
        apply_updates(&mut programmed, &updates);

        let mut scratch = registered("scratch")?;
        for &(app, src, dst, tag) in &live {
            scratch.preload_connection(AppId(app), servers[src], servers[dst], tag);
        }
        let solved = scratch.recompute_all();
        check_weight_budget(&solved, c_saba)?;
        for app in (0..sc.napps as u32).map(AppId) {
            if inc.sl_of(app) != scratch.sl_of(app) {
                return Err(format!(
                    "[{flavour}] step {step}: app {app} PL diverges: {:?} incremental vs {:?} scratch",
                    inc.sl_of(app),
                    scratch.sl_of(app)
                ));
            }
        }
        diff_switch_states(flavour, step, &programmed, &solved)?;
    }
    Ok(())
}

/// Runs the incremental-vs-scratch differential over both controller
/// flavours at [`INCREMENTAL_RTOL`].
pub fn incremental_vs_scratch(sc: &ChurnScript) -> Result<(), String> {
    let table = sc.table();
    let topo = sc.topology();
    let cfg = ControllerConfig::default();
    let servers = topo.servers();
    let db = MappingDb::build(&table, cfg.num_pls, cfg.seed);
    churn_vs_scratch("central", sc, servers, || {
        CentralController::new(cfg.clone(), table.clone(), &topo)
    })?;
    churn_vs_scratch("distributed", sc, servers, || {
        DistributedController::new(cfg.clone(), db.clone(), &topo, 2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_scripts_are_deterministic() {
        let a = ChurnScript::generate(11);
        let b = ChurnScript::generate(11);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn scripts_only_destroy_live_connections() {
        for seed in 0..50 {
            let sc = ChurnScript::generate(seed);
            let mut live = Vec::new();
            for ev in &sc.events {
                match *ev {
                    ChurnEvent::Create { tag, .. } => live.push(tag),
                    ChurnEvent::Destroy { tag, .. } => {
                        let i = live
                            .iter()
                            .position(|&t| t == tag)
                            .unwrap_or_else(|| panic!("seed {seed}: destroy of dead tag {tag}"));
                        live.swap_remove(i);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_scratch_on_small_seeds() {
        for seed in 0..8 {
            incremental_vs_scratch(&ChurnScript::generate(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
