//! The centralized policy (§5, §5.4): global state, exact models.
//!
//! One domain sees every application: Eq. 2 is solved over the exact
//! per-application sensitivity models of the applications crossing a
//! port, the application → PL mapping is clustered *online* on every
//! register / deregister, and the PL → queue hierarchy is rebuilt
//! whenever the published centroids move. The epoch machinery itself
//! lives in [`super::epoch`].
//!
//! Every port, however wide, is *solved, not remembered*: its answer is
//! a closed form over the members' surrogates (`saba_math::solve_dual`,
//! expected O(n log n); ≈ 0.4 µs for the two or three applications
//! most ports carry), which is less than a memo keyed by the member
//! set costs to ask — on the paper fabric's cold epoch such a memo's
//! hits were 86 % single-application ports, which have no Eq. 2
//! problem at all (DESIGN.md §5.4). So there is nothing to purge when
//! an application leaves or is re-profiled: a member names its
//! workload's surrogate by slot, and a refit rewrites the slot.

use crate::controller::epoch::{Controller, Policy};
use crate::controller::plmap::PlAssigner;
use crate::controller::queuemap::QueueMapper;
use crate::controller::weights::{port_weights_from_surrogates, ModelSurrogate};
use crate::controller::{ControllerConfig, ControllerError};
use crate::sensitivity::{SensitivityModel, SensitivityTable};
use saba_math::SolveScratch;
use saba_sim::ids::{AppId, LinkId};
use saba_sim::topology::Topology;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The centralized Saba controller.
pub type CentralController = Controller<Central>;

/// An application as a port's membership records it. Ordered by id;
/// its PL and the slot of its workload's surrogate ride along — both
/// are sticky for a registration's life (§6; a refit rewrites the slot,
/// not the member) — which spares every port visit a registry lookup
/// per member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppMember {
    app: AppId,
    pl: u8,
    slot: u16,
}

/// The centralized flavour's [`Policy`].
#[derive(Debug, Clone)]
pub struct Central {
    table: SensitivityTable,
    apps: BTreeMap<AppId, AppMember>,
    /// Solver inputs, one slot per workload that ever registered an
    /// application: written at that first registration, rewritten by a
    /// refit, read in place by every exact solve.
    surrogates: Vec<ModelSurrogate>,
    slot_of_workload: BTreeMap<String, u16>,
    assigner: PlAssigner,
    mapper: Option<QueueMapper>,
    /// Assigner generation the queue mapper was last built against.
    mapper_generation: u64,
    /// Set when a registration changed the published centroid set while
    /// ports were already programmed: `register` cannot emit updates, so
    /// the next reprogramming-capable event sweeps every active port.
    sweep_pending: bool,
}

impl Controller<Central> {
    /// Creates a controller for `topo` with the profiler-provided
    /// sensitivity `table`.
    pub fn new(cfg: ControllerConfig, table: SensitivityTable, topo: &Topology) -> Self {
        cfg.validate();
        let dim = table.max_coeff_len().max(2);
        let policy = Central {
            assigner: PlAssigner::new(cfg.num_pls, dim),
            table,
            apps: BTreeMap::new(),
            surrogates: Vec::new(),
            slot_of_workload: BTreeMap::new(),
            mapper: None,
            mapper_generation: 0,
            sweep_pending: false,
        };
        Self::with_policy(cfg, topo, policy)
    }

    /// A cold incarnation of this controller, as a process restart
    /// leaves it: same configuration, profile table and fabric; no
    /// registrations, connections or counters.
    pub fn restarted(&self) -> Self {
        Self::new(
            self.config().clone(),
            self.policy.table.clone(),
            self.topology(),
        )
    }

    /// Number of registered applications.
    pub fn num_apps(&self) -> usize {
        self.policy.apps.len()
    }

    /// The applications currently crossing `link`.
    pub fn apps_at(&self, link: LinkId) -> Vec<AppId> {
        self.members.members(link).map(|m| m.app).collect()
    }
}

impl Central {
    /// If the published centroid set moved since the mapper was built,
    /// rebuild the mapper and flag the deferred full sweep (register
    /// cannot emit switch updates, so already-programmed ports stay on
    /// the old mapping until the next reprogramming-capable event).
    fn refresh_mapper_if_stale(&mut self) {
        let generation = self.assigner.generation();
        if generation == self.mapper_generation && self.mapper.is_some() {
            return;
        }
        self.mapper = QueueMapper::build(&self.assigner.centroids());
        self.mapper_generation = generation;
        self.sweep_pending = true;
    }
}

impl Policy for Central {
    type Member = AppMember;

    /// Looks up the profiled sensitivity model, interns its surrogate on
    /// the workload's first registration and assigns a PL online. A
    /// model with no finite surrogate is refused like a missing one, and
    /// leaves no trace.
    fn register(
        &mut self,
        cfg: &ControllerConfig,
        app: AppId,
        workload: &str,
    ) -> Result<usize, ControllerError> {
        let unknown = || ControllerError::UnknownWorkload(workload.to_string());
        let model = self.table.get(workload).ok_or_else(unknown)?;
        let slot = match self.slot_of_workload.entry(workload.to_string()) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let surrogate = ModelSurrogate::of(model, cfg.c_saba).map_err(|_| unknown())?;
                self.surrogates.push(surrogate);
                let index = u16::try_from(self.surrogates.len() - 1);
                *slot.insert(index.expect("a controller serves < 65,536 workloads"))
            }
        };
        let pl = self.assigner.assign(app, model.coefficients());
        let sl = u8::try_from(pl).expect("a PL is an SL");
        self.apps.insert(app, AppMember { app, pl: sl, slot });
        // The queue mapper depends on the published centroids: rebuild
        // it only when the assigner actually published a change — a
        // duplicate of an existing workload joining its slot costs
        // nothing.
        self.refresh_mapper_if_stale();
        Ok(pl)
    }

    /// Nothing remembers an application beyond its registration: the id
    /// may be rebound to another workload, whose slot it then names.
    fn unregister(&mut self, app: AppId) {
        self.apps.remove(&app);
        self.assigner.remove(app);
        self.refresh_mapper_if_stale();
    }

    /// Swaps the table entry, rewrites the workload's one surrogate
    /// slot — every registered application of the workload reads it
    /// from there — and updates their clustering coefficients; only the
    /// ports those applications cross are revisited (a
    /// published-centroid move widens the sweep like any other
    /// mapper-staleness event). A model identical to the current table
    /// entry is a structural no-op, and so is one with no finite
    /// surrogate; with no registered application of the workload only
    /// the table (and its slot, if one exists) changes.
    fn update_model(&mut self, cfg: &ControllerConfig, model: &SensitivityModel) -> Vec<AppMember> {
        if self.table.get(&model.workload) == Some(model) {
            return Vec::new();
        }
        let Ok(surrogate) = ModelSurrogate::of(model, cfg.c_saba) else {
            return Vec::new();
        };
        self.table.insert(model.clone());
        let Some(&slot) = self.slot_of_workload.get(&model.workload) else {
            return Vec::new();
        };
        self.surrogates[usize::from(slot)] = surrogate;
        let affected: Vec<AppMember> = self
            .apps
            .values()
            .filter(|m| m.slot == slot)
            .copied()
            .collect();
        for m in &affected {
            self.assigner
                .update_coeffs(m.app, model.coefficients())
                .expect("registered apps have PLs");
        }
        self.refresh_mapper_if_stale();
        affected
    }

    fn member(&self, app: AppId) -> Option<AppMember> {
        self.apps.get(&app).copied()
    }

    fn pl(&self, member: AppMember) -> usize {
        usize::from(member.pl)
    }

    fn mapper(&self) -> &QueueMapper {
        self.mapper.as_ref().expect("apps exist, so mapper exists")
    }

    fn begin_epoch(&mut self, force: bool) -> bool {
        std::mem::take(&mut self.sweep_pending) && !force
    }

    /// The exact solve of every port, whatever its width, straight into
    /// the visit's weight buffer: a pure function of the members'
    /// surrogates, each one indexed load away. Nothing is memoized.
    /// A lone application has nobody to share with — its answer is
    /// `[C_saba]` and no Eq. 2 problem was solved.
    fn weights_into(
        &mut self,
        cfg: &ControllerConfig,
        apps: &[AppMember],
        _pls: &[usize],
        _set: u16,
        scratch: &mut SolveScratch,
        weights: &mut Vec<f64>,
    ) -> bool {
        port_weights_from_surrogates(
            apps.iter().map(|m| &self.surrogates[usize::from(m.slot)]),
            cfg.c_saba,
            cfg.min_weight,
            cfg.protect_fraction,
            scratch,
            weights,
        )
        .expect("non-empty feasible weight problem");
        apps.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::weights::port_weights_protected;
    use crate::controller::SwitchUpdate;
    use crate::fabric::PortQueueConfig;
    use crate::profiler::{Profiler, ProfilerConfig};
    use saba_sim::ids::{NodeId, ServiceLevel};
    use saba_workload::catalog;

    fn table() -> SensitivityTable {
        let profiler = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        });
        let specs: Vec<_> = catalog()
            .into_iter()
            .filter(|w| ["LR", "PR", "Sort", "SQL"].contains(&w.name.as_str()))
            .collect();
        profiler.profile_all(&specs).unwrap()
    }

    fn controller() -> (CentralController, Topology) {
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let c = CentralController::new(ControllerConfig::default(), table(), &topo);
        (c, topo)
    }

    #[test]
    fn register_returns_distinct_pls_for_distinct_workloads() {
        let (mut c, _) = controller();
        let sl_lr = c.register(AppId(0), "LR").unwrap();
        let sl_pr = c.register(AppId(1), "PR").unwrap();
        assert_ne!(sl_lr, sl_pr);
        assert_eq!(c.num_apps(), 2);
    }

    #[test]
    fn unknown_workload_rejected() {
        let (mut c, _) = controller();
        assert_eq!(
            c.register(AppId(0), "NOPE").unwrap_err(),
            ControllerError::UnknownWorkload("NOPE".into())
        );
    }

    #[test]
    fn double_register_rejected() {
        let (mut c, _) = controller();
        c.register(AppId(0), "LR").unwrap();
        assert_eq!(
            c.register(AppId(0), "LR").unwrap_err(),
            ControllerError::AlreadyRegistered(AppId(0))
        );
    }

    #[test]
    fn conn_create_programs_path_ports() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        let updates = c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        // Single-switch path: NIC egress + switch downlink = 2 ports.
        assert_eq!(updates.len(), 2);
        assert_eq!(c.num_conns(), 1);
    }

    #[test]
    fn sensitive_app_gets_heavier_queue() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "PR").unwrap();
        let s = topo.servers();
        // Both apps send over the same path.
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let updates = c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        let cfg = &updates[0].config;
        let q_lr = cfg.queue_of(c.sl_of(AppId(0)).unwrap());
        let q_pr = cfg.queue_of(c.sl_of(AppId(1)).unwrap());
        assert_ne!(q_lr, q_pr);
        assert!(
            cfg.weights[q_lr] > cfg.weights[q_pr] * 1.5,
            "LR queue should dominate: {:?}",
            cfg.weights
        );
        // The §2.2 skew: LR near 75 %, PR near 25 %.
        let total: f64 = cfg.weights.iter().sum();
        assert!((0.60..=0.95).contains(&(cfg.weights[q_lr] / total)));
    }

    #[test]
    fn conn_destroy_reverts_when_last_conn_leaves() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "PR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        let updates = c.conn_destroy(AppId(1), 2).unwrap();
        assert!(!updates.is_empty());
        // With only LR left, its queue takes all of C_saba.
        let cfg = &updates[0].config;
        let q_lr = cfg.queue_of(c.sl_of(AppId(0)).unwrap());
        let total: f64 = cfg.weights.iter().sum();
        assert!(cfg.weights[q_lr] / total > 0.99, "{:?}", cfg.weights);
    }

    #[test]
    fn destroy_unknown_connection_fails() {
        let (mut c, _) = controller();
        c.register(AppId(0), "LR").unwrap();
        assert_eq!(
            c.conn_destroy(AppId(0), 99).unwrap_err(),
            ControllerError::UnknownConnection(99)
        );
    }

    #[test]
    fn deregister_cleans_up_everything() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let updates = c.deregister(AppId(0)).unwrap();
        assert!(!updates.is_empty());
        assert_eq!(c.num_apps(), 0);
        assert_eq!(c.num_conns(), 0);
        assert!(c.apps_at(topo.nic_link(s[0])).is_empty());
    }

    #[test]
    fn c_saba_reserves_capacity_for_non_compliant_traffic() {
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let cfg = ControllerConfig {
            c_saba: 0.8,
            ..Default::default()
        };
        let mut c = CentralController::new(cfg, table(), &topo);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        let updates = c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let pcfg = &updates[0].config;
        // Last queue is the reserved one with weight 0.2.
        let reserved = pcfg.weights.len() - 1;
        assert!(
            (pcfg.weights[reserved] - 0.2).abs() < 1e-9,
            "{:?}",
            pcfg.weights
        );
        // An unused SL (e.g. 15) routes to the reserved queue.
        assert_eq!(pcfg.queue_of(ServiceLevel(15)), reserved);
    }

    /// The whole catalog through one port of a 4-queue switch: the last
    /// configuration that port was given.
    fn catalog_through_one_port(c_saba: f64) -> PortQueueConfig {
        let profiler = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        });
        let full_table = profiler.profile_all(&catalog()).unwrap();
        let topo = Topology::single_switch(12, saba_sim::LINK_56G_BPS);
        let cfg = ControllerConfig {
            queues_per_port: 4,
            c_saba,
            ..Default::default()
        };
        let mut c = CentralController::new(cfg, full_table, &topo);
        let names: Vec<String> = catalog().iter().map(|w| w.name.clone()).collect();
        let s = topo.servers().to_vec();
        for (i, name) in names.iter().enumerate() {
            c.register(AppId(i as u32), name).unwrap();
        }
        let mut last = Vec::new();
        for (i, _) in names.iter().enumerate() {
            last = c
                .conn_create(AppId(i as u32), s[0], s[1], i as u64)
                .unwrap();
        }
        last.swap_remove(0).config
    }

    #[test]
    fn queue_budget_is_respected_with_many_workloads() {
        let pcfg = catalog_through_one_port(1.0);
        assert!(pcfg.num_queues() <= 4, "{} queues", pcfg.num_queues());
        let total: f64 = pcfg.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum {total}");
    }

    /// Regression: the reserved queue used to be pushed *after* the
    /// present PLs had been mapped onto all `queues_per_port` queues, so
    /// this port was told to run five queues on a 4-queue switch.
    #[test]
    fn queue_budget_is_respected_with_a_reserved_share() {
        let pcfg = catalog_through_one_port(0.8);
        assert_eq!(pcfg.num_queues(), 4, "{:?}", pcfg.sl_to_queue);
        assert!((pcfg.weights[3] - 0.2).abs() < 1e-9, "{:?}", pcfg.weights);
        let total: f64 = pcfg.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum {total}");
    }

    #[test]
    #[should_panic(expected = "a reserved share needs a queue beside Saba's")]
    fn a_reserved_share_on_a_one_queue_port_is_rejected() {
        let topo = Topology::single_switch(2, saba_sim::LINK_56G_BPS);
        let cfg = ControllerConfig {
            queues_per_port: 1,
            c_saba: 0.8,
            ..Default::default()
        };
        let _ = CentralController::new(cfg, table(), &topo);
    }

    #[test]
    fn recompute_all_covers_active_ports() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let updates = c.recompute_all();
        // Only ports with Saba traffic are recomputed: the two on the
        // connection's path.
        assert_eq!(updates.len(), 2);
    }

    #[test]
    fn update_model_reprograms_only_affected_ports() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "PR").unwrap();
        let s = topo.servers();
        // LR and PR contend on s0→s1; PR alone runs on s2→s3.
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        c.conn_create(AppId(1), s[2], s[3], 3).unwrap();
        let before: Vec<f64> = c.recompute_all()[0].config.weights.clone();

        // A much flatter re-profiled LR: its weight claim should drop.
        let flat: Vec<(f64, f64)> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + 0.1 * (1.0 - b)))
            .collect();
        let refit = SensitivityModel::fit("LR", &flat, 2).unwrap();
        let updates = c.update_model(&refit);
        // Only the two ports on LR's path are touched — PR's private
        // path keeps its programming.
        assert_eq!(updates.len(), 2, "{updates:?}");
        let pl_lr = c.sl_of(AppId(0)).unwrap();
        let cfg = &updates[0].config;
        let total: f64 = cfg.weights.iter().sum();
        let share = cfg.weights[cfg.queue_of(pl_lr)] / total;
        let before_share = before[cfg.queue_of(pl_lr)] / before.iter().sum::<f64>();
        assert!(
            share < before_share - 0.1,
            "flattened LR should cede bandwidth: {before_share} -> {share}"
        );
        // The PL itself is sticky (§6): packets already carry the SL.
        assert_eq!(c.sl_of(AppId(0)).unwrap(), pl_lr);
    }

    #[test]
    fn update_model_without_registered_apps_touches_nothing() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let refit = SensitivityModel::fit(
            "Sort",
            &[(0.25, 2.0), (0.5, 1.5), (0.75, 1.2), (1.0, 1.0)],
            2,
        )
        .unwrap();
        let stats_before = c.stats();
        assert!(c.update_model(&refit).is_empty());
        assert_eq!(c.stats(), stats_before, "no epoch ran");
        // A later registration sees the refreshed table entry.
        c.register(AppId(1), "Sort").unwrap();
    }

    #[test]
    fn update_model_with_identical_model_emits_no_updates() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let same = table().get("LR").unwrap().clone();
        let updates = c.update_model(&same);
        assert!(
            updates.is_empty(),
            "identical refit must diff away: {updates:?}"
        );
    }

    #[test]
    fn churned_state_equals_a_fresh_controller_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        // Eq. 2 over a port's surrogates is a pure function of its
        // member set, so a controller that churned its way to a live set
        // programs exactly what one built from that set would — on
        // ports of a few applications and on ports of many alike: half
        // the connections funnel through one server pair.
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let names = ["LR", "PR", "Sort", "SQL"];
        let mut widest = 0;
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let napps = rng.gen_range(6..=80u32);
            let fresh = || {
                let mut c = CentralController::new(ControllerConfig::default(), table(), &topo);
                for i in 0..napps {
                    c.register(AppId(i), names[i as usize % names.len()])
                        .unwrap();
                }
                c
            };
            let mut churned = fresh();
            let mut live: Vec<(u32, NodeId, NodeId, u64)> = Vec::new();
            for tag in 0..400u64 {
                if live.is_empty() || rng.gen_bool(0.7) {
                    let app = rng.gen_range(0..napps);
                    let (src, dst) = if rng.gen_bool(0.5) {
                        (0, 1)
                    } else {
                        let src = rng.gen_range(0..s.len());
                        (src, (src + rng.gen_range(1..s.len())) % s.len())
                    };
                    churned
                        .conn_create(AppId(app), s[src], s[dst], tag)
                        .unwrap();
                    live.push((app, s[src], s[dst], tag));
                } else {
                    let (app, .., tag) = live.swap_remove(rng.gen_range(0..live.len()));
                    churned.conn_destroy(AppId(app), tag).unwrap();
                }
            }
            assert!(churned.stats().eq2_solves > 50, "the churn must solve");
            let mut scratch = fresh();
            for &(app, src, dst, tag) in &live {
                scratch.preload_connection(AppId(app), src, dst, tag);
            }
            let updates = churned.recompute_all();
            assert_eq!(updates, scratch.recompute_all(), "seed {seed}");
            let width = updates.iter().map(|u| churned.apps_at(u.link).len());
            widest = widest.max(width.max().expect("occupied ports"));
        }
        assert!(widest > 32, "some seed must reach a wide port: {widest}");
    }

    #[test]
    fn a_wide_port_programs_the_per_application_solution() {
        // 120 applications of the whole catalog on one server pair: both
        // ports of the path carry every one of them. Each queue weighs
        // the sum, in member order, of what `port_weights_protected`
        // gives its members over their own table models.
        let profiler = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        });
        let full_table = profiler.profile_all(&catalog()).unwrap();
        let names: Vec<String> = catalog().iter().map(|w| w.name.clone()).collect();
        let topo = Topology::single_switch(2, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let cfg = ControllerConfig::default();
        let mut c = CentralController::new(cfg.clone(), full_table.clone(), &topo);
        let workload = |app: AppId| &names[app.0 as usize % names.len()];
        for app in (0..120).map(AppId) {
            c.register(app, workload(app)).unwrap();
            c.preload_connection(app, s[0], s[1], u64::from(app.0));
        }
        let updates = c.recompute_all();
        assert_eq!(updates.len(), 2);
        for u in &updates {
            let apps = c.apps_at(u.link);
            assert_eq!(apps.len(), 120);
            let models: Vec<&SensitivityModel> = apps
                .iter()
                .map(|&app| full_table.get(workload(app)).unwrap())
                .collect();
            let w =
                port_weights_protected(&models, cfg.c_saba, cfg.min_weight, cfg.protect_fraction)
                    .unwrap();
            let mut want = vec![0.0; u.config.num_queues()];
            for (&app, &wi) in apps.iter().zip(&w) {
                want[u.config.queue_of(c.sl_of(app).unwrap())] += wi;
            }
            let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&u.config.weights), bits(&want), "link {}", u.link.0);
        }
    }

    /// A table entry whose predictions are finite but of order 1e308:
    /// no quadratic surrogate of it has finite coefficients.
    fn hostile(workload: &str) -> SensitivityModel {
        let lr = table().get("LR").unwrap().clone();
        SensitivityModel {
            workload: workload.into(),
            poly: saba_math::Polynomial::new(vec![1e308, -1e308, 1e308]),
            ..lr
        }
    }

    /// Such a model is refused at `register` with an existing wire
    /// error, never reaches a port solve (which used to panic on the
    /// first contended `conn_create`), and leaves the other
    /// applications' ports as a controller without it programs them.
    /// A refit to it changes nothing.
    #[test]
    fn a_model_without_a_finite_surrogate_is_refused_at_register() {
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let mut with = table();
        with.insert(hostile("Hostile"));
        let mut c = CentralController::new(ControllerConfig::default(), with, &topo);
        let mut plain = CentralController::new(ControllerConfig::default(), table(), &topo);
        for ctl in [&mut c, &mut plain] {
            ctl.register(AppId(0), "LR").unwrap();
        }
        assert_eq!(
            c.register(AppId(1), "Hostile").unwrap_err(),
            ControllerError::UnknownWorkload("Hostile".into())
        );
        assert_eq!(c.num_apps(), 1);
        assert!(c.policy.surrogates.len() == 1 && c.policy.slot_of_workload.len() == 1);
        for ctl in [&mut c, &mut plain] {
            ctl.register(AppId(1), "PR").unwrap();
        }
        for (tag, app) in [(1, 0), (2, 1)] {
            assert_eq!(
                c.conn_create(AppId(app), s[0], s[1], tag).unwrap(),
                plain.conn_create(AppId(app), s[0], s[1], tag).unwrap()
            );
        }
        assert!(c.update_model(&hostile("LR")).is_empty());
        assert_eq!(c.policy.table.get("LR"), table().get("LR"));
        assert_eq!(c.recompute_all(), plain.recompute_all());
    }

    #[test]
    fn update_model_rewrites_one_slot() {
        // A = LR (applications 0 and 1), B = PR (application 2). Each
        // path is two ports: (s0, s1) carries A₀ + B, (s2, s3) carries
        // A₁ + B, (s4, s5) carries B alone.
        let topo = Topology::single_switch(6, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let flat: Vec<(f64, f64)> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + 0.1 * (1.0 - b)))
            .collect();
        let refit = SensitivityModel::fit("LR", &flat, 2).unwrap();
        let mut refit_table = table();
        refit_table.insert(refit.clone());
        let conns = [(0, 0, 1), (2, 0, 1), (1, 2, 3), (2, 2, 3), (2, 4, 5)];
        let build = |table: SensitivityTable, workloads: &[(u32, &str)]| {
            let mut c = CentralController::new(ControllerConfig::default(), table, &topo);
            for &(app, workload) in workloads {
                c.register(AppId(app), workload).unwrap();
            }
            for (tag, &(app, src, dst)) in conns.iter().enumerate() {
                c.preload_connection(AppId(app), s[src], s[dst], tag as u64);
            }
            c
        };
        let workloads = [(0, "LR"), (1, "LR"), (2, "PR")];
        let mut c = build(table(), &workloads);
        c.recompute_all();
        assert_eq!(c.policy.surrogates.len(), 2, "one slot per workload");

        // The refit reprograms the four ports an A application crosses
        // with what a controller born with the new table programs. (It
        // moved A's published centroid, so the deferred sweep visits
        // the two B-only ports too — and diffs them away.)
        let before = c.stats();
        let mut refitted = c.update_model(&refit);
        assert_eq!(refitted.len(), 4, "B-only ports keep their programming");
        let after = c.stats();
        assert_eq!(after.ports_dirty - before.ports_dirty, 6);
        assert_eq!(after.queue_updates_diffed - before.queue_updates_diffed, 2);
        assert_eq!(c.policy.surrogates.len(), 2, "the slot was rewritten");
        let mut fresh = build(refit_table.clone(), &workloads);
        let mut want = fresh.recompute_all();
        want.retain(|u| fresh.apps_at(u.link) != [AppId(2)]);
        refitted.sort_by_key(|u| u.link.0);
        assert_eq!(refitted, want);

        // A third A application registers into the rewritten slot.
        for ctl in [&mut c, &mut fresh] {
            ctl.register(AppId(3), "LR").unwrap();
        }
        assert_eq!(c.policy.surrogates.len(), 2);
        assert_eq!(
            c.conn_create(AppId(3), s[4], s[5], 10).unwrap(),
            fresh.conn_create(AppId(3), s[4], s[5], 10).unwrap()
        );

        // Id 1 leaves and comes back bound to another workload: its
        // ports are solved with that workload's slot, exactly as on a
        // controller that only ever knew the id by its second name.
        // (Online clustering numbers the PLs by arrival, so the two are
        // compared by what each application's queue weighs, bit for bit.)
        c.deregister(AppId(1)).unwrap();
        c.register(AppId(1), "Sort").unwrap();
        c.conn_create(AppId(1), s[2], s[3], 11).unwrap();
        let reborn = [(0, "LR"), (2, "PR"), (3, "LR"), (1, "Sort")];
        let mut never_lr = build(refit_table, &reborn);
        never_lr.preload_connection(AppId(3), s[4], s[5], 10);
        let queue_weights = |ctl: &mut CentralController| -> Vec<(LinkId, AppId, u64)> {
            let updates = ctl.recompute_all();
            let per_app = |u: &SwitchUpdate| {
                let weight = |app| u.config.weights[u.config.queue_of(ctl.sl_of(app).unwrap())];
                let apps = ctl.apps_at(u.link).into_iter();
                apps.map(|app| (u.link, app, weight(app).to_bits()))
                    .collect::<Vec<_>>()
            };
            updates.iter().flat_map(per_app).collect()
        };
        assert_eq!(queue_weights(&mut c), queue_weights(&mut never_lr));
    }
}
