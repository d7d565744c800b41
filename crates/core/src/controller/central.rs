//! The centralized policy (§5, §5.4): global state, exact models.
//!
//! One domain sees every application: Eq. 2 is solved over the exact
//! per-application sensitivity models of the applications crossing a
//! port, the application → PL mapping is clustered *online* on every
//! register / deregister, and the PL → queue hierarchy is rebuilt
//! whenever the published centroids move. The epoch machinery itself
//! lives in [`super::epoch`].
//!
//! A port of at most 32 applications (`EXACT_MAX_APPS`) is *solved, not
//! remembered*: its answer is a closed form over the members'
//! surrogates (`saba_math::solve_dual`, ≈ 0.7 µs), which is less than a
//! memo keyed by the member set costs to ask — on the paper fabric's
//! cold epoch such a memo's hits were 86 % single-application ports,
//! which have no Eq. 2 problem at all, and the rest two or three
//! applications wide (DESIGN.md §5.4). So there is nothing to purge when
//! an application leaves or is re-profiled: a member names its
//! workload's surrogate by slot, and a refit rewrites the slot. Only
//! the wide, clustered ports keep a memo — their keys are few, shared
//! across ports, and their solve may be iterative.

use crate::controller::epoch::{Controller, Policy};
use crate::controller::plmap::PlAssigner;
use crate::controller::queuemap::QueueMapper;
use crate::controller::weights::{port_weights_from_surrogates, ModelSurrogate};
use crate::controller::{ControllerConfig, ControllerError};
use crate::sensitivity::{SensitivityModel, SensitivityTable};
use saba_math::{Polynomial, SolveScratch, WeightProblem};
use saba_sim::ids::{AppId, LinkId, ServiceLevel};
use saba_sim::topology::Topology;
use std::collections::{BTreeMap, HashMap};

/// The centralized Saba controller.
pub type CentralController = Controller<Central>;

/// Entries the clustered memo may carry into an epoch. Under churn
/// nearly every solve of a wide port meets a member-count profile not
/// seen before, so an uncapped memo grows by a few hundred bytes per
/// event for as long as the controller runs, and all a hit saves is one
/// solve. What the memo is for — the many ports of *one* epoch that
/// share a profile — is untouched: eviction happens only between
/// epochs.
const WEIGHT_CACHE_CAP: usize = 1 << 14;

/// Ports with more applications than this are solved over PL clusters:
/// for `m` same-PL applications sharing cluster weight `W` equally, the
/// summed slowdown is `m·D(W/m)` — still a polynomial — so the solve
/// involves at most 16 variables. This is the same scalability argument
/// that motivates PL grouping in §5.3.1.
const EXACT_MAX_APPS: usize = 32;

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
    /// Clustered-solve memo for large ports, keyed by the (PL, member
    /// count) profile — many core ports share one profile. Valid only
    /// for the centroid set it was computed against, so it is cleared
    /// whenever the assigner's published-centroid generation moves;
    /// bounded: an epoch that starts with more than
    /// [`WEIGHT_CACHE_CAP`] entries starts with none.
    cluster_cache: HashMap<Vec<(usize, u32)>, Vec<f64>>,
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
            cluster_cache: HashMap::new(),
            mapper_generation: 0,
            sweep_pending: false,
        };
        Self::with_policy(cfg, topo, policy)
    }

    /// A cold incarnation of this controller, as a process restart
    /// leaves it: same configuration, profile table and fabric; no
    /// registrations, connections, memos, counters or solver settings.
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
    /// rebuild the mapper, drop the centroid-dependent memo, and flag
    /// the deferred full sweep (register cannot emit switch updates, so
    /// already-programmed ports stay on the old mapping until the next
    /// reprogramming-capable event).
    fn refresh_mapper_if_stale(&mut self) {
        let generation = self.assigner.generation();
        if generation == self.mapper_generation && self.mapper.is_some() {
            return;
        }
        self.mapper = QueueMapper::build(&self.assigner.centroids());
        self.mapper_generation = generation;
        self.cluster_cache.clear();
        self.sweep_pending = true;
    }

    /// The clustered Eq. 2 problem of one (PL, member count) profile.
    fn cluster_problem(&self, cfg: &ControllerConfig, profile: &[(usize, u32)]) -> WeightProblem {
        // Cluster model: m·D_centroid(w/m) — a polynomial again,
        // with coefficients m^(1-i)·c_i.
        let cluster_models: Vec<Polynomial> = profile
            .iter()
            .map(|&(pl, m)| {
                let m = f64::from(m);
                let centroid = self
                    .assigner
                    .centroid(pl)
                    .expect("registered apps have active PLs");
                Polynomial::new(
                    centroid
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| m.powi(1 - i as i32) * c)
                        .collect(),
                )
            })
            .collect();
        // Protective floor at app granularity: a cluster of m
        // members is entitled to m floors.
        let total_apps: u32 = profile.iter().map(|p| p.1).sum();
        let per_app_floor = {
            let fair = cfg.c_saba / f64::from(total_apps);
            (fair * cfg.protect_fraction).max(cfg.min_weight.min(0.9 * fair))
        };
        let smallest = f64::from(profile.iter().map(|p| p.1).min().unwrap_or(1));
        let floor =
            (per_app_floor * smallest).min(cfg.c_saba / (2.0 * cluster_models.len() as f64));
        let domain_floors = profile
            .iter()
            .map(|&(_, m)| (0.05 * f64::from(m)).min(cfg.c_saba))
            .collect();
        WeightProblem {
            models: cluster_models,
            domain_floors,
            capacity: cfg.c_saba,
            min_weight: floor,
            max_weight: cfg.c_saba,
            balance_reg: 1.5,
        }
    }
}

/// Room for the widest [`cluster_profile`], on the caller's stack: wide
/// ports are looked up on every visit.
type ProfileBuf = [(usize, u32); ServiceLevel::COUNT];

/// The (PL, member count) profile of a port, ascending by PL.
fn cluster_profile<'a>(pls: &[usize], buf: &'a mut ProfileBuf) -> &'a [(usize, u32)] {
    let mut counts = [0u32; ServiceLevel::COUNT];
    for &pl in pls {
        counts[pl] += 1;
    }
    let mut len = 0;
    for (pl, &m) in counts.iter().enumerate().filter(|(_, &m)| m > 0) {
        buf[len] = (pl, m);
        len += 1;
    }
    &buf[..len]
}

impl Policy for Central {
    type Member = AppMember;
    /// The (PL, member count) profile of a port solved over clusters.
    type Key = Vec<(usize, u32)>;

    /// Looks up the profiled sensitivity model, interns its surrogate on
    /// the workload's first registration and assigns a PL online.
    fn register(
        &mut self,
        cfg: &ControllerConfig,
        app: AppId,
        workload: &str,
    ) -> Result<usize, ControllerError> {
        let model = self
            .table
            .get(workload)
            .ok_or_else(|| ControllerError::UnknownWorkload(workload.to_string()))?;
        let surrogates = &mut self.surrogates;
        let slot = self.slot_of_workload.entry(workload.to_string());
        let slot = *slot.or_insert_with(|| {
            surrogates.push(ModelSurrogate::of(model, cfg.c_saba));
            u16::try_from(surrogates.len() - 1).expect("a controller serves < 65,536 workloads")
        });
        let pl = self.assigner.assign(app, model.coefficients());
        let sl = u8::try_from(pl).expect("a PL is an SL");
        self.apps.insert(app, AppMember { app, pl: sl, slot });
        // The clustered memo and the queue mapper depend on the
        // published centroids: refresh them only when the assigner
        // actually published a change — a duplicate of an existing
        // workload joining its slot costs nothing.
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
    /// entry is a structural no-op; with no registered application of
    /// the workload only the table (and its slot, if one exists) changes.
    fn update_model(&mut self, cfg: &ControllerConfig, model: &SensitivityModel) -> Vec<AppMember> {
        if self.table.get(&model.workload) == Some(model) {
            return Vec::new();
        }
        self.table.insert(model.clone());
        let Some(&slot) = self.slot_of_workload.get(&model.workload) else {
            return Vec::new();
        };
        self.surrogates[usize::from(slot)] = ModelSurrogate::of(model, cfg.c_saba);
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

    fn mapper(&mut self) -> &mut QueueMapper {
        self.mapper.as_mut().expect("apps exist, so mapper exists")
    }

    fn begin_epoch(&mut self, force: bool) -> bool {
        // Evict between epochs only: within one, the prewarm and the
        // sweep must see the same cache, and serial and parallel runs
        // reach this point with identical contents.
        if self.cluster_cache.len() > WEIGHT_CACHE_CAP {
            self.cluster_cache.clear();
        }
        std::mem::take(&mut self.sweep_pending) && !force
    }

    fn cached(&self, apps: &[AppMember], pls: &[usize]) -> Option<&[f64]> {
        if apps.len() <= EXACT_MAX_APPS {
            return None;
        }
        self.cluster_cache
            .get(cluster_profile(pls, &mut ProfileBuf::default()))
            .map(Vec::as_slice)
    }

    /// Only the wide, clustered ports are memoized.
    fn key(&self, apps: &[AppMember], pls: &[usize]) -> Option<Self::Key> {
        (apps.len() > EXACT_MAX_APPS)
            .then(|| cluster_profile(pls, &mut ProfileBuf::default()).to_vec())
    }

    /// Clustered problems are solved cold: a pure function of the
    /// profile and the published centroids.
    fn solve(
        &self,
        cfg: &ControllerConfig,
        profile: &Self::Key,
        _link: LinkId,
        _scratch: &mut SolveScratch,
    ) -> Vec<f64> {
        saba_math::minimize_weights(&self.cluster_problem(cfg, profile))
            .expect("feasible clustered weight problem")
            .weights
    }

    fn store(&mut self, profile: Self::Key, weights: Vec<f64>) {
        self.cluster_cache.insert(profile, weights);
    }

    /// The exact solve, straight into the visit's weight buffer: a pure
    /// function of the members' surrogates, each one indexed load away.
    /// A lone application has nobody to share with — its answer is
    /// `[C_saba]` and no Eq. 2 problem was solved.
    fn solve_into(
        &self,
        cfg: &ControllerConfig,
        apps: &[AppMember],
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

    /// A clustered solve has one weight per PL: split each cluster's
    /// share equally among its members (the queue weight is the sum
    /// again, so enforcement is unchanged).
    fn settle(&mut self, _: LinkId, apps: &[AppMember], pls: &[usize], weights: &mut Vec<f64>) {
        if apps.len() <= EXACT_MAX_APPS {
            return;
        }
        let (mut share, mut buf) = ([0.0; ServiceLevel::COUNT], ProfileBuf::default());
        for (&(pl, m), &w) in cluster_profile(pls, &mut buf).iter().zip(weights.iter()) {
            share[pl] = w / f64::from(m);
        }
        weights.clear();
        weights.extend(pls.iter().map(|&pl| share[pl]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SwitchUpdate;
    use crate::fabric::PortQueueConfig;
    use crate::profiler::{Profiler, ProfilerConfig};
    use saba_sim::ids::NodeId;
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
        // programs exactly what one built from that set would.
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let names = ["LR", "PR", "Sort", "SQL"];
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let napps = rng.gen_range(6..=24u32);
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
            for tag in 0..300u64 {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let app = rng.gen_range(0..napps);
                    let src = rng.gen_range(0..s.len());
                    let dst = (src + rng.gen_range(1..s.len())) % s.len();
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
            assert_eq!(
                churned.recompute_all(),
                scratch.recompute_all(),
                "seed {seed}"
            );
        }
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

    #[test]
    fn clustered_memo_stays_bounded_under_churn() {
        // A fixed population behind one wide port: 40 applications that
        // never leave keep it past the clustering threshold, and two
        // more per workload come and go in mixed-radix Gray-code order,
        // so every event meets a (PL, member count) profile not seen
        // before — 3^10 of them, more than the cap. The published
        // centroids never move, so nothing but the cap ever clears the
        // clustered memo.
        let profiler = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        });
        let full_table = profiler.profile_all(&catalog()).unwrap();
        let names: Vec<String> = catalog().iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 10);
        let topo = Topology::single_switch(2, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let fresh = || {
            let mut c =
                CentralController::new(ControllerConfig::default(), full_table.clone(), &topo);
            for app in 0..60u32 {
                c.register(AppId(app), &names[app as usize % 10]).unwrap();
            }
            for app in 0..40u32 {
                c.preload_connection(AppId(app), s[0], s[1], u64::from(app));
            }
            c
        };
        let mut churned = fresh();
        churned.recompute_all();
        // Digit `w` counts workload `w`'s extra applications on the port
        // (apps 40 + w and 50 + w); `up[w]` is its Gray-code direction.
        let (mut digits, mut up) = ([0u32; 10], [true; 10]);
        let mut events = 0usize;
        let mut longest = 0usize;
        'walk: while events <= WEIGHT_CACHE_CAP + WEIGHT_CACHE_CAP / 4 {
            let mut w = 0;
            while (up[w] && digits[w] == 2) || (!up[w] && digits[w] == 0) {
                up[w] = !up[w];
                w += 1;
                if w == 10 {
                    break 'walk;
                }
            }
            let updates = if up[w] {
                let app = 40 + 10 * digits[w] + w as u32;
                digits[w] += 1;
                churned.conn_create(AppId(app), s[0], s[1], u64::from(app))
            } else {
                digits[w] -= 1;
                let app = 40 + 10 * digits[w] + w as u32;
                churned.conn_destroy(AppId(app), u64::from(app))
            };
            assert_eq!(updates.unwrap().len(), 2, "both wide ports reprogram");
            events += 1;
            longest = longest.max(churned.policy.cluster_cache.len());
            assert!(churned.policy.cluster_cache.len() <= WEIGHT_CACHE_CAP + 1);
        }
        assert!(longest > WEIGHT_CACHE_CAP, "the walk must reach the cap");
        assert!(
            churned.stats().eq2_solves as usize > events,
            "every event met a new profile"
        );
        let mut scratch = fresh();
        for w in 0..10u32 {
            for extra in 0..digits[w as usize] {
                let app = 40 + 10 * extra + w;
                scratch.preload_connection(AppId(app), s[0], s[1], u64::from(app));
            }
        }
        assert_eq!(churned.recompute_all(), scratch.recompute_all());
    }
}
