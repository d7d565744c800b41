//! The centralized controller (§5, §5.4).
//!
//! Maintains global state: the application registry with PL
//! assignments, every live connection with its detected path, and the
//! set of applications crossing each output port. On every
//! register / deregister / `conn_create` / `conn_destroy` it re-solves
//! Eq. 2 for the affected ports and emits [`SwitchUpdate`]s (Fig. 7).
//!
//! Path detection mirrors §7.2: the controller holds its own copy of
//! the fabric's forwarding tables (`Routes`, the stand-in for reading
//! switch forwarding tables via `infiniband-diags`) and resolves each
//! connection's path from them.

use crate::controller::plmap::PlAssigner;
use crate::controller::queuemap::QueueMapper;
use crate::controller::weights::{port_weights_from_surrogates, ModelSurrogate};
use crate::controller::{ControllerConfig, ControllerError, EpochInfo, SwitchUpdate};
use crate::fabric::PortQueueConfig;
use crate::sensitivity::{SensitivityModel, SensitivityTable};
use saba_math::SolveScratch;
use saba_sim::ids::{AppId, LinkId, NodeId, ServiceLevel};
use saba_sim::routing::{LinkMembers, Routes};
use saba_sim::topology::Topology;
use saba_telemetry::{EventKind, Histogram, TelemetrySink};
use std::collections::{BTreeMap, HashMap};

/// Running counters, used by the Fig. 12 overhead study and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Applications registered over the lifetime.
    pub registrations: u64,
    /// Connections created.
    pub conns_created: u64,
    /// Connections destroyed.
    pub conns_destroyed: u64,
    /// Ports reprogrammed.
    pub ports_reconfigured: u64,
    /// Eq. 2 solves performed.
    pub eq2_solves: u64,
    /// Ports visited across all epochs (dirty-set sizes summed).
    pub ports_dirty: u64,
    /// Eq. 2 solves avoided by the memo caches' fast path.
    pub solves_skipped: u64,
    /// `SwitchUpdate`s suppressed because the recomputed configuration
    /// matched what the port already runs.
    pub queue_updates_diffed: u64,
}

#[derive(Debug, Clone)]
struct AppEntry {
    /// Solves read the cached [`ModelSurrogate`] instead; the name is
    /// kept for `Debug` dumps of controller state.
    #[allow(dead_code)]
    workload: String,
    pl: usize,
}

#[derive(Debug, Clone)]
struct ConnInfo {
    app: AppId,
    links: Vec<LinkId>,
}

/// Entries [`CentralController`]'s per-application-set memo may carry
/// into an epoch. Under churn nearly every solve meets a member set not
/// seen before, so an uncapped memo grows by a few hundred bytes per
/// event for as long as the controller runs, and all a hit saves is one
/// closed-form solve. What the memo is for — the many ports of *one*
/// epoch that share a member set — is untouched: eviction happens only
/// between epochs, and the cap is more than two cold epochs of the
/// paper's 1,944-server fabric (~7 k distinct sets each).
const WEIGHT_CACHE_CAP: usize = 1 << 14;

/// The centralized Saba controller.
#[derive(Debug, Clone)]
pub struct CentralController {
    cfg: ControllerConfig,
    table: SensitivityTable,
    topo: Topology,
    routes: Routes,
    apps: BTreeMap<AppId, AppEntry>,
    assigner: PlAssigner,
    mapper: Option<QueueMapper>,
    conns: HashMap<(AppId, u64), ConnInfo>,
    /// Reference-counted link → application reverse index; the source
    /// of dirty-port decisions (membership-set transitions only).
    link_apps: LinkMembers<AppId>,
    /// Eq. 2 solutions memoized by the exact application set: many
    /// ports see the same contender set, and weights depend only on the
    /// apps' (immutable) models. Entries naming an application are
    /// purged when it deregisters (its id could be rebound to a
    /// different workload); registrations leave the cache intact — a
    /// fresh id cannot appear in any existing key. Bounded: an epoch
    /// that starts with more than [`WEIGHT_CACHE_CAP`] entries starts
    /// with none.
    weight_cache: HashMap<Vec<AppId>, Vec<f64>>,
    /// Clustered-solve memo for large ports, keyed by the (PL, member
    /// count) profile — many core ports share one profile. Valid only
    /// for the centroid set it was computed against, so it is cleared
    /// whenever the assigner's published-centroid generation moves.
    cluster_cache: HashMap<Vec<(usize, u32)>, Vec<f64>>,
    /// Per-application solver inputs, precomputed at registration.
    surrogates: HashMap<AppId, ModelSurrogate>,
    /// Last configuration emitted per port, for reprogramming diffs.
    /// Ports absent from the map run the default single-queue config.
    programmed: HashMap<u32, PortQueueConfig>,
    /// Assigner generation the queue mapper was last built against.
    mapper_generation: u64,
    /// Set when a registration changed the published centroid set while
    /// ports were already programmed: `register` cannot emit updates, so
    /// the next reprogramming-capable event sweeps every active port.
    sweep_pending: bool,
    /// Worker threads for independent per-port Eq. 2 solves (1 = serial).
    solver_threads: usize,
    scratch: SolveScratch,
    last_epoch: EpochInfo,
    stats: ControllerStats,
    solve_timing: bool,
    last_solve_secs: f64,
    solve_secs_total: f64,
    solve_hist: Histogram,
}

impl CentralController {
    /// Creates a controller for `topo` with the profiler-provided
    /// sensitivity `table`.
    ///
    /// The topology is cloned and forwarding tables are computed here —
    /// the §7.2 path-detection step.
    pub fn new(cfg: ControllerConfig, table: SensitivityTable, topo: &Topology) -> Self {
        cfg.validate();
        let routes = Routes::compute(topo);
        let dim = table.max_coeff_len().max(2);
        let num_links = topo.num_links();
        Self {
            assigner: PlAssigner::new(cfg.num_pls, dim),
            cfg,
            table,
            topo: topo.clone(),
            routes,
            apps: BTreeMap::new(),
            mapper: None,
            conns: HashMap::new(),
            link_apps: LinkMembers::new(num_links),
            weight_cache: HashMap::new(),
            cluster_cache: HashMap::new(),
            surrogates: HashMap::new(),
            programmed: HashMap::new(),
            mapper_generation: 0,
            sweep_pending: false,
            solver_threads: 1,
            scratch: SolveScratch::new(),
            last_epoch: EpochInfo::default(),
            stats: ControllerStats::default(),
            solve_timing: false,
            last_solve_secs: 0.0,
            solve_secs_total: 0.0,
            solve_hist: Histogram::new(),
        }
    }

    /// Enables wall-clock timing of every reprogramming batch. Each
    /// [`Self::reprogram`]-driven solve then lands one sample in
    /// [`Self::solve_histogram`] — the measurement behind the Fig. 12
    /// controller-overhead study. Off by default: timing calls the OS
    /// clock, which the null-telemetry fast path must not.
    pub fn enable_solve_timing(&mut self) {
        self.solve_timing = true;
    }

    /// Wall-clock seconds of the most recent timed reprogramming batch.
    pub fn last_solve_secs(&self) -> f64 {
        self.last_solve_secs
    }

    /// Total wall-clock seconds across all timed batches; diff around a
    /// call sequence to time it (e.g. one `recompute_all`).
    pub fn solve_secs_total(&self) -> f64 {
        self.solve_secs_total
    }

    /// Distribution of per-batch solve times (empty until
    /// [`Self::enable_solve_timing`]).
    pub fn solve_histogram(&self) -> &Histogram {
        &self.solve_hist
    }

    /// Sets the number of worker threads used for the independent
    /// per-port Eq. 2 solves of a reprogramming batch (clamped to at
    /// least 1; 1 — the default — keeps the fully serial path).
    ///
    /// The parallel path is *bit-identical* to the serial one: each
    /// missing memo-cache entry is an independent solve (weights are a
    /// pure function of the port's application set or PL profile),
    /// workers fill a per-thread [`SolveScratch`], and results are
    /// merged into the caches in the deterministic first-occurrence
    /// order the serial sweep would have produced. Stats counters also
    /// match exactly.
    pub fn set_solver_threads(&mut self, threads: usize) {
        self.solver_threads = threads.max(1);
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Number of registered applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Number of live connections.
    pub fn num_conns(&self) -> usize {
        self.conns.len()
    }

    /// Registers an application (`app_register`, Fig. 7 ②): looks up its
    /// profiled sensitivity model, assigns a PL, and returns the Service
    /// Level its connections must carry (Fig. 7 ③).
    pub fn register(
        &mut self,
        app: AppId,
        workload: &str,
    ) -> Result<ServiceLevel, ControllerError> {
        if self.apps.contains_key(&app) {
            return Err(ControllerError::AlreadyRegistered(app));
        }
        let model = self
            .table
            .get(workload)
            .ok_or_else(|| ControllerError::UnknownWorkload(workload.to_string()))?;
        let coeffs = model.coefficients().to_vec();
        let surrogate = ModelSurrogate::of(model, self.cfg.c_saba);
        let pl = self.assigner.assign(app, &coeffs);
        self.apps.insert(
            app,
            AppEntry {
                workload: workload.to_string(),
                pl,
            },
        );
        self.surrogates.insert(app, surrogate);
        // A fresh id cannot invalidate any cached per-app-set solution,
        // so the weight memo survives. The clustered memo and the queue
        // mapper depend on the published centroids: refresh them only
        // when the assigner actually published a change — a duplicate of
        // an existing workload joining its slot costs nothing.
        self.refresh_mapper_if_stale();
        self.stats.registrations += 1;
        Ok(ServiceLevel(pl as u8))
    }

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

    /// Deregisters an application (`app_deregister`, Fig. 7 ⑬),
    /// dropping any connections it still holds and reprogramming the
    /// ports they crossed.
    pub fn deregister(&mut self, app: AppId) -> Result<Vec<SwitchUpdate>, ControllerError> {
        if !self.apps.contains_key(&app) {
            return Err(ControllerError::UnknownApp(app));
        }
        // Drop leftover connections first.
        let leftover: Vec<(AppId, u64)> = self
            .conns
            .keys()
            .filter(|(a, _)| *a == app)
            .copied()
            .collect();
        let mut dirty = Vec::new();
        for key in leftover {
            let info = self.conns.remove(&key).expect("key just enumerated");
            dirty.extend(self.release_links(app, &info.links));
        }
        self.apps.remove(&app);
        self.assigner.remove(app);
        self.surrogates.remove(&app);
        // The id may be rebound to a different workload later: purge
        // every memoized solution that involved it. Solutions over
        // other app sets remain valid — their models are untouched.
        self.weight_cache.retain(|apps, _| !apps.contains(&app));
        self.refresh_mapper_if_stale();
        Ok(self.reprogram(dirty))
    }

    /// Replaces a workload's sensitivity model at runtime — the online
    /// re-profiler's push path (§4.2 drift). The table entry is swapped,
    /// every registered application of that workload gets a fresh
    /// [`ModelSurrogate`] and updated clustering coefficients (keeping
    /// its PL — the §6 sticky-SL invariant), memoized solutions naming
    /// an affected application are purged, and only the ports those
    /// applications currently cross are reprogrammed (the incremental
    /// epoch path; a published-centroid move widens the sweep exactly
    /// like any other mapper-staleness event).
    ///
    /// With no registered application of that workload the table is
    /// updated and no port is touched. A model identical to the current
    /// table entry is a structural no-op (no caches purged, no solves,
    /// no updates).
    pub fn update_model(&mut self, model: &SensitivityModel) -> Vec<SwitchUpdate> {
        if self.table.get(&model.workload) == Some(model) {
            return Vec::new();
        }
        let affected: Vec<AppId> = self
            .apps
            .iter()
            .filter(|(_, e)| e.workload == model.workload)
            .map(|(&a, _)| a)
            .collect();
        let surrogate = ModelSurrogate::of(model, self.cfg.c_saba);
        let coeffs = model.coefficients().to_vec();
        self.table.insert(model.clone());
        if affected.is_empty() {
            return Vec::new();
        }
        for &app in &affected {
            self.surrogates.insert(app, surrogate.clone());
            self.assigner
                .update_coeffs(app, &coeffs)
                .expect("registered apps have PLs");
        }
        // Memoized solutions naming an affected application were solved
        // against the old model; sets of untouched apps remain valid.
        self.weight_cache
            .retain(|apps, _| !apps.iter().any(|a| affected.contains(a)));
        self.refresh_mapper_if_stale();
        let dirty: Vec<LinkId> = self
            .link_apps
            .occupied_links()
            .filter(|&l| self.link_apps.members(l).any(|a| affected.contains(&a)))
            .collect();
        self.reprogram(dirty)
    }

    /// Registers a new connection (`conn_create`, Fig. 7 ⑤): detects its
    /// path, performs a new allocation for the ports whose application
    /// set changed (⑥), and returns the enforcement updates (⑦).
    pub fn conn_create(
        &mut self,
        app: AppId,
        src: NodeId,
        dst: NodeId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        if !self.apps.contains_key(&app) {
            return Err(ControllerError::UnknownApp(app));
        }
        let links = self.detect_path(src, dst, tag)?;
        let mut dirty = Vec::new();
        for &l in &links {
            if self.link_apps.add(l, app) {
                dirty.push(l); // App set at this port changed.
            }
        }
        self.conns.insert((app, tag), ConnInfo { app, links });
        self.stats.conns_created += 1;
        Ok(self.reprogram(dirty))
    }

    /// Removes a connection (`conn_destroy`, Fig. 7 ⑨), triggering a new
    /// allocation (⑩/⑪) for ports whose application set changed.
    pub fn conn_destroy(
        &mut self,
        app: AppId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        let info = self
            .conns
            .remove(&(app, tag))
            .ok_or(ControllerError::UnknownConnection(tag))?;
        self.stats.conns_destroyed += 1;
        let dirty = self.release_links(info.app, &info.links);
        Ok(self.reprogram(dirty))
    }

    /// Recomputes the configuration of *every* port that carries Saba
    /// traffic — the whole-fabric calculation the Fig. 12 overhead study
    /// times.
    pub fn recompute_all(&mut self) -> Vec<SwitchUpdate> {
        self.refresh_mapper_if_stale();
        self.sweep_pending = false;
        let all: Vec<LinkId> = self.link_apps.occupied_links().collect();
        if !self.solve_timing {
            return self.reprogram_batch(all, true);
        }
        let t0 = std::time::Instant::now();
        let updates = self.reprogram_batch(all, true);
        self.note_batch_secs(t0.elapsed().as_secs_f64());
        updates
    }

    /// Registers a connection *without* reprogramming any switch — bulk
    /// state loading for warm starts and for the Fig. 12 overhead study,
    /// which times one [`Self::recompute_all`] over a pre-built state.
    ///
    /// # Panics
    ///
    /// Panics if the app is unregistered or the route does not exist.
    pub fn preload_connection(&mut self, app: AppId, src: NodeId, dst: NodeId, tag: u64) {
        assert!(self.apps.contains_key(&app), "app {app} is not registered");
        let links = self
            .detect_path(src, dst, tag)
            .unwrap_or_else(|e| panic!("path detection failed: {e}"));
        for &l in &links {
            self.link_apps.add(l, app);
        }
        self.conns.insert((app, tag), ConnInfo { app, links });
        self.stats.conns_created += 1;
    }

    /// Path detection (§7.2): the single static-ECMP path, or — with
    /// multipath enabled — every link on any equal-cost shortest path.
    fn detect_path(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
    ) -> Result<Vec<LinkId>, ControllerError> {
        if self.cfg.multipath {
            let links = self.routes.all_shortest_path_links(&self.topo, src, dst);
            if links.is_empty() && src != dst {
                return Err(ControllerError::Unreachable { src, dst });
            }
            Ok(links)
        } else {
            self.routes
                .path(&self.topo, src, dst, tag)
                .ok_or(ControllerError::Unreachable { src, dst })
        }
    }

    fn release_links(&mut self, app: AppId, links: &[LinkId]) -> Vec<LinkId> {
        let mut dirty = Vec::new();
        for &l in links {
            if self.link_apps.remove(l, app) {
                dirty.push(l);
            }
        }
        dirty
    }

    fn note_batch_secs(&mut self, secs: f64) {
        self.last_solve_secs = secs;
        self.solve_secs_total += secs;
        self.solve_hist.record(secs);
    }

    /// Reprograms the dirty set of one event epoch: computes fresh
    /// configurations for the given ports and emits updates only for
    /// ports whose configuration actually changed. When a registration
    /// left the PL-to-queue mapping stale, the dirty set is widened to
    /// every active port (the deferred full sweep) — the diff still
    /// suppresses ports the new mapping happens to leave unchanged.
    fn reprogram(&mut self, mut links: Vec<LinkId>) -> Vec<SwitchUpdate> {
        if self.sweep_pending {
            self.sweep_pending = false;
            links.extend(self.link_apps.occupied_links());
        }
        if !self.solve_timing {
            return self.reprogram_batch(links, false);
        }
        let t0 = std::time::Instant::now();
        let updates = self.reprogram_batch(links, false);
        self.note_batch_secs(t0.elapsed().as_secs_f64());
        updates
    }

    /// Computes configurations for `links` (deduplicated, in id order)
    /// and returns the updates. With `force` (the recovery-style
    /// recompute paths) every port's configuration is emitted
    /// unconditionally; otherwise the diff against the last programmed
    /// state suppresses no-op updates.
    fn reprogram_batch(&mut self, mut links: Vec<LinkId>, force: bool) -> Vec<SwitchUpdate> {
        links.sort_unstable_by_key(|l| l.0);
        links.dedup();
        self.last_epoch = EpochInfo {
            full: force,
            dirty: links.len() as u32,
            emitted: 0,
        };
        self.stats.ports_dirty += links.len() as u64;
        // Evict between epochs only: within one, the prewarm below and
        // the sweep must see the same cache, and serial and parallel
        // runs reach this point with identical contents.
        if self.weight_cache.len() > WEIGHT_CACHE_CAP {
            self.weight_cache.clear();
        }
        // Parallel phase: solve every missing memo-cache entry up front,
        // so the serial per-port sweep below runs on pure cache hits.
        // Each prewarmed key is hit at least once in the sweep (by the
        // port that requested it), where the serial path would have
        // counted a solve instead of a skip — the compensation below
        // keeps the counters bit-identical to a single-threaded run.
        let prewarmed = if self.solver_threads > 1 {
            self.prewarm_weight_caches(&links)
        } else {
            0
        };
        let mut updates = Vec::with_capacity(links.len());
        for link in links {
            let config = self.port_config(link);
            // A Saba-occupied port is programmed even when its computed
            // configuration happens to equal the factory default (one
            // application at C_saba = 1.0 computes exactly that), so the
            // diff keys on the (occupancy, config) pair: `programmed`
            // holds every occupied port's last emitted configuration,
            // and absence means the switch still runs its default.
            let occupied = !self.link_apps.is_empty(link);
            if !force {
                let unchanged = if occupied {
                    self.programmed.get(&link.0) == Some(&config)
                } else {
                    !self.programmed.contains_key(&link.0)
                };
                if unchanged {
                    self.stats.queue_updates_diffed += 1;
                    continue;
                }
            }
            if occupied {
                self.programmed.insert(link.0, config.clone());
            } else {
                self.programmed.remove(&link.0);
            }
            self.stats.ports_reconfigured += 1;
            updates.push(SwitchUpdate { link, config });
        }
        if prewarmed > 0 {
            debug_assert!(self.stats.solves_skipped >= prewarmed);
            self.stats.solves_skipped -= prewarmed;
            self.stats.eq2_solves += prewarmed;
        }
        self.last_epoch.emitted = updates.len() as u32;
        updates
    }

    /// Gathers the memo-cache misses of one reprogramming batch and
    /// solves them concurrently (the tentpole of the scale-out work):
    /// the member set of every dirty port is collected serially, the
    /// solves for keys not yet cached run on
    /// [`saba_math::parallel_map_with`] workers with per-thread
    /// [`SolveScratch`] pools, and results land in the caches in
    /// first-occurrence order. Returns the number of solves performed so
    /// the caller can reconcile the hit/solve counters.
    ///
    /// Determinism argument: every solve is a pure function of its key —
    /// the exact dual solve reads nothing but the members' surrogates,
    /// and the clustered problems are solved cold — so values are
    /// independent of scratch state and scheduling.
    fn prewarm_weight_caches(&mut self, links: &[LinkId]) -> u64 {
        enum PrewarmJob {
            Exact {
                apps: Vec<AppId>,
            },
            Clustered {
                profile: Vec<(usize, u32)>,
                problem: saba_math::WeightProblem,
            },
        }
        let mut jobs: Vec<PrewarmJob> = Vec::new();
        let mut queued_sets: std::collections::HashSet<Vec<AppId>> =
            std::collections::HashSet::new();
        let mut queued_profiles: std::collections::HashSet<Vec<(usize, u32)>> =
            std::collections::HashSet::new();
        for &link in links {
            let apps: Vec<AppId> = self.link_apps.members(link).collect();
            if apps.is_empty() {
                continue;
            }
            if apps.len() <= 32 {
                if self.weight_cache.contains_key(&apps) || queued_sets.contains(&apps) {
                    continue;
                }
                queued_sets.insert(apps.clone());
                jobs.push(PrewarmJob::Exact { apps });
            } else {
                let groups = self.cluster_groups(&apps);
                let profile = cluster_profile(&groups);
                if self.cluster_cache.contains_key(&profile) || queued_profiles.contains(&profile) {
                    continue;
                }
                let problem = self.cluster_problem(&groups);
                queued_profiles.insert(profile.clone());
                jobs.push(PrewarmJob::Clustered { profile, problem });
            }
        }
        if jobs.is_empty() {
            return 0;
        }
        let surrogates = &self.surrogates;
        let (c_saba, min_weight, protect) = (
            self.cfg.c_saba,
            self.cfg.min_weight,
            self.cfg.protect_fraction,
        );
        let solved: Vec<Vec<f64>> = saba_math::parallel_map_with(
            jobs.len(),
            self.solver_threads,
            SolveScratch::new,
            |scratch, j| match &jobs[j] {
                PrewarmJob::Exact { apps } => {
                    let surrogate_refs: Vec<&ModelSurrogate> =
                        apps.iter().map(|a| &surrogates[a]).collect();
                    port_weights_from_surrogates(
                        &surrogate_refs,
                        c_saba,
                        min_weight,
                        protect,
                        scratch,
                    )
                    .expect("non-empty feasible weight problem")
                }
                PrewarmJob::Clustered { problem, .. } => {
                    saba_math::minimize_weights(problem)
                        .expect("feasible clustered weight problem")
                        .weights
                }
            },
        );
        let n = jobs.len() as u64;
        for (job, w) in jobs.into_iter().zip(solved) {
            match job {
                PrewarmJob::Exact { apps } => {
                    self.weight_cache.insert(apps, w);
                }
                PrewarmJob::Clustered { profile, .. } => {
                    self.cluster_cache.insert(profile, w);
                }
            }
        }
        n
    }

    /// The scope of the most recent reprogramming epoch.
    pub fn last_epoch(&self) -> EpochInfo {
        self.last_epoch
    }

    /// Records the most recent epoch's scope into a telemetry sink:
    /// one [`EventKind::EpochScope`] trace event at simulated time `t`.
    /// Guarded on [`TelemetrySink::enabled`], so a [`NullSink`] caller
    /// pays nothing.
    ///
    /// [`NullSink`]: saba_telemetry::NullSink
    pub fn record_epoch<S: TelemetrySink>(&self, t: f64, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        let e = self.last_epoch;
        sink.record(
            t,
            EventKind::EpochScope {
                full: e.full,
                dirty: u64::from(e.dirty),
                emitted: u64::from(e.emitted),
            },
        );
    }

    /// Builds the queue configuration for one port from the applications
    /// currently crossing it (§5.1 weight calculation + §5.3 mapping).
    fn port_config(&mut self, link: LinkId) -> PortQueueConfig {
        let apps: Vec<AppId> = self.link_apps.members(link).collect();
        if apps.is_empty() {
            return PortQueueConfig::default();
        }
        // Eq. 2 over the applications at this port (memoized by set).
        // Beyond a size threshold, applications are aggregated by PL
        // before solving: for `m` same-PL applications sharing cluster
        // weight `W` equally, the summed slowdown is `m·D(W/m)` — still
        // a polynomial — so the solve involves at most 16 variables.
        // This is the same scalability argument that motivates PL
        // grouping in §5.3.1.
        let weights = if apps.len() <= 32 {
            match self.weight_cache.get(&apps) {
                Some(w) => {
                    self.stats.solves_skipped += 1;
                    w.clone()
                }
                None => {
                    self.stats.eq2_solves += 1;
                    let surrogate_refs: Vec<&ModelSurrogate> =
                        apps.iter().map(|a| &self.surrogates[a]).collect();
                    let w = port_weights_from_surrogates(
                        &surrogate_refs,
                        self.cfg.c_saba,
                        self.cfg.min_weight,
                        self.cfg.protect_fraction,
                        &mut self.scratch,
                    )
                    .expect("non-empty feasible weight problem");
                    self.weight_cache.insert(apps.clone(), w.clone());
                    w
                }
            }
        } else {
            self.clustered_port_weights(&apps)
        };

        // PLs present at this port and the hierarchy level that fits the
        // queue budget.
        let mapper = self.mapper.as_ref().expect("apps exist, so mapper exists");
        let mut present: Vec<usize> = apps.iter().map(|&a| self.apps[&a].pl).collect();
        present.sort_unstable();
        present.dedup();
        let pm = mapper.map_port(&present, self.cfg.queues_per_port);

        // Queue weight = sum of the weights of its applications (§5.3.2:
        // "assigns the sum of the bandwidth allocated to applications
        // associated with each queue as the weight of that queue").
        let mut qweights = vec![0.0; pm.groups.len()];
        for (&app, &w) in apps.iter().zip(&weights) {
            let pl = self.apps[&app].pl;
            let q = pm
                .groups
                .iter()
                .position(|g| g.contains(&pl))
                .expect("every present PL is in a group");
            qweights[q] += w;
        }
        // Reserve the non-Saba share, if any, on a dedicated queue that
        // unmapped SLs fall back to (§3 co-existence).
        let mut sl_to_queue = pm.sl_to_queue;
        if self.cfg.c_saba < 1.0 {
            qweights.push(1.0 - self.cfg.c_saba);
            let reserved_q = (qweights.len() - 1) as u8;
            let active: Vec<usize> = mapper.pls().to_vec();
            for (sl, q) in sl_to_queue.iter_mut().enumerate().take(ServiceLevel::COUNT) {
                if !active.contains(&sl) {
                    *q = reserved_q;
                }
            }
        }
        for w in &mut qweights {
            *w = w.max(1e-6); // Guard against a zero queue weight.
        }
        PortQueueConfig::new(sl_to_queue, qweights)
    }

    /// Eq. 2 over PL clusters for ports with many applications: solve
    /// at most `num_pls` variables, then split each cluster's share
    /// equally among its members (the queue weight is the sum again, so
    /// enforcement is unchanged).
    fn clustered_port_weights(&mut self, apps: &[AppId]) -> Vec<f64> {
        let groups = self.cluster_groups(apps);
        let profile = cluster_profile(&groups);
        let cluster_w = match self.cluster_cache.get(&profile) {
            Some(w) => {
                self.stats.solves_skipped += 1;
                w.clone()
            }
            None => {
                let problem = self.cluster_problem(&groups);
                self.stats.eq2_solves += 1;
                let w = saba_math::minimize_weights(&problem)
                    .expect("feasible clustered weight problem")
                    .weights;
                self.cluster_cache.insert(profile, w.clone());
                w
            }
        };
        let mut out = vec![0.0; apps.len()];
        for (members, w) in groups.values().zip(&cluster_w) {
            let share = w / members.len() as f64;
            for &i in members {
                out[i] = share;
            }
        }
        out
    }

    /// Member indices of `apps` grouped by assigned PL (the clustered
    /// solve's variables).
    fn cluster_groups(&self, apps: &[AppId]) -> BTreeMap<usize, Vec<usize>> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &a) in apps.iter().enumerate() {
            groups.entry(self.apps[&a].pl).or_default().push(i);
        }
        groups
    }

    /// The clustered Eq. 2 problem for one PL grouping. Shared by the
    /// serial memoized path and the parallel prewarm phase, so both
    /// solve the exact same inputs.
    fn cluster_problem(&self, groups: &BTreeMap<usize, Vec<usize>>) -> saba_math::WeightProblem {
        use saba_math::Polynomial;
        // Cluster model: m·D_centroid(w/m) — a polynomial again,
        // with coefficients m^(1-i)·c_i.
        let cluster_models: Vec<Polynomial> = groups
            .iter()
            .map(|(&pl, members)| {
                let m = members.len() as f64;
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
        let total_apps: usize = groups.values().map(Vec::len).sum();
        let per_app_floor = {
            let fair = self.cfg.c_saba / total_apps as f64;
            (fair * self.cfg.protect_fraction).max(self.cfg.min_weight.min(0.9 * fair))
        };
        let smallest = groups.values().map(Vec::len).min().unwrap_or(1) as f64;
        let floor =
            (per_app_floor * smallest).min(self.cfg.c_saba / (2.0 * cluster_models.len() as f64));
        let domain_floors = groups
            .values()
            .map(|ms| (0.05 * ms.len() as f64).min(self.cfg.c_saba))
            .collect();
        saba_math::WeightProblem {
            models: cluster_models,
            domain_floors,
            capacity: self.cfg.c_saba,
            min_weight: floor,
            max_weight: self.cfg.c_saba,
            balance_reg: 1.5,
        }
    }

    /// The PL / Service Level currently assigned to `app`.
    pub fn sl_of(&self, app: AppId) -> Option<ServiceLevel> {
        self.apps.get(&app).map(|e| ServiceLevel(e.pl as u8))
    }

    /// The applications currently crossing `link`.
    pub fn apps_at(&self, link: LinkId) -> Vec<AppId> {
        self.link_apps.members(link).collect()
    }
}

/// The (PL, member count) memo key of a clustered solve.
fn cluster_profile(groups: &BTreeMap<usize, Vec<usize>>) -> Vec<(usize, u32)> {
    groups
        .iter()
        .map(|(&pl, ms)| (pl, ms.len() as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
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

    /// A sink that claims to be disabled but counts any event that
    /// reaches it anyway — the probe for the zero-cost guarantee.
    struct DisabledProbe {
        records: u32,
    }

    impl saba_telemetry::TelemetrySink for DisabledProbe {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&mut self, _t: f64, _kind: EventKind) {
            self.records += 1;
        }
    }

    #[test]
    fn record_epoch_is_zero_cost_on_a_disabled_sink() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();

        let mut probe = DisabledProbe { records: 0 };
        c.record_epoch(1.0, &mut probe);
        assert_eq!(probe.records, 0, "disabled sinks must see no payload");
        let mut null = saba_telemetry::NullSink;
        c.record_epoch(1.0, &mut null);

        // An enabled sink receives the last epoch's scope.
        let mut rec = saba_telemetry::Recorder::default();
        c.record_epoch(2.0, &mut rec);
        let events: Vec<_> = rec.trace.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::EpochScope {
                full: false,
                dirty: 2,
                emitted: 2,
            }
        );
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
    fn second_conn_of_same_app_does_not_reprogram() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        // Same app, same path: the app set at the ports is unchanged.
        let updates = c.conn_create(AppId(0), s[0], s[1], 2).unwrap();
        assert!(updates.is_empty());
        assert_eq!(c.num_conns(), 2);
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

    #[test]
    fn queue_budget_is_respected_with_many_workloads() {
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
        let pcfg = &last[0].config;
        assert!(pcfg.num_queues() <= 4, "{} queues", pcfg.num_queues());
        let total: f64 = pcfg.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum {total}");
    }

    #[test]
    fn solve_timing_is_off_by_default_and_samples_when_enabled() {
        let (mut c, topo) = controller();
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        assert_eq!(c.solve_histogram().count(), 0, "timing defaults off");
        assert_eq!(c.solve_secs_total(), 0.0);

        c.enable_solve_timing();
        c.recompute_all();
        c.conn_create(AppId(0), s[0], s[2], 2).unwrap();
        // One sample per reprogram batch: recompute_all + conn_create.
        assert_eq!(c.solve_histogram().count(), 2);
        assert!(c.solve_secs_total() > 0.0);
        assert!(c.last_solve_secs() <= c.solve_secs_total());
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
    fn memo_eviction_is_invisible() {
        use rand::{Rng, SeedableRng};
        // Enough churn to overflow the memo: the serial and the
        // parallel controller must evict at the same epoch
        // (equal updates and counters throughout), and the end state
        // must still be what a fresh controller computes.
        let topo = Topology::single_switch(16, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let names = ["LR", "PR", "Sort", "SQL"];
        let fresh = || {
            let mut c = CentralController::new(ControllerConfig::default(), table(), &topo);
            for i in 0..30u32 {
                c.register(AppId(i), names[i as usize % names.len()])
                    .unwrap();
            }
            c
        };
        let (mut serial, mut par) = (fresh(), fresh());
        par.set_solver_threads(2);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let mut live: Vec<(u32, NodeId, NodeId, u64)> = Vec::new();
        let mut tag = 0u64;
        while serial.stats().eq2_solves <= 5 * WEIGHT_CACHE_CAP as u64 / 4 {
            if live.len() < 60 || (live.len() < 120 && rng.gen_bool(0.5)) {
                let app = rng.gen_range(0..30u32);
                let src = rng.gen_range(0..s.len());
                let dst = (src + rng.gen_range(1..s.len())) % s.len();
                tag += 1;
                assert_eq!(
                    serial.conn_create(AppId(app), s[src], s[dst], tag).unwrap(),
                    par.conn_create(AppId(app), s[src], s[dst], tag).unwrap()
                );
                live.push((app, s[src], s[dst], tag));
            } else {
                let (app, .., tag) = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(
                    serial.conn_destroy(AppId(app), tag).unwrap(),
                    par.conn_destroy(AppId(app), tag).unwrap()
                );
            }
            assert!(serial.weight_cache.len() <= WEIGHT_CACHE_CAP + 2 * s.len());
        }
        assert_eq!(serial.stats(), par.stats());
        let mut scratch = fresh();
        for &(app, src, dst, tag) in &live {
            scratch.preload_connection(AppId(app), src, dst, tag);
        }
        assert_eq!(serial.recompute_all(), scratch.recompute_all());
    }

    #[test]
    fn parallel_solver_matches_serial_bit_for_bit() {
        let topo = Topology::single_switch(8, saba_sim::LINK_56G_BPS);
        let t = table();
        let mut serial = CentralController::new(ControllerConfig::default(), t.clone(), &topo);
        let mut par = CentralController::new(ControllerConfig::default(), t, &topo);
        par.set_solver_threads(8);
        let s = topo.servers();
        let names = ["LR", "PR", "Sort", "SQL"];
        // Spread connections across ports, then funnel every app through
        // one server pair so its ports exceed 32 members — the clustered
        // solve path must be bit-identical too.
        for i in 0..40u32 {
            let w = names[i as usize % names.len()];
            assert_eq!(
                serial.register(AppId(i), w).unwrap(),
                par.register(AppId(i), w).unwrap()
            );
            let (a, b) = (s[i as usize % s.len()], s[(i as usize + 1) % s.len()]);
            let tag = u64::from(i) + 1;
            assert_eq!(
                serial.conn_create(AppId(i), a, b, tag).unwrap(),
                par.conn_create(AppId(i), a, b, tag).unwrap(),
                "spread conn {i}"
            );
        }
        for i in 0..40u32 {
            let tag = u64::from(i) + 100;
            assert_eq!(
                serial.conn_create(AppId(i), s[0], s[1], tag).unwrap(),
                par.conn_create(AppId(i), s[0], s[1], tag).unwrap(),
                "funnel conn {i}"
            );
        }
        let widest = (0..topo.num_links() as u32)
            .map(|l| serial.apps_at(LinkId(l)).len())
            .max()
            .unwrap();
        assert!(widest > 32, "funnel port should trigger the clustered path");
        // Churn back down, including full deregistrations.
        for i in (0..40u32).step_by(3) {
            assert_eq!(
                serial.conn_destroy(AppId(i), u64::from(i) + 1).unwrap(),
                par.conn_destroy(AppId(i), u64::from(i) + 1).unwrap()
            );
        }
        for i in (0..40u32).step_by(5) {
            assert_eq!(
                serial.deregister(AppId(i)).unwrap(),
                par.deregister(AppId(i)).unwrap()
            );
        }
        // A forced full recompute exercises the prewarm under `force`.
        assert_eq!(serial.recompute_all(), par.recompute_all());
        let (ss, ps) = (serial.stats(), par.stats());
        assert_eq!(ss, ps, "stats must match the serial path exactly");
        assert!(ss.eq2_solves > 0 && ss.solves_skipped > 0);
    }
}
