//! Controller crash, stale-weight degradation, and replay recovery.
//!
//! [`ResilientController`] wraps either controller flavour and models
//! what the paper's §6 deployment would survive:
//!
//! * **Centralized crash** — the controller process dies and loses all
//!   in-memory state. Switches keep forwarding on their last-programmed
//!   (now *stale*) WFQ weights, applications keep running, and
//!   connection churn simply goes unanswered. On restart the controller
//!   replays the applications' re-registrations in their original
//!   order (the PL assigner is deterministic, so surviving apps get
//!   their PLs back), preloads the connections that are still alive,
//!   and reprograms every port from scratch.
//! * **Distributed shard crash** — only the crashed shard's links stop
//!   receiving weight updates; every other shard keeps allocating.
//!   Because the workload→PL mapping database is offline-replicated,
//!   recovery is just re-deriving the shard's port programs
//!   ([`DistributedController::recompute_shard`]) — no replay needed.
//!
//! Recovery wall-clock latency is measured and reported through
//! [`ResilienceStats`] for humans; it must never enter experiment CSVs
//! (it is nondeterministic).

use crate::injector::ControlAction;
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::EpochStats;
use saba_core::controller::{ControllerConfig, ControllerError, SwitchUpdate};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_telemetry::{EventKind, Histogram, JsonValue, SharedRecorder, TelemetrySink};
use saba_workload::runtime::ConnEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Counters describing how a run degraded and recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Full controller crashes.
    pub crashes: u64,
    /// Distributed shard crashes.
    pub shard_crashes: u64,
    /// Recoveries completed (controller or shard).
    pub recoveries: u64,
    /// Connection events that arrived while the controller was down
    /// (absorbed by stale weights, replayed logically at recovery).
    pub stale_events: u64,
    /// Switch updates suppressed because their link's shard was down.
    pub updates_suppressed: u64,
    /// Registrations replayed during controller recoveries.
    pub replayed_registrations: u64,
    /// Live connections replayed during controller recoveries.
    pub replayed_connections: u64,
    /// Wall-clock duration of the most recent recovery, in
    /// microseconds. Diagnostics only — nondeterministic, never to be
    /// written into experiment CSVs.
    pub last_recovery_micros: u64,
}

/// Why [`ResilientController::try_register`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TryRegisterError {
    /// The controller is crashed; retry once a standby takes over.
    Down,
    /// The (live) controller rejected the registration.
    Rejected(ControllerError),
}

impl From<ControllerError> for TryRegisterError {
    fn from(e: ControllerError) -> Self {
        TryRegisterError::Rejected(e)
    }
}

enum Inner {
    Central(Box<CentralController>),
    Distributed(Box<DistributedController>),
}

/// Evaluates `$body` with `$c` bound to whichever flavour is inside:
/// everything but construction and recovery is the shared surface of
/// [`saba_core::controller::epoch::Controller`].
macro_rules! with_inner {
    ($inner:expr, $c:ident => $body:expr) => {
        match $inner {
            Inner::Central($c) => $body,
            Inner::Distributed($c) => $body,
        }
    };
}

/// A crash-survivable facade over either controller flavour.
///
/// Drives the inner controller exactly like the plain co-run loop
/// does, but additionally tracks the ground truth needed for recovery:
/// the ordered registration log and the set of live connections.
pub struct ResilientController {
    inner: Inner,
    cfg: ControllerConfig,
    table: Option<SensitivityTable>,
    topo: Topology,
    down: bool,
    down_shards: BTreeSet<usize>,
    /// Registration log in arrival order — replay order must match the
    /// original order for the deterministic PL assigner to reproduce
    /// the same PLs.
    registrations: Vec<(AppId, String)>,
    live_conns: BTreeMap<(AppId, u64), (NodeId, NodeId)>,
    sls: BTreeMap<AppId, ServiceLevel>,
    stats: ResilienceStats,
    sink: SharedRecorder,
    clock: f64,
    solve_timing: bool,
    /// Eq. 2 solver threads, re-applied to the replacement incarnation
    /// a central recovery rebuilds cold.
    solver_threads: usize,
    /// Solve samples from controller incarnations that a crash
    /// replaced; [`Self::solve_histogram`] merges the live one in.
    solve_hist_archive: Histogram,
    /// Counters from replaced incarnations (a central recovery rebuilds
    /// the controller cold — same lifecycle as the solve histogram);
    /// [`Self::epoch_counters`] adds the live ones in.
    epoch_archive: EpochStats,
}

impl ResilientController {
    /// Wraps a fresh centralized controller.
    pub fn central(cfg: ControllerConfig, table: SensitivityTable, topo: &Topology) -> Self {
        let inner = CentralController::new(cfg.clone(), table.clone(), topo);
        Self::wrap(Inner::Central(Box::new(inner)), cfg, Some(table), topo)
    }

    /// Wraps a fresh distributed controller with `num_shards` shards.
    pub fn distributed(
        cfg: ControllerConfig,
        db: MappingDb,
        topo: &Topology,
        num_shards: usize,
    ) -> Self {
        let inner = DistributedController::new(cfg.clone(), db, topo, num_shards);
        Self::wrap(Inner::Distributed(Box::new(inner)), cfg, None, topo)
    }

    fn wrap(
        inner: Inner,
        cfg: ControllerConfig,
        table: Option<SensitivityTable>,
        topo: &Topology,
    ) -> Self {
        Self {
            inner,
            cfg,
            table,
            topo: topo.clone(),
            down: false,
            down_shards: BTreeSet::new(),
            registrations: Vec::new(),
            live_conns: BTreeMap::new(),
            sls: BTreeMap::new(),
            stats: ResilienceStats::default(),
            sink: SharedRecorder::default(),
            clock: 0.0,
            solve_timing: false,
            solver_threads: 1,
            solve_hist_archive: Histogram::new(),
            epoch_archive: EpochStats::default(),
        }
    }

    /// Starts wall-clock timing of every inner controller solve batch.
    /// Survives crash/recovery: the replacement incarnation is timed
    /// too, and [`Self::solve_histogram`] spans all incarnations.
    pub fn enable_solve_timing(&mut self) {
        self.solve_timing = true;
        with_inner!(&mut self.inner, c => c.enable_solve_timing());
    }

    /// Sets the Eq. 2 solver thread count on the inner controller.
    /// Survives crash/recovery: a central rebuild re-applies it to the
    /// fresh incarnation, so a failover never silently drops back to a
    /// single solver thread.
    pub fn set_solver_threads(&mut self, threads: usize) {
        self.solver_threads = threads.max(1);
        with_inner!(&mut self.inner, c => c.set_solver_threads(threads));
    }

    /// The configured Eq. 2 solver thread count.
    pub fn solver_threads(&self) -> usize {
        self.solver_threads
    }

    /// Wall-clock solve durations across all controller incarnations.
    /// Diagnostics only (`wall.` metrics) — nondeterministic.
    pub fn solve_histogram(&self) -> Histogram {
        let mut hist = self.solve_hist_archive.clone();
        hist.merge(with_inner!(&self.inner, c => c.solve_histogram()));
        hist
    }

    /// The controller's counters (dirty ports visited, Eq. 2 solves
    /// skipped by the memo caches, updates suppressed by the
    /// programmed-state diff, …) summed across all incarnations.
    pub fn epoch_counters(&self) -> EpochStats {
        let mut e = self.epoch_archive;
        e += with_inner!(&self.inner, c => c.stats());
        e
    }

    /// Attaches a telemetry recorder: crash/recovery edges then emit
    /// trace events, and every whole-controller crash snapshots the
    /// recovery ground truth into the flight recorder. Recovery
    /// wall-clock goes only to `wall.`-prefixed metrics, never into the
    /// trace, so traces stay deterministic.
    pub fn set_sink(&mut self, sink: SharedRecorder) {
        self.sink = sink;
    }

    /// Sets the simulated time stamped on subsequent events; the driver
    /// advances this alongside the simulator clock.
    pub fn set_clock(&mut self, t: f64) {
        self.clock = t;
    }

    /// The recovery state a flight-recorder snapshot captures at a
    /// crash edge: what a post-mortem needs to judge whether replay
    /// could have reconstructed the controller.
    fn snapshot_state(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("down", JsonValue::Bool(self.down)),
            (
                "down_shards",
                JsonValue::Arr(
                    self.down_shards
                        .iter()
                        .map(|&s| JsonValue::Num(s as f64))
                        .collect(),
                ),
            ),
            (
                "registrations",
                JsonValue::Num(self.registrations.len() as f64),
            ),
            ("live_conns", JsonValue::Num(self.live_conns.len() as f64)),
            ("crashes", JsonValue::Num(self.stats.crashes as f64)),
            (
                "shard_crashes",
                JsonValue::Num(self.stats.shard_crashes as f64),
            ),
            ("recoveries", JsonValue::Num(self.stats.recoveries as f64)),
            (
                "stale_events",
                JsonValue::Num(self.stats.stale_events as f64),
            ),
        ])
    }

    /// True while the whole controller is crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Shard count (0 for the centralized flavour).
    pub fn num_shards(&self) -> usize {
        match &self.inner {
            Inner::Central(_) => 0,
            Inner::Distributed(c) => c.num_shards(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// The SL assigned to `app`, if it is registered.
    pub fn sl_of(&self, app: AppId) -> Option<ServiceLevel> {
        self.sls.get(&app).copied()
    }

    /// Registers an application. Fails while the controller is down —
    /// callers are expected to retry after recovery (register-at-launch
    /// co-runs never hit this; it exists for completeness and tests).
    pub fn register(&mut self, app: AppId, workload: &str) -> Result<ServiceLevel, String> {
        self.try_register(app, workload).map_err(|e| match e {
            TryRegisterError::Down => "controller is down".to_string(),
            TryRegisterError::Rejected(e) => e.to_string(),
        })
    }

    /// Typed variant of [`Self::register`] for service callers that
    /// must tell the down-window (retryable — a standby is coming)
    /// apart from controller rejections (fatal).
    pub fn try_register(
        &mut self,
        app: AppId,
        workload: &str,
    ) -> Result<ServiceLevel, TryRegisterError> {
        if self.down {
            return Err(TryRegisterError::Down);
        }
        let sl = with_inner!(&mut self.inner, c => c.register(app, workload))?;
        self.registrations.push((app, workload.to_string()));
        self.sls.insert(app, sl);
        Ok(sl)
    }

    /// Feeds one connection event through the controller.
    ///
    /// While crashed, the event is only logged (the returned update set
    /// is empty — switches stay on stale weights); the log keeps the
    /// recovery ground truth current. While a shard is crashed, updates
    /// for its links are suppressed.
    pub fn on_event(&mut self, ev: &ConnEvent) -> Vec<SwitchUpdate> {
        if self.down {
            self.stats.stale_events += 1;
            self.log_event(ev);
            return Vec::new();
        }
        let updates = with_inner!(&mut self.inner, c => c.on_event(ev))
            .expect("controller accepts events for registered jobs");
        self.log_event(ev);
        if self.sink.enabled() {
            let t = self.clock;
            with_inner!(&self.inner, c => c.record_epoch(t, &mut self.sink));
        }
        self.filter_updates(updates)
    }

    /// Mirrors `ev` into the registration log and live-connection set.
    fn log_event(&mut self, ev: &ConnEvent) {
        match ev {
            ConnEvent::Created { app, src, dst, tag } => {
                self.live_conns.insert((*app, *tag), (*src, *dst));
            }
            ConnEvent::Destroyed { app, tag, .. } => {
                self.live_conns.remove(&(*app, *tag));
            }
            ConnEvent::JobCompleted { app, .. } => {
                self.registrations.retain(|(a, _)| a != app);
                self.live_conns.retain(|(a, _), _| a != app);
                self.sls.remove(app);
            }
        }
    }

    /// Drops updates addressed to links owned by a crashed shard.
    fn filter_updates(&mut self, updates: Vec<SwitchUpdate>) -> Vec<SwitchUpdate> {
        if self.down_shards.is_empty() {
            return updates;
        }
        let before = updates.len();
        let (inner, down) = (&self.inner, &self.down_shards);
        let kept: Vec<SwitchUpdate> = updates
            .into_iter()
            .filter(|u| !down.contains(&with_inner!(inner, c => c.shard_of_link(u.link))))
            .collect();
        self.stats.updates_suppressed += (before - kept.len()) as u64;
        kept
    }

    /// Crashes the whole controller: in-memory state is lost, switches
    /// keep their current (soon stale) weights.
    pub fn crash(&mut self) {
        if !self.down {
            self.down = true;
            self.stats.crashes += 1;
            if self.sink.enabled() {
                let t = self.clock;
                self.sink
                    .record(t, EventKind::ControllerCrash { shard: -1 });
                let state = self.snapshot_state();
                self.sink.snapshot(t, "controller-crash", state);
            }
        }
    }

    /// Restarts the controller and returns the updates that re-program
    /// the fabric from the recovered state.
    ///
    /// The centralized flavour is rebuilt cold and replays the ordered
    /// registration log plus the still-live connections. The
    /// distributed flavour's state is replicated (offline mapping DB +
    /// per-shard logs), so recovery only re-derives port programs.
    pub fn recover(&mut self) -> Vec<SwitchUpdate> {
        if !self.down {
            return Vec::new();
        }
        let started = Instant::now();
        self.down = false;
        let apps_before = self.stats.replayed_registrations;
        let conns_before = self.stats.replayed_connections;
        let updates = match &mut self.inner {
            Inner::Central(old) => {
                let table = self.table.clone().expect("central flavour keeps its table");
                let mut fresh = CentralController::new(self.cfg.clone(), table, &self.topo);
                self.epoch_archive += old.stats();
                fresh.set_solver_threads(self.solver_threads);
                if self.solve_timing {
                    self.solve_hist_archive.merge(old.solve_histogram());
                    fresh.enable_solve_timing();
                }
                for (app, workload) in &self.registrations {
                    let sl = fresh
                        .register(*app, workload)
                        .expect("replay of a previously accepted registration");
                    self.sls.insert(*app, sl);
                    self.stats.replayed_registrations += 1;
                }
                for (&(app, tag), &(src, dst)) in &self.live_conns {
                    fresh.preload_connection(app, src, dst, tag);
                    self.stats.replayed_connections += 1;
                }
                **old = fresh;
                old.recompute_all()
            }
            Inner::Distributed(c) => {
                // The distributed flavour's solver state survives the
                // crash (replicated mapping DB + per-shard logs), but
                // events that arrived while down were only recorded in
                // the ground-truth log, never applied. Reconcile the
                // inner controller with the log before re-deriving
                // port programs: drop apps whose jobs completed during
                // the outage (their connections go with them), drop
                // connections destroyed during it, then replay the
                // registrations and connections it never saw.
                for app in c.apps() {
                    if !self.registrations.iter().any(|(a, _)| *a == app) {
                        c.deregister(app).expect("app enumerated from inner");
                    }
                }
                for (app, tag) in c.conn_keys() {
                    if !self.live_conns.contains_key(&(app, tag)) {
                        c.conn_destroy(app, tag)
                            .expect("conn enumerated from inner");
                    }
                }
                for (app, workload) in &self.registrations {
                    if !c.apps().contains(app) {
                        let sl = c
                            .register(*app, workload)
                            .expect("replay of a previously accepted registration");
                        self.sls.insert(*app, sl);
                        self.stats.replayed_registrations += 1;
                    }
                }
                for (&(app, tag), &(src, dst)) in &self.live_conns {
                    if !c.has_conn(app, tag) {
                        c.conn_create(app, src, dst, tag)
                            .expect("replay of a logged connection");
                        self.stats.replayed_connections += 1;
                    }
                }
                c.recompute_all()
            }
        };
        self.stats.recoveries += 1;
        self.stats.last_recovery_micros = started.elapsed().as_micros() as u64;
        if self.sink.enabled() {
            let t = self.clock;
            self.sink.record(
                t,
                EventKind::ControllerRecover {
                    shard: -1,
                    replayed_apps: self.stats.replayed_registrations - apps_before,
                    replayed_conns: self.stats.replayed_connections - conns_before,
                },
            );
            let micros = self.stats.last_recovery_micros;
            self.sink.observe("wall.recovery_micros", micros as f64);
        }
        self.filter_updates(updates)
    }

    /// Crashes one shard of the distributed flavour (no-op for the
    /// centralized flavour, which has no shards).
    pub fn crash_shard(&mut self, shard: usize) {
        if matches!(self.inner, Inner::Distributed(_)) && self.down_shards.insert(shard) {
            self.stats.shard_crashes += 1;
            if self.sink.enabled() {
                let t = self.clock;
                self.sink.record(
                    t,
                    EventKind::ControllerCrash {
                        shard: shard as i64,
                    },
                );
                let state = self.snapshot_state();
                self.sink.snapshot(t, "shard-crash", state);
            }
        }
    }

    /// Restarts a crashed shard, re-deriving its port programs.
    pub fn recover_shard(&mut self, shard: usize) -> Vec<SwitchUpdate> {
        if !self.down_shards.remove(&shard) {
            return Vec::new();
        }
        let started = Instant::now();
        let updates = with_inner!(&mut self.inner, c => c.recompute_shard(shard));
        self.stats.recoveries += 1;
        self.stats.last_recovery_micros = started.elapsed().as_micros() as u64;
        if self.sink.enabled() {
            let t = self.clock;
            self.sink.record(
                t,
                EventKind::ControllerRecover {
                    shard: shard as i64,
                    replayed_apps: 0,
                    replayed_conns: 0,
                },
            );
            let micros = self.stats.last_recovery_micros;
            self.sink.observe("wall.recovery_micros", micros as f64);
        }
        self.filter_updates(updates)
    }

    /// Applies one control-plane fault action, returning any updates
    /// recovery produced. RPC-window actions are not the controller's
    /// concern and return nothing.
    pub fn apply(&mut self, action: &ControlAction) -> Vec<SwitchUpdate> {
        match action {
            ControlAction::CrashController => {
                self.crash();
                Vec::new()
            }
            ControlAction::RecoverController => self.recover(),
            ControlAction::CrashShard(s) => {
                self.crash_shard(*s);
                Vec::new()
            }
            ControlAction::RecoverShard(s) => self.recover_shard(*s),
            ControlAction::RpcDegradeStart { .. } | ControlAction::RpcDegradeEnd => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_workload::catalog;

    fn table() -> SensitivityTable {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    }

    fn created(app: u32, src: NodeId, dst: NodeId, tag: u64) -> ConnEvent {
        ConnEvent::Created {
            app: AppId(app),
            src,
            dst,
            tag,
        }
    }

    #[test]
    fn central_crash_recovery_replays_registrations_and_connections() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = ResilientController::central(ControllerConfig::default(), table(), &topo);
        let sl_lr = c.register(AppId(0), "LR").unwrap();
        let sl_sort = c.register(AppId(1), "Sort").unwrap();
        let before = c.on_event(&created(0, servers[0], servers[1], 1));
        assert!(!before.is_empty());
        c.on_event(&created(1, servers[2], servers[3], (1 << 32) | 1));

        c.crash();
        assert!(c.is_down());
        // Churn during the outage: one new connection, one teardown.
        assert!(c
            .on_event(&created(0, servers[1], servers[2], 2))
            .is_empty());
        assert!(c
            .on_event(&ConnEvent::Destroyed {
                app: AppId(1),
                src: servers[2],
                dst: servers[3],
                tag: (1 << 32) | 1,
            })
            .is_empty());
        assert!(
            c.register(AppId(2), "PR").is_err(),
            "down controller rejects"
        );

        let updates = c.recover();
        assert!(!updates.is_empty(), "recovery reprograms the fabric");
        let s = c.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.stale_events, 2);
        assert_eq!(s.replayed_registrations, 2);
        assert_eq!(s.replayed_connections, 2, "conns 0/1 and 0/2 are live");
        // Same apps, same order, deterministic assigner: same SLs.
        assert_eq!(c.sl_of(AppId(0)), Some(sl_lr));
        assert_eq!(c.sl_of(AppId(1)), Some(sl_sort));
        // The recovered controller accepts post-recovery churn for
        // connections created before *and during* the outage.
        assert!(!c
            .on_event(&ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[0],
                dst: servers[1],
                tag: 1,
            })
            .is_empty());
        c.on_event(&ConnEvent::Destroyed {
            app: AppId(0),
            src: servers[1],
            dst: servers[2],
            tag: 2,
        });
    }

    /// Regression: a full crash of the *distributed* flavour used to
    /// recover by re-deriving port programs only — events that arrived
    /// during the outage were logged but never applied to the inner
    /// controller, so the post-recovery destroy of a connection created
    /// while down panicked with `UnknownConnection` (first seen as a
    /// `resilience --smoke` severity-2 crash).
    #[test]
    fn distributed_crash_recovery_reconciles_outage_events() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let db = MappingDb::build(&table(), ControllerConfig::default().num_pls, 1);
        let mut c = ResilientController::distributed(ControllerConfig::default(), db, &topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        c.on_event(&created(0, servers[0], servers[1], 1));
        c.on_event(&created(1, servers[2], servers[3], (1 << 32) | 1));

        c.crash();
        // Outage churn: a new connection, a teardown of a pre-crash
        // connection, and a whole job completing.
        assert!(c
            .on_event(&created(0, servers[1], servers[2], 2))
            .is_empty());
        assert!(c
            .on_event(&ConnEvent::Destroyed {
                app: AppId(1),
                src: servers[2],
                dst: servers[3],
                tag: (1 << 32) | 1,
            })
            .is_empty());
        assert!(c
            .on_event(&ConnEvent::JobCompleted {
                app: AppId(1),
                at: 1.0,
            })
            .is_empty());

        let updates = c.recover();
        assert!(!updates.is_empty(), "recovery reprograms the fabric");
        let s = c.stats();
        assert_eq!(s.replayed_connections, 1, "the conn created while down");
        // Post-recovery churn on both the pre-crash and the outage-born
        // connection must be accepted (this is the line that panicked).
        assert!(!c
            .on_event(&ConnEvent::Destroyed {
                app: AppId(0),
                src: servers[1],
                dst: servers[2],
                tag: 2,
            })
            .is_empty());
        c.on_event(&ConnEvent::Destroyed {
            app: AppId(0),
            src: servers[0],
            dst: servers[1],
            tag: 1,
        });
    }

    #[test]
    fn crash_while_idle_recovers_to_empty_state() {
        let topo = Topology::single_switch(2, 100.0);
        let mut c = ResilientController::central(ControllerConfig::default(), table(), &topo);
        c.crash();
        let updates = c.recover();
        assert!(updates.is_empty(), "nothing to reprogram");
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn shard_crash_suppresses_only_its_links() {
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let db = MappingDb::build(&table(), ControllerConfig::default().num_pls, 1);
        let mut c = ResilientController::distributed(ControllerConfig::default(), db, &topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        let full = c.on_event(&created(0, servers[0], servers[1], 1));
        assert!(!full.is_empty());

        fn shard_of(c: &ResilientController, u: &SwitchUpdate) -> usize {
            with_inner!(&c.inner, d => d.shard_of_link(u.link))
        }

        c.crash_shard(0);
        let filtered = c.on_event(&created(1, servers[1], servers[2], (1 << 32) | 1));
        for u in &filtered {
            assert_eq!(shard_of(&c, u), 1, "shard-0 updates must be suppressed");
        }
        assert!(c.stats().updates_suppressed > 0);

        let recovered = c.recover_shard(0);
        assert!(!recovered.is_empty(), "shard 0 owns programmed links");
        for u in &recovered {
            assert_eq!(shard_of(&c, u), 0);
        }
        assert_eq!(c.stats().shard_crashes, 1);
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn crash_and_recovery_are_traced_with_a_flight_snapshot() {
        use saba_telemetry::{EventKind, Recorder, SharedRecorder};
        let topo = Topology::single_switch(4, 100.0);
        let servers = topo.servers().to_vec();
        let mut c = ResilientController::central(ControllerConfig::default(), table(), &topo);
        let rec = SharedRecorder::on(Recorder::default());
        c.set_sink(rec.clone());
        c.register(AppId(0), "LR").unwrap();
        c.on_event(&created(0, servers[0], servers[1], 1));

        c.set_clock(3.5);
        c.crash();
        c.crash(); // idempotent: no second event
        c.set_clock(7.25);
        c.recover();

        let rec = rec.extract().unwrap();
        let kinds: Vec<(f64, EventKind)> =
            rec.trace.events().map(|e| (e.t, e.kind.clone())).collect();
        assert_eq!(
            kinds,
            vec![
                // The pre-crash conn_create epoch: both path ports newly
                // occupied, both programmed.
                (
                    0.0,
                    EventKind::EpochScope {
                        full: false,
                        dirty: 2,
                        emitted: 2,
                    }
                ),
                (3.5, EventKind::ControllerCrash { shard: -1 }),
                (
                    7.25,
                    EventKind::ControllerRecover {
                        shard: -1,
                        replayed_apps: 1,
                        replayed_conns: 1,
                    }
                ),
            ]
        );
        // The crash captured one flight snapshot with the recovery
        // ground truth in its state.
        assert_eq!(rec.flight.snapshots().len(), 1);
        let snap = &rec.flight.snapshots()[0];
        assert_eq!(snap.reason, "controller-crash");
        assert_eq!(snap.t, 3.5);
        let json = snap.to_json();
        assert!(json.contains("\"registrations\":1"), "{json}");
        assert!(json.contains("\"live_conns\":1"), "{json}");
        // Recovery wall clock lands only under a wall.-prefixed metric,
        // never in the trace.
        assert_eq!(
            rec.registry
                .histogram("wall.recovery_micros")
                .map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn shard_crash_and_recovery_are_traced() {
        use saba_telemetry::{EventKind, Recorder, SharedRecorder};
        let topo = Topology::single_switch(4, 100.0);
        let db = MappingDb::build(&table(), ControllerConfig::default().num_pls, 1);
        let mut c = ResilientController::distributed(ControllerConfig::default(), db, &topo, 2);
        let rec = SharedRecorder::on(Recorder::default());
        c.set_sink(rec.clone());
        c.set_clock(1.0);
        c.crash_shard(1);
        c.set_clock(2.0);
        c.recover_shard(1);
        c.recover_shard(1); // already up: no event

        let rec = rec.extract().unwrap();
        let kinds: Vec<EventKind> = rec.trace.events().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ControllerCrash { shard: 1 },
                EventKind::ControllerRecover {
                    shard: 1,
                    replayed_apps: 0,
                    replayed_conns: 0,
                },
            ]
        );
        assert_eq!(rec.flight.snapshots().len(), 1);
        assert_eq!(rec.flight.snapshots()[0].reason, "shard-crash");
    }

    #[test]
    fn apply_maps_actions_to_transitions() {
        let topo = Topology::single_switch(2, 100.0);
        let mut c = ResilientController::central(ControllerConfig::default(), table(), &topo);
        assert!(c.apply(&ControlAction::CrashController).is_empty());
        assert!(c.is_down());
        c.apply(&ControlAction::RecoverController);
        assert!(!c.is_down());
        // RPC windows and shard actions are no-ops for central.
        assert!(c
            .apply(&ControlAction::RpcDegradeStart {
                drop: 0.5,
                duplicate: 0.1
            })
            .is_empty());
        c.apply(&ControlAction::CrashShard(0));
        assert_eq!(c.stats().shard_crashes, 0);
    }
}
