//! Job execution: per-job state machines driving the simulator.
//!
//! A [`JobRuntime`] executes a [`JobPlan`] on a set of servers: for each
//! stage it runs the compute phase (a timer), starts the shuffle's flows
//! once the overlap window opens, and advances to the next stage when
//! both finish. [`run_jobs`] multiplexes any number of runtimes over one
//! simulator — the event loop used by both the offline profiler (one
//! job, throttled NICs, §4.1) and the cluster experiments (many jobs,
//! §8.2).
//!
//! Runtimes surface connection lifecycle events ([`ConnEvent`]) exactly
//! as the Saba library does in Fig. 7 — `conn_create` when a transfer
//! starts, `conn_destroy` when it finishes, and a completion marker for
//! `app_deregister` — so a controller can react to each transition.

use crate::spec::JobPlan;
use saba_sim::engine::{CompletedFlow, FabricModel, FlowSpec, Simulation};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_telemetry::TelemetrySink;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Connection-lifecycle events, mirroring the Saba library's
/// control-plane calls (Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub enum ConnEvent {
    /// A connection was created (`saba_conn_create`).
    Created {
        /// Owning application.
        app: AppId,
        /// Sending server.
        src: NodeId,
        /// Receiving server.
        dst: NodeId,
        /// ECMP/correlation tag of the flow.
        tag: u64,
    },
    /// A connection finished (`saba_conn_destroy`).
    Destroyed {
        /// Owning application.
        app: AppId,
        /// Sending server.
        src: NodeId,
        /// Receiving server.
        dst: NodeId,
        /// ECMP/correlation tag of the flow.
        tag: u64,
    },
    /// The job ran to completion (`saba_app_deregister` follows).
    JobCompleted {
        /// The application that finished.
        app: AppId,
        /// Completion time.
        at: f64,
    },
}

/// Why [`run_jobs`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The simulator went idle while some jobs were still unfinished —
    /// a deadlock in the driver or a starved flow.
    Stuck {
        /// Names of unfinished jobs.
        unfinished: Vec<String>,
        /// Simulation time at which progress stopped.
        at: f64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stuck { unfinished, at } => {
                write!(
                    f,
                    "simulation idle at t={at} with unfinished jobs: {unfinished:?}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Timer kinds, encoded into the low bits of timer keys.
const KIND_COMPUTE_DONE: u64 = 0;
const KIND_START_FLOWS: u64 = 1;

/// The completion record of one stage's shuffle, viewed as a coflow
/// (see [`crate::coflow`]): a bulk-synchronous stage barrier waits for
/// *all* of its flows, so the stage's communication is an
/// all-or-nothing flow group and its metric is the CCT — the finish
/// time of the slowest constituent, never any earlier.
#[derive(Debug, Clone, PartialEq)]
pub struct CoflowRecord {
    /// Stage index within the job.
    pub stage: usize,
    /// Absolute time the stage's flows were launched.
    pub started_at: f64,
    /// Constituent flow completions `(tag, absolute finish time)`.
    pub fcts: Vec<(u64, f64)>,
    /// Absolute time the last constituent finished (the coflow's
    /// completion), `None` while any flow is still in flight.
    pub completed_at: Option<f64>,
}

impl CoflowRecord {
    /// The coflow-completion time (duration from launch), if complete.
    pub fn cct(&self) -> Option<f64> {
        self.completed_at.map(|t| t - self.started_at)
    }

    /// The slowest constituent's absolute finish time seen so far.
    pub fn max_fct(&self) -> Option<f64> {
        self.fcts
            .iter()
            .map(|&(_, t)| t)
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.max(t))))
    }
}

/// A job executing on the simulated cluster.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    app: AppId,
    sl: ServiceLevel,
    nodes: Vec<NodeId>,
    plan: JobPlan,
    key_base: u64,
    stage_idx: usize,
    compute_done: bool,
    flows_launched: bool,
    outstanding: usize,
    started_at: Option<f64>,
    finished_at: Option<f64>,
    next_tag: u64,
    events: Vec<ConnEvent>,
    cpu_busy: Option<Vec<(f64, f64)>>,
    pipeline_floor: bool,
    coflows: Vec<CoflowRecord>,
}

impl JobRuntime {
    /// Creates a runtime for `plan` on `nodes`.
    ///
    /// `key_base` namespaces the job's timer keys; drivers must give
    /// each concurrently-running job a distinct base with at least 32
    /// low bits of headroom.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != plan.nodes` or `nodes` is empty.
    pub fn new(
        app: AppId,
        sl: ServiceLevel,
        nodes: Vec<NodeId>,
        plan: JobPlan,
        key_base: u64,
    ) -> Self {
        assert!(!nodes.is_empty(), "a job needs at least one node");
        assert_eq!(
            nodes.len(),
            plan.nodes,
            "node list must match the plan's node count"
        );
        Self {
            app,
            sl,
            nodes,
            plan,
            key_base,
            stage_idx: 0,
            compute_done: false,
            flows_launched: false,
            outstanding: 0,
            started_at: None,
            finished_at: None,
            next_tag: 0,
            events: Vec::new(),
            cpu_busy: None,
            pipeline_floor: true,
            coflows: Vec::new(),
        }
    }

    /// The application id.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The workload name of the underlying plan.
    pub fn workload(&self) -> &str {
        &self.plan.workload
    }

    /// The service level flows are created with. Saba's connection
    /// manager overrides this at registration time (§6).
    pub fn sl(&self) -> ServiceLevel {
        self.sl
    }

    /// Reassigns the service level for *future* connections (the PL the
    /// controller returned at registration).
    pub fn set_sl(&mut self, sl: ServiceLevel) {
        self.sl = sl;
    }

    /// Nodes the job runs on.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether the job has run to completion.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Completion time, if finished.
    pub fn completion_time(&self) -> Option<f64> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }

    /// Enables or disables the plan's pipelining floor on this job's
    /// flows. The floor models token-bucket leakage and spill
    /// pipelining observed under *administrative throttling* — it
    /// applies to isolated, profiler-style runs (the default). In
    /// contended co-runs there is no throttle and the shared fabric is
    /// the real constraint, so the cluster harness disables it.
    pub fn set_pipeline_floor(&mut self, enabled: bool) {
        self.pipeline_floor = enabled;
    }

    /// Enables CPU-busy interval recording (for Fig. 2 traces).
    pub fn enable_cpu_trace(&mut self) {
        self.cpu_busy = Some(Vec::new());
    }

    /// Recorded CPU-busy intervals `(start, end)`, if tracing is on.
    pub fn cpu_busy_intervals(&self) -> Option<&[(f64, f64)]> {
        self.cpu_busy.as_deref()
    }

    /// Per-stage coflow records (one per stage that launched flows),
    /// carrying constituent FCTs and the CCT.
    pub fn coflow_records(&self) -> &[CoflowRecord] {
        &self.coflows
    }

    /// Drains pending connection-lifecycle events.
    pub fn drain_events(&mut self) -> Vec<ConnEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether `key` is one of this job's timer keys.
    pub fn owns_key(&self, key: u64) -> bool {
        key & !0xFFFF_FFFF == self.key_base
    }

    /// Starts the job at the current simulation time.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn begin<M: FabricModel, S: TelemetrySink>(&mut self, sim: &mut Simulation<M, S>) {
        assert!(
            self.started_at.is_none(),
            "job {} already started",
            self.app
        );
        self.started_at = Some(sim.now());
        self.start_stage(sim);
    }

    /// Handles a timer event. Returns `true` if the key belonged to this
    /// job.
    pub fn on_timer<M: FabricModel, S: TelemetrySink>(
        &mut self,
        sim: &mut Simulation<M, S>,
        key: u64,
    ) -> bool {
        if !self.owns_key(key) {
            return false;
        }
        let local = key & 0xFFFF_FFFF;
        let stage = (local >> 1) as usize;
        if stage != self.stage_idx || self.finished_at.is_some() {
            return true; // Stale timer from an already-advanced stage.
        }
        match local & 1 {
            KIND_COMPUTE_DONE => {
                self.compute_done = true;
                self.check_stage_done(sim);
            }
            KIND_START_FLOWS => self.launch_flows(sim),
            _ => unreachable!(),
        }
        true
    }

    /// Handles flows completed by the engine; the driver must only pass
    /// flows whose `spec.app` matches this job.
    pub fn on_flows_completed<M: FabricModel, S: TelemetrySink>(
        &mut self,
        sim: &mut Simulation<M, S>,
        flows: &[CompletedFlow],
    ) {
        let now = sim.now();
        for f in flows {
            debug_assert_eq!(f.spec.app, self.app);
            self.events.push(ConnEvent::Destroyed {
                app: self.app,
                src: f.spec.src,
                dst: f.spec.dst,
                tag: f.spec.tag,
            });
            if let Some(rec) = self.coflows.last_mut() {
                if rec.stage == self.stage_idx {
                    rec.fcts.push((f.spec.tag, now));
                }
            }
        }
        assert!(
            self.outstanding >= flows.len(),
            "more completions than outstanding flows"
        );
        self.outstanding -= flows.len();
        if self.outstanding == 0 && self.flows_launched {
            if let Some(rec) = self.coflows.last_mut() {
                if rec.stage == self.stage_idx && rec.completed_at.is_none() {
                    rec.completed_at = Some(now);
                }
            }
        }
        self.check_stage_done(sim);
    }

    fn timer_key(&self, stage: usize, kind: u64) -> u64 {
        self.key_base | ((stage as u64) << 1) | kind
    }

    fn start_stage<M: FabricModel, S: TelemetrySink>(&mut self, sim: &mut Simulation<M, S>) {
        loop {
            if self.stage_idx >= self.plan.stages.len() {
                let at = sim.now();
                self.finished_at = Some(at);
                self.events
                    .push(ConnEvent::JobCompleted { app: self.app, at });
                return;
            }
            let st = self.plan.stages[self.stage_idx].clone();
            let now = sim.now();
            let has_comm = !st
                .pattern
                .transfers(self.nodes.len(), st.comm_bytes)
                .is_empty();

            self.compute_done = st.compute_secs <= 0.0;
            self.flows_launched = !has_comm;
            self.outstanding = 0;

            if st.compute_secs > 0.0 {
                if let Some(tr) = &mut self.cpu_busy {
                    tr.push((now, now + st.compute_secs));
                }
                sim.schedule(
                    now + st.compute_secs,
                    self.timer_key(self.stage_idx, KIND_COMPUTE_DONE),
                );
            }
            if has_comm {
                let delay = st.compute_secs * (1.0 - st.overlap);
                if delay > 0.0 {
                    sim.schedule(
                        now + delay,
                        self.timer_key(self.stage_idx, KIND_START_FLOWS),
                    );
                } else {
                    self.launch_flows(sim);
                }
            }

            if self.compute_done && self.flows_launched && self.outstanding == 0 {
                // Empty stage: advance immediately (loop rather than recurse).
                self.stage_idx += 1;
                continue;
            }
            return;
        }
    }

    fn launch_flows<M: FabricModel, S: TelemetrySink>(&mut self, sim: &mut Simulation<M, S>) {
        let st = self.plan.stages[self.stage_idx].clone();
        let transfers = st.pattern.transfers(self.nodes.len(), st.comm_bytes);
        self.flows_launched = true;
        // Overlapped transfers are paced across their window: producers
        // emit shuffle data as computation generates it, so the network
        // is continuously but moderately busy (Fig. 2b) instead of
        // bursting at line rate at the window's start.
        let window = st.compute_secs * st.overlap;
        // The per-node pipelining floor is split across the node's
        // concurrent flows of this stage.
        let floor_rate = if self.pipeline_floor {
            st.min_node_rate
        } else {
            0.0
        };
        let mut sends_per_node: HashMap<usize, usize> = HashMap::new();
        if floor_rate > 0.0 {
            for &(si, di, _) in &transfers {
                if self.nodes[si] != self.nodes[di] {
                    *sends_per_node.entry(si).or_insert(0) += 1;
                }
            }
        }
        for (si, di, bytes) in transfers {
            let (src, dst) = (self.nodes[si], self.nodes[di]);
            if src == dst {
                continue;
            }
            let tag = (u64::from(self.app.0) << 32) | self.next_tag;
            self.next_tag += 1;
            let min_rate = if floor_rate > 0.0 {
                floor_rate / sends_per_node[&si] as f64
            } else {
                0.0
            };
            let rate_cap = if window > 0.0 {
                bytes / window
            } else {
                f64::INFINITY
            };
            sim.start_flow(FlowSpec {
                src,
                dst,
                bytes,
                sl: self.sl,
                app: self.app,
                tag,
                rate_cap,
                min_rate,
            });
            self.outstanding += 1;
            self.events.push(ConnEvent::Created {
                app: self.app,
                src,
                dst,
                tag,
            });
        }
        if self.outstanding > 0 {
            self.coflows.push(CoflowRecord {
                stage: self.stage_idx,
                started_at: sim.now(),
                fcts: Vec::new(),
                completed_at: None,
            });
        }
        self.check_stage_done(sim);
    }

    fn check_stage_done<M: FabricModel, S: TelemetrySink>(&mut self, sim: &mut Simulation<M, S>) {
        if self.finished_at.is_none()
            && self.compute_done
            && self.flows_launched
            && self.outstanding == 0
        {
            self.stage_idx += 1;
            self.start_stage(sim);
        }
    }
}

/// Runs `jobs` to completion on `sim`, invoking `on_conn` for every
/// connection-lifecycle event (registration is the caller's business —
/// it happens before this loop, as in Fig. 7 step ①).
///
/// Returns per-job completion times (aligned with `jobs`).
///
/// # Panics
///
/// Panics if two jobs share an [`AppId`] or a timer `key_base`, or if a
/// timer fires whose key belongs to no job (use [`run_jobs_with`] to
/// co-schedule non-job timers such as fault injections).
pub fn run_jobs<M, S, F>(
    sim: &mut Simulation<M, S>,
    jobs: &mut [JobRuntime],
    on_conn: F,
) -> Result<Vec<f64>, RunError>
where
    M: FabricModel,
    S: TelemetrySink,
    F: FnMut(&mut Simulation<M, S>, &ConnEvent),
{
    run_jobs_with(sim, jobs, on_conn, |_, key, _| {
        panic!("timer key {key:#x} belongs to no job")
    })
}

/// [`run_jobs`] with a handler for timers owned by the *driver* rather
/// than any job — the hook a fault injector uses to act at scheduled
/// simulation times (fail a link, crash the controller) from inside the
/// same event loop.
///
/// `on_foreign` receives `(sim, key, at)` for every timer no job owns.
///
/// # Panics
///
/// Panics if two jobs share an [`AppId`] or a timer `key_base`.
pub fn run_jobs_with<M, S, F, G>(
    sim: &mut Simulation<M, S>,
    jobs: &mut [JobRuntime],
    mut on_conn: F,
    mut on_foreign: G,
) -> Result<Vec<f64>, RunError>
where
    M: FabricModel,
    S: TelemetrySink,
    F: FnMut(&mut Simulation<M, S>, &ConnEvent),
    G: FnMut(&mut Simulation<M, S>, u64, f64),
{
    {
        let mut seen_apps = std::collections::HashSet::new();
        let mut seen_bases = std::collections::HashSet::new();
        for j in jobs.iter() {
            assert!(seen_apps.insert(j.app), "duplicate app id {}", j.app);
            assert!(seen_bases.insert(j.key_base), "duplicate timer key base");
        }
    }
    let app_to_idx: HashMap<AppId, usize> =
        jobs.iter().enumerate().map(|(i, j)| (j.app, i)).collect();

    macro_rules! drain {
        ($job:expr) => {
            for ev in $job.drain_events() {
                on_conn(sim, &ev);
            }
        };
    }

    for j in jobs.iter_mut() {
        j.begin(sim);
        drain!(j);
    }

    loop {
        match sim.next_event() {
            saba_sim::engine::Event::Timer { key, at } => {
                let mut handled = false;
                for j in jobs.iter_mut() {
                    if j.owns_key(key) {
                        j.on_timer(sim, key);
                        drain!(j);
                        handled = true;
                        break;
                    }
                }
                if !handled {
                    on_foreign(sim, key, at);
                }
            }
            saba_sim::engine::Event::FlowsCompleted { flows, .. } => {
                // Group completions by owning job, preserving batching.
                // Jobs are served in index order: their connection
                // events reach the controller in the order they are
                // drained, and a hash map's walk differs run to run.
                let mut by_job: BTreeMap<usize, Vec<CompletedFlow>> = BTreeMap::new();
                for f in flows {
                    let idx = *app_to_idx
                        .get(&f.spec.app)
                        .unwrap_or_else(|| panic!("flow for unknown app {}", f.spec.app));
                    by_job.entry(idx).or_default().push(f);
                }
                for (idx, batch) in by_job {
                    jobs[idx].on_flows_completed(sim, &batch);
                    drain!(jobs[idx]);
                }
            }
            saba_sim::engine::Event::Idle => break,
        }
    }

    if jobs.iter().all(|j| j.is_finished()) {
        Ok(jobs
            .iter()
            .map(|j| j.completion_time().expect("finished job has a time"))
            .collect())
    } else {
        Err(RunError::Stuck {
            unfinished: jobs
                .iter()
                .filter(|j| !j.is_finished())
                .map(|j| j.workload().to_string())
                .collect(),
            at: sim.now(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ShufflePattern;
    use crate::spec::{PlannedStage, ScalingLaw, StageSpec, WorkloadClass, WorkloadSpec};
    use saba_sim::engine::FairShareFabric;
    use saba_sim::topology::Topology;

    fn two_stage_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "toy".into(),
            class: WorkloadClass::Micro,
            dataset_desc: "toy".into(),
            stages: vec![
                StageSpec {
                    compute_secs: 2.0,
                    comm_bytes: 400.0,
                    pattern: ShufflePattern::AllToAll { fanout: 1 },
                    overlap: 0.0,
                    floor_scale: 1.0,
                },
                StageSpec {
                    compute_secs: 3.0,
                    comm_bytes: 0.0,
                    pattern: ShufflePattern::Ring,
                    overlap: 0.0,
                    floor_scale: 1.0,
                },
            ],
            scaling: ScalingLaw::ideal(),
            profile_nodes: 4,
            pipeline_floor: 0.0,
        }
    }

    fn sim4() -> Simulation<FairShareFabric> {
        Simulation::new(
            Topology::single_switch(4, 100.0),
            FairShareFabric::default(),
        )
    }

    #[test]
    fn single_job_matches_analytic_time() {
        let spec = two_stage_spec();
        let plan = spec.profile_plan();
        let expected = plan.analytic_completion(100.0);
        let mut sim = sim4();
        let nodes = sim.topo().servers().to_vec();
        let mut jobs = vec![JobRuntime::new(AppId(0), ServiceLevel(0), nodes, plan, 0)];
        let times = run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        assert!(
            (times[0] - expected).abs() < 1e-3,
            "sim {} vs analytic {expected}",
            times[0]
        );
        // Stage 1: 2 s compute + 100 B/node egress at 100 B/s = 1 s; stage 2: 3 s. Total 6 s.
        assert!((times[0] - 6.0).abs() < 1e-3);
    }

    #[test]
    fn conn_events_follow_fig7_lifecycle() {
        let spec = two_stage_spec();
        let plan = spec.profile_plan();
        let mut sim = sim4();
        let nodes = sim.topo().servers().to_vec();
        let mut jobs = vec![JobRuntime::new(AppId(3), ServiceLevel(1), nodes, plan, 0)];
        let mut created = 0;
        let mut destroyed = 0;
        let mut completed = 0;
        run_jobs(&mut sim, &mut jobs, |_, ev| match ev {
            ConnEvent::Created { .. } => created += 1,
            ConnEvent::Destroyed { .. } => destroyed += 1,
            ConnEvent::JobCompleted { .. } => completed += 1,
        })
        .unwrap();
        assert_eq!(created, 4, "fanout-1 all-to-all over 4 nodes");
        assert_eq!(created, destroyed);
        assert_eq!(completed, 1);
    }

    #[test]
    fn overlap_hides_communication() {
        let mk = |overlap: f64| {
            let spec = WorkloadSpec {
                name: "ov".into(),
                class: WorkloadClass::Micro,
                dataset_desc: "x".into(),
                stages: vec![StageSpec {
                    compute_secs: 10.0,
                    comm_bytes: 800.0, // 200 B/node egress = 2 s at 100 B/s.
                    pattern: ShufflePattern::AllToAll { fanout: 2 },
                    overlap,
                    floor_scale: 1.0,
                }],
                scaling: ScalingLaw::ideal(),
                profile_nodes: 4,
                pipeline_floor: 0.0,
            };
            let mut sim = sim4();
            let nodes = sim.topo().servers().to_vec();
            let mut jobs = vec![JobRuntime::new(
                AppId(0),
                ServiceLevel(0),
                nodes,
                spec.profile_plan(),
                0,
            )];
            run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap()[0]
        };
        // Serial: 10 + 2 = 12 s. Overlap 0.5: comm (2 s) hides in the 5 s window: 10 s.
        assert!((mk(0.0) - 12.0).abs() < 1e-3, "serial {}", mk(0.0));
        assert!((mk(0.5) - 10.0).abs() < 1e-3, "overlapped {}", mk(0.5));
    }

    #[test]
    fn two_jobs_share_bandwidth_and_both_finish() {
        let spec = two_stage_spec();
        let mut sim = sim4();
        let servers = sim.topo().servers().to_vec();
        // Both jobs span all four servers: their shuffles contend.
        let mut jobs = vec![
            JobRuntime::new(
                AppId(0),
                ServiceLevel(0),
                servers.clone(),
                spec.profile_plan(),
                0,
            ),
            JobRuntime::new(
                AppId(1),
                ServiceLevel(0),
                servers,
                spec.profile_plan(),
                1 << 32,
            ),
        ];
        let times = run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        // Comm phase is contended: 1 s solo becomes 2 s => 7 s total each.
        for t in &times {
            assert!((t - 7.0).abs() < 0.01, "time {t}");
        }
    }

    #[test]
    fn simultaneous_completions_reach_the_controller_in_job_order() {
        // Eight identical jobs over the same servers finish their
        // shuffles in one engine event. The controller hears of them
        // through `on_conn`, so the order of that stream — and with it
        // every weight decision and completion time downstream — must
        // not depend on a hash map's per-instance random state.
        let run = || {
            let spec = two_stage_spec();
            let mut sim = sim4();
            let servers = sim.topo().servers().to_vec();
            let mut jobs: Vec<JobRuntime> = (0..8u32)
                .map(|i| {
                    JobRuntime::new(
                        AppId(7 * i % 8),
                        ServiceLevel(0),
                        servers.clone(),
                        spec.profile_plan(),
                        u64::from(i) << 32,
                    )
                })
                .collect();
            let mut seen = Vec::new();
            let times = run_jobs(&mut sim, &mut jobs, |_, ev| seen.push(ev.clone())).unwrap();
            let bits: Vec<u64> = times.iter().map(|t| t.to_bits()).collect();
            (seen, bits)
        };
        let (first, first_times) = run();
        // Batches are served in job-index order, whatever the app ids.
        let destroyed: Vec<u32> = first
            .iter()
            .filter_map(|ev| match ev {
                ConnEvent::Destroyed { app, .. } => Some(app.0),
                _ => None,
            })
            .collect();
        let mut by_job: Vec<u32> = (0..8u32).flat_map(|i| [7 * i % 8; 4]).collect();
        assert_eq!(destroyed, by_job, "one batch of four per job, in job order");
        by_job.dedup();
        assert_eq!(by_job.len(), 8);
        for _ in 0..4 {
            let (again, again_times) = run();
            assert_eq!(first, again, "connection-event stream must repeat exactly");
            assert_eq!(
                first_times, again_times,
                "completion times must repeat bitwise"
            );
        }
    }

    #[test]
    fn cpu_trace_records_compute_phases() {
        let spec = two_stage_spec();
        let mut sim = sim4();
        let nodes = sim.topo().servers().to_vec();
        let mut job = JobRuntime::new(AppId(0), ServiceLevel(0), nodes, spec.profile_plan(), 0);
        job.enable_cpu_trace();
        let mut jobs = vec![job];
        run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        let busy = jobs[0].cpu_busy_intervals().unwrap();
        assert_eq!(busy.len(), 2);
        assert!((busy[0].1 - busy[0].0 - 2.0).abs() < 1e-9);
        assert!((busy[1].1 - busy[1].0 - 3.0).abs() < 1e-9);
        // Stage 2 compute starts after stage 1 comm (at 3 s).
        assert!((busy[1].0 - 3.0).abs() < 1e-3);
    }

    #[test]
    fn compute_only_job_never_touches_network() {
        let plan = JobPlan {
            workload: "cpu".into(),
            stages: vec![PlannedStage {
                compute_secs: 5.0,
                comm_bytes: 0.0,
                pattern: ShufflePattern::Ring,
                overlap: 0.0,
                min_node_rate: 0.0,
            }],
            nodes: 2,
        };
        let mut sim = sim4();
        let nodes = sim.topo().servers()[..2].to_vec();
        let mut jobs = vec![JobRuntime::new(AppId(0), ServiceLevel(0), nodes, plan, 0)];
        let times = run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        assert!((times[0] - 5.0).abs() < 1e-9);
        assert_eq!(sim.stats().flows_started, 0);
    }

    #[test]
    fn single_node_job_skips_comm() {
        let plan = JobPlan {
            workload: "one".into(),
            stages: vec![PlannedStage {
                compute_secs: 1.0,
                comm_bytes: 500.0,
                pattern: ShufflePattern::AllToAll { fanout: 2 },
                overlap: 0.0,
                min_node_rate: 0.0,
            }],
            nodes: 1,
        };
        let mut sim = sim4();
        let nodes = vec![sim.topo().servers()[0]];
        let mut jobs = vec![JobRuntime::new(AppId(0), ServiceLevel(0), nodes, plan, 0)];
        let times = run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        assert!((times[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coflow_records_track_stage_barriers() {
        let spec = two_stage_spec();
        let mut sim = sim4();
        let nodes = sim.topo().servers().to_vec();
        let mut jobs = vec![JobRuntime::new(
            AppId(0),
            ServiceLevel(0),
            nodes,
            spec.profile_plan(),
            0,
        )];
        run_jobs(&mut sim, &mut jobs, |_, _| {}).unwrap();
        // Only stage 0 communicates (stage 1 has 0 bytes).
        let recs = jobs[0].coflow_records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.stage, 0);
        assert_eq!(r.fcts.len(), 4, "fanout-1 all-to-all over 4 nodes");
        // CCT semantics: the coflow completes exactly when its slowest
        // constituent does, never earlier.
        assert_eq!(r.completed_at, r.max_fct());
        // Stage 0: 2 s compute then 1 s comm at 100 B/s.
        assert!((r.started_at - 2.0).abs() < 1e-6);
        assert!((r.cct().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "duplicate app id")]
    fn duplicate_apps_rejected() {
        let spec = two_stage_spec();
        let mut sim = sim4();
        let nodes = sim.topo().servers().to_vec();
        let mut jobs = vec![
            JobRuntime::new(
                AppId(0),
                ServiceLevel(0),
                nodes.clone(),
                spec.profile_plan(),
                0,
            ),
            JobRuntime::new(
                AppId(0),
                ServiceLevel(0),
                nodes,
                spec.profile_plan(),
                1 << 32,
            ),
        ];
        let _ = run_jobs(&mut sim, &mut jobs, |_, _| {});
    }
}
