//! The logical-clock driver of the service front.
//!
//! [`AllocationService`] drives [`crate::front::Front`] on a clock the
//! caller advances ([`AllocationService::tick`]) and hands batches to
//! shards it owns by direct call. Everything is deterministic: the
//! same envelope sequence and the same `tick` schedule produce
//! byte-identical telemetry exports, which is what `tests/failover.rs`
//! and the conformance `obs` suite assert. This is the form the drills
//! and differential tests drive;
//! [`crate::runtime`] drives the same front on wall time.

pub use crate::front::{FailoverReport, ServiceConfig, ServiceStats};
use crate::front::{Front, Route};
use crate::shard::{Shard, ShardMap, ShardSpec};
use saba_core::controller::SwitchUpdate;
use saba_core::library::Transport;
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_telemetry::{Registry, SharedRecorder};
use std::cell::RefCell;
use std::rc::Rc;

/// What a response slot holds until [`AllocationService::serve`] fills
/// it.
const UNANSWERED: Response = Response::Error {
    code: ErrorCode::Internal,
    message: String::new(),
};

/// The in-process, logically-clocked allocation service.
pub struct AllocationService {
    front: Front<SharedRecorder>,
    shards: Vec<Shard>,
    clock: f64,
}

impl AllocationService {
    /// Opens (or re-opens) the service: one shard per configured slot,
    /// each replaying whatever its durable log already holds.
    pub fn open(spec: ShardSpec, cfg: ServiceConfig) -> std::io::Result<Self> {
        let front = Front::new(
            cfg.shards,
            cfg.heartbeat,
            cfg.admission,
            SharedRecorder::off(),
        )?;
        std::fs::create_dir_all(&cfg.log_dir)?;
        let shards = (0..cfg.shards)
            .map(|id| Ok(Shard::open(id, spec.clone(), &cfg.log_dir, cfg.sync_every)?.0))
            .collect::<std::io::Result<_>>()?;
        Ok(Self {
            front,
            shards,
            clock: 0.0,
        })
    }

    /// Attaches a telemetry recorder (propagated into every shard for
    /// its spans and epoch scopes).
    pub fn set_sink(&mut self, sink: SharedRecorder) {
        for shard in &mut self.shards {
            shard.set_sink(sink.clone());
        }
        self.front.sink = sink;
    }

    /// A snapshot of the metric registry (empty when no sink is
    /// attached). The `MetricsDump` RPC's exposition page is rendered
    /// from exactly this.
    pub fn metrics_registry(&self) -> Registry {
        let registry = self.front.sink.with(|rec| rec.registry.clone());
        registry.unwrap_or_default()
    }

    /// The tenant→shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.front.shard_map()
    }

    /// The shard owning tenant `app` (by the consistent map).
    pub fn shard_of(&self, app: u32) -> usize {
        self.shard_map().shard_of(saba_sim::ids::AppId(app))
    }

    /// Direct access to a shard (differential tests diff its
    /// programmed switch state against a from-scratch solve).
    pub fn shard(&self, id: usize) -> &Shard {
        &self.shards[id]
    }

    /// Current logical time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Submits one envelope at the current logical time.
    pub fn submit(&mut self, env: &Envelope) -> Response {
        let mut out = [UNANSWERED];
        self.serve(std::slice::from_ref(env), &mut out);
        let [resp] = out;
        resp
    }

    /// Submits a batch: the front admits or answers each envelope, the
    /// admitted ones are grouped per shard and handled under one group
    /// commit each, and responses come back in submission order.
    pub fn submit_batch(&mut self, envs: &[Envelope]) -> Vec<Response> {
        let mut out = vec![UNANSWERED; envs.len()];
        self.serve(envs, &mut out);
        out
    }

    /// [`Self::submit_batch`] into `out`, one slot per envelope: the
    /// front answers some, and every other one is routed to exactly
    /// one shard, which answers it.
    fn serve(&mut self, envs: &[Envelope], out: &mut [Response]) {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, env) in envs.iter().enumerate() {
            match self.front.admit(env, self.clock) {
                Route::Reply(resp) => out[i] = resp,
                Route::Shard(shard) => per_shard[shard].push(i),
            }
        }
        for (shard, work) in self.shards.iter_mut().zip(per_shard) {
            if work.is_empty() {
                continue;
            }
            let batch: Vec<Envelope> = work.iter().map(|&i| envs[i].clone()).collect();
            let before = shard.stats();
            let resps = shard.handle_batch(&batch);
            self.front.batch_done(shard, before);
            for (i, resp) in work.into_iter().zip(resps) {
                out[i] = resp;
            }
        }
        self.front.answered(envs, out, self.clock);
    }

    /// Kills a shard: its controller and unacked in-flight state are
    /// gone; only the durable log survives. The supervisor finds out
    /// the same way a real one would — the shard stops beating.
    pub fn kill_shard(&mut self, shard: usize) {
        self.shards[shard].kill();
        self.front.crashed(shard, self.clock);
    }

    /// Promotes a standby for `shard` in place: the same shard slot
    /// re-opens its log and replays it.
    fn fail_over(&mut self, shard: usize) -> std::io::Result<FailoverReport> {
        let takeover = self.shards[shard].take_over()?;
        let report = self
            .front
            .promoted(shard, self.clock, takeover, &self.shards);
        Ok(report)
    }

    /// Advances the logical clock: live shards beat, the front sweeps
    /// for missed windows, and every shard it newly declares dead gets
    /// an immediate standby takeover from its durable log. Returns
    /// completed failovers.
    pub fn tick(&mut self, now: f64) -> std::io::Result<Vec<FailoverReport>> {
        self.clock = now;
        for shard in &mut self.shards {
            shard.set_clock(now);
        }
        let alive = self.shards.iter().filter(|s| !s.is_dead()).map(|s| s.id);
        let dead = self.front.tick(now, alive, &self.shards);
        dead.into_iter().map(|s| self.fail_over(s)).collect()
    }

    /// Drains switch updates from every shard, in shard order.
    pub fn drain_updates(&mut self) -> Vec<SwitchUpdate> {
        let shards = self.shards.iter_mut();
        shards.flat_map(Shard::drain_updates).collect()
    }

    /// Aggregated counters.
    pub fn stats(&self) -> ServiceStats {
        self.front.stats(&self.shards)
    }
}

/// A [`Transport`] over a shared in-process service, so an unmodified
/// [`saba_core::library::SabaLib`] runs its Fig. 7 lifecycle against
/// the full service stack (admission, sharding, durable log).
///
/// Each call gets a fresh monotonic request id; retryable rejections
/// surface to the library as `LibError::Rejected` with a retryable
/// code — backoff policy belongs to the caller, who owns the clock.
#[derive(Clone)]
pub struct ServiceClient {
    svc: Rc<RefCell<AllocationService>>,
    next_id: u64,
}

impl ServiceClient {
    /// A client over `svc`, issuing request ids starting at `base_id`.
    /// Give each client a disjoint id range (e.g. `app << 32`).
    pub fn new(svc: Rc<RefCell<AllocationService>>, base_id: u64) -> Self {
        Self {
            svc,
            next_id: base_id,
        }
    }
}

impl Transport for ServiceClient {
    fn call(&mut self, req: Request) -> Response {
        let env = Envelope::new(self.next_id, req);
        self.next_id += 1;
        self.svc.borrow_mut().submit(&env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Flavour;
    use saba_core::controller::ControllerConfig;
    use saba_core::library::SabaLib;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_core::sensitivity::SensitivityTable;
    use saba_sim::ids::AppId;
    use saba_sim::topology::Topology;
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

    fn spec() -> ShardSpec {
        ShardSpec {
            cfg: ControllerConfig::default(),
            table: table(),
            topo: Topology::single_switch(8, 100.0),
            flavour: Flavour::Central,
        }
    }

    fn fresh_cfg(name: &str) -> ServiceConfig {
        let dir = std::env::temp_dir().join(format!("saba-svc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServiceConfig::new(dir)
    }

    fn env(id: u64, request: Request) -> Envelope {
        Envelope::new(id, request)
    }

    #[test]
    fn batch_responses_come_back_in_submission_order() {
        let mut svc = AllocationService::open(spec(), fresh_cfg("order")).unwrap();
        let servers = svc.shard(0).spec().topo.servers().to_vec();
        // Tenants chosen to land on different shards; interleaved.
        let envs: Vec<Envelope> = (0..16u32)
            .map(|i| {
                env(
                    i as u64,
                    Request::AppRegister {
                        app: AppId(i),
                        workload: "LR".into(),
                    },
                )
            })
            .collect();
        let resps = svc.submit_batch(&envs);
        assert_eq!(resps.len(), 16);
        assert!(resps
            .iter()
            .all(|r| matches!(r, Response::Registered { .. })));
        let create = svc.submit(&env(
            100,
            Request::ConnCreate {
                app: AppId(3),
                src: servers[0],
                dst: servers[1],
                tag: 1,
            },
        ));
        assert_eq!(create, Response::Ack);
        assert_eq!(svc.stats().registrations_acked, 16);
    }

    #[test]
    fn killed_shard_fails_over_within_the_window_and_loses_nothing() {
        let mut svc = AllocationService::open(spec(), fresh_cfg("failover")).unwrap();
        let servers = svc.shard(0).spec().topo.servers().to_vec();
        svc.submit_batch(&[
            env(
                1,
                Request::AppRegister {
                    app: AppId(0),
                    workload: "LR".into(),
                },
            ),
            env(
                2,
                Request::ConnCreate {
                    app: AppId(0),
                    src: servers[0],
                    dst: servers[1],
                    tag: 7,
                },
            ),
        ]);
        let victim = svc.shard_of(0);
        // Heartbeats run a while, then the shard dies at t=5.
        for i in 0..10 {
            assert!(svc.tick(i as f64 * 0.5).unwrap().is_empty());
        }
        svc.kill_shard(victim);
        // While dead, requests bounce retryably.
        let r = svc.submit(&env(
            3,
            Request::ConnDestroy {
                app: AppId(0),
                tag: 7,
            },
        ));
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::FailingOver,
                    ..
                }
            ),
            "{r:?}"
        );
        // The supervisor detects the death within the window (+ one
        // beat of scan granularity) and the standby replays the log.
        let window = ServiceConfig::new("").heartbeat.window;
        let mut reports = Vec::new();
        let mut t = 5.0;
        while reports.is_empty() && t < 20.0 {
            t += 0.5;
            reports = svc.tick(t).unwrap();
        }
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].shard, victim);
        assert!(
            reports[0].detected_at - 5.0 <= window + 0.5 + 1e-9,
            "detected at {} for a t=5 death, window {window}",
            reports[0].detected_at
        );
        assert_eq!(reports[0].takeover.registrations, 1);
        assert_eq!(reports[0].takeover.live_conns, 1);
        // The acked state survived: the retried destroy now lands.
        let r = svc.submit(&env(
            3,
            Request::ConnDestroy {
                app: AppId(0),
                tag: 7,
            },
        ));
        assert_eq!(r, Response::Ack);
        assert_eq!(svc.stats().failovers, 1);
    }

    /// A create whose group commit failed is not acked, and its shard
    /// dies: the retry, under a new id, bounces until the supervisor
    /// fails the shard over, and the take-over left the shard holding
    /// exactly what its log replays.
    #[test]
    fn a_failed_sync_kills_the_shard_and_its_retry_is_acked_after_a_take_over() {
        let cfg = fresh_cfg("sync-fail");
        let mut svc = AllocationService::open(spec(), cfg.clone()).unwrap();
        let servers = svc.shard(0).spec().topo.servers().to_vec();
        let register = Request::AppRegister {
            app: AppId(0),
            workload: "LR".into(),
        };
        assert!(matches!(
            svc.submit(&env(1, register)),
            Response::Registered { .. }
        ));
        let create = Request::ConnCreate {
            app: AppId(0),
            src: servers[0],
            dst: servers[1],
            tag: 7,
        };
        let s = svc.shard_of(0);
        svc.shards[s].fail_next_sync();
        let code = |r: Response| match r {
            Response::Error { code, .. } => Some(code),
            _ => None,
        };
        assert_eq!(
            code(svc.submit(&env(2, create.clone()))),
            Some(ErrorCode::Internal)
        );
        let retry = env(3, create);
        assert_eq!(code(svc.submit(&retry)), Some(ErrorCode::FailingOver));
        let mut t = 0.0;
        while svc.stats().failovers == 0 {
            t += 0.5;
            svc.tick(t).unwrap();
        }
        assert_eq!(svc.submit(&retry), Response::Ack);
        let log = std::fs::read(Shard::log_path(&cfg.log_dir, s)).unwrap();
        let records = crate::wal::scan(&log).records;
        assert_eq!(
            &crate::wal::ReplayState::replay(&records),
            svc.shard(s).state()
        );
        assert_eq!(svc.shard(s).state().live_conns.len(), 1);
    }

    #[test]
    fn saba_lib_runs_fig7_against_the_service() {
        let svc = Rc::new(RefCell::new(
            AllocationService::open(spec(), fresh_cfg("lib")).unwrap(),
        ));
        let servers = svc.borrow().shard(0).spec().topo.servers().to_vec();
        let mut lib = SabaLib::new(AppId(4), ServiceClient::new(svc.clone(), 4 << 32));
        let sl = lib.saba_app_register("LR").unwrap();
        let conn = lib.saba_conn_create(servers[0], servers[1]).unwrap();
        assert_eq!(lib.sl(), Some(sl));
        lib.saba_conn_destroy(conn).unwrap();
        lib.saba_app_deregister().unwrap();
        assert_eq!(svc.borrow().stats().registrations_acked, 1);
    }
}
