//! The sharded service tier.
//!
//! Tenants (applications) are consistently assigned to shards by a
//! seeded hash ([`ShardMap`]); each [`Shard`] owns one
//! incremental-epoch controller (a [`ControllerHandle`] of either
//! flavour), its own durable registration log, and a request-id dedup
//! cache. A shard is the unit of failure: killing one loses its
//! in-memory controller, and a standby rebuilds it by replaying the
//! durable log — the log is the only recovery state there is.

use crate::wal::{DurableLog, ReplayState, ScanReport};
use saba_core::controller::epoch::EpochStats;
pub use saba_core::controller::Flavour;
use saba_core::controller::{ControllerConfig, ControllerError, ControllerHandle, SwitchUpdate};
use saba_core::fabric::PortQueueConfig;
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::{AppId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_telemetry::span::TraceContext;
use saba_telemetry::{EventKind, NullSink, Registry, SharedRecorder, TelemetrySink};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// Everything needed to (re)build a shard's controller from scratch:
/// the profile table, the fabric, the allocation config, the flavour.
#[derive(Clone)]
pub struct ShardSpec {
    /// Allocation configuration shared by all shards.
    pub cfg: ControllerConfig,
    /// The offline sensitivity table.
    pub table: SensitivityTable,
    /// The fabric every shard programs (its tenant-partition slice).
    pub topo: Topology,
    /// Controller flavour each shard drives (for
    /// [`Flavour::Distributed`], the count is the controller's own
    /// link-partitioned inner shards).
    pub flavour: Flavour,
}

impl ShardSpec {
    fn build_controller(&self) -> ControllerHandle {
        ControllerHandle::new(self.flavour, self.cfg.clone(), &self.table, &self.topo)
    }

    /// A from-scratch solve over a logged history: a fresh controller
    /// replays `records` — registers, connection churn, *and*
    /// deregisters — in log order, then performs one full recompute.
    /// This is the differential oracle the failover drill compares a
    /// shard's accumulated switch state against.
    ///
    /// The full sequence matters: the central flavour's PL assigner is
    /// an *online* clusterer, so its assignments depend on the whole
    /// register/deregister history, not just the live set. Replaying
    /// only live registrations would diverge from any controller that
    /// lived through tenant departures.
    pub fn scratch_solve(&self, records: &[Request]) -> Vec<SwitchUpdate> {
        let mut fresh = self.build_controller();
        for req in records {
            drive(&mut fresh, req, 0.0, &mut NullSink).expect("replay of an acked record");
        }
        fresh.recompute_all()
    }
}

/// Applies one loggable operation to `ctrl`: the one place a request
/// becomes a controller call, for live requests and log replay alike.
/// A registration returns the Service Level it was given; everything
/// else runs an allocation epoch, whose scope is traced into `sink` at
/// logical time `t`, and returns its switch updates.
fn drive<S: TelemetrySink>(
    ctrl: &mut ControllerHandle,
    req: &Request,
    t: f64,
    sink: &mut S,
) -> Result<(Vec<SwitchUpdate>, Option<ServiceLevel>), ControllerError> {
    let updates = match req {
        Request::AppRegister { app, workload } => {
            return ctrl
                .register(*app, workload)
                .map(|sl| (Vec::new(), Some(sl)));
        }
        Request::ConnCreate { app, src, dst, tag } => ctrl.conn_create(*app, *src, *dst, *tag)?,
        Request::ConnDestroy { app, tag } => ctrl.conn_destroy(*app, *tag)?,
        Request::AppDeregister { app } => ctrl.deregister(*app)?,
        // Scrapes are never logged (the shard rejects them pre-append),
        // but an old log must not wedge replay.
        Request::MetricsDump => return Ok((Vec::new(), None)),
    };
    ctrl.record_epoch(t, sink);
    Ok((updates, None))
}

/// Consistent tenant→shard assignment.
///
/// A seeded splitmix64 of the tenant id: stable across restarts (the
/// standby must own exactly the tenants whose log it replays),
/// uniform, and independent of registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    seed: u64,
}

impl ShardMap {
    /// A map over `shards` shards (`>= 1`).
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self { shards, seed }
    }

    /// The shard that owns tenant `app`.
    pub fn shard_of(&self, app: AppId) -> usize {
        let mut z = (app.0 as u64) ^ self.seed;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z % self.shards as u64) as usize
    }
}

/// Per-shard counters.
///
/// The two ack counters move only for a batch whose sync succeeded, by
/// its `Registered` replies to `AppRegister` and `Ack` replies to
/// `ConnCreate`: a lost-ack re-ack counts, a dedup-cache hit does not
/// (it counts in `dedup_hits`). The cache dies with a shard, so a
/// retry that reaches a taken-over shard is re-acked and counts again,
/// until request ids are logged (ROADMAP 8a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Registrations acked (made durable) by this shard incarnation.
    pub registrations_acked: u64,
    /// Connection creates acked (made durable).
    pub conn_creates_acked: u64,
    /// Requests absorbed by the request-id dedup cache.
    pub dedup_hits: u64,
    /// Requests rejected with a fatal error code.
    pub fatal_rejections: u64,
    /// Requests rejected retryably (dead shard).
    pub retryable_rejections: u64,
    /// Log compactions performed.
    pub compactions: u64,
}

/// One shard: a controller, its durable log, and its dedup cache.
pub struct Shard {
    /// The shard index.
    pub id: usize,
    spec: ShardSpec,
    /// `None` while dead (killed, awaiting standby takeover).
    ctrl: Option<ControllerHandle>,
    log: DurableLog,
    /// Mirror of the logged state (validation + compaction source).
    state: ReplayState,
    /// Request-id → cached response (idempotent retry absorption).
    seen: HashMap<u64, Response>,
    /// Switch state accumulated from every update this shard emitted
    /// (the failover differential diffs this against a scratch solve).
    programmed: BTreeMap<u32, PortQueueConfig>,
    /// Log records at the last compaction (compaction trigger).
    appended_at_compaction: u64,
    sync_every: usize,
    stats: ShardStats,
    clock: f64,
    sink: SharedRecorder,
    /// Monotonic salt deriving per-envelope child span ids — a pure
    /// function of the applied-envelope sequence, so identically-seeded
    /// runs mint identical span ids.
    span_salt: u64,
}

// A shard moves to whichever thread leads it (`crate::runtime`).
const _: () = {
    const fn send<T: Send>() {}
    send::<Shard>()
};

/// Salt deriving the `controller.epoch` span under a shard span.
const EPOCH_SPAN_SALT: u64 = 0xE90C;

/// Log growth, in records since the last compaction, at which
/// [`Shard::handle_batch`] compacts the log.
const COMPACT_EVERY: u64 = 4096;

/// What a standby found when it took over from the durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TakeoverReport {
    /// Intact records replayed.
    pub records: usize,
    /// Torn/corrupt tail bytes discarded.
    pub torn_bytes: usize,
    /// Registrations live after replay.
    pub registrations: usize,
    /// Connections live after replay.
    pub live_conns: usize,
}

impl Shard {
    /// Opens shard `id`, replaying whatever its durable log holds (an
    /// empty log is a fresh shard; a populated one is a takeover).
    ///
    /// # Errors
    ///
    /// The log's I/O errors, and [`std::io::ErrorKind::InvalidData`]
    /// when the controller refuses a logged record (say, a log naming a
    /// workload `spec`'s table lacks).
    pub fn open(
        id: usize,
        spec: ShardSpec,
        log_dir: &Path,
        sync_every: usize,
    ) -> std::io::Result<(Self, TakeoverReport)> {
        let (log, scan) = DurableLog::open(&Self::log_path(log_dir, id), sync_every)?;
        let mut shard = Self {
            id,
            ctrl: None,
            spec,
            log,
            state: ReplayState::default(),
            seen: HashMap::new(),
            programmed: BTreeMap::new(),
            appended_at_compaction: 0,
            sync_every,
            stats: ShardStats::default(),
            clock: 0.0,
            sink: SharedRecorder::default(),
            span_salt: 0,
        };
        let report = shard.rebuild(&scan)?;
        Ok((shard, report))
    }

    /// The log file a shard id maps to inside `log_dir`.
    pub fn log_path(log_dir: &Path, id: usize) -> PathBuf {
        log_dir.join(format!("shard-{id}.log"))
    }

    /// Builds a fresh controller and replays the raw logged sequence —
    /// registers, churn, *and* deregisters — through it, after
    /// dropping every in-memory structure the log does not back. The
    /// one recovery path: [`Self::open`] and [`Self::take_over`] both
    /// end here. History order matters: the central flavour's online
    /// PL assigner is history-dependent, so a standby fed only the
    /// live state would hand recovered tenants different service
    /// levels than they were acked with. A record the controller
    /// refuses is [`std::io::ErrorKind::InvalidData`] naming it, and
    /// leaves the shard dead.
    fn rebuild(&mut self, scan: &ScanReport) -> std::io::Result<TakeoverReport> {
        self.ctrl = None;
        let mut ctrl = self.spec.build_controller();
        self.programmed.clear();
        self.seen.clear();
        self.appended_at_compaction = 0;
        self.state = ReplayState::default();
        for (k, req) in scan.records.iter().enumerate() {
            let (updates, _) = drive(&mut ctrl, req, self.clock, &mut self.sink).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shard {}: log record {k} does not replay: {e}", self.id),
                )
            })?;
            self.absorb_updates(updates);
            self.state.apply(req);
        }
        self.ctrl = Some(ctrl);
        Ok(TakeoverReport {
            records: scan.records.len(),
            torn_bytes: scan.torn_bytes,
            registrations: self.state.registrations.len(),
            live_conns: self.state.live_conns.len(),
        })
    }

    /// Attaches a telemetry recorder: the shard traces per-envelope
    /// spans and the scope of every controller epoch into it, on the
    /// live path and during a standby takeover's replay alike.
    pub fn set_sink(&mut self, sink: SharedRecorder) {
        self.sink = sink;
    }

    /// Counters of the live controller (all zero while the shard is
    /// dead — a takeover rebuilds them from replay).
    pub fn epoch_counters(&self) -> EpochStats {
        self.ctrl.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// True while a telemetry recorder is attached.
    pub fn traced(&self) -> bool {
        self.sink.is_on()
    }

    /// Sets the time stamped on trace events: the time of the calls
    /// whose batch the shard serves next.
    pub fn set_clock(&mut self, t: f64) {
        self.clock = t;
    }

    /// True while the shard has no live controller.
    pub fn is_dead(&self) -> bool {
        self.ctrl.is_none()
    }

    /// Counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The logged ground truth (registrations + live connections).
    pub fn state(&self) -> &ReplayState {
        &self.state
    }

    /// The switch state accumulated from this shard's emitted updates.
    pub fn programmed(&self) -> &BTreeMap<u32, PortQueueConfig> {
        &self.programmed
    }

    /// The shard's durable log.
    pub fn log(&self) -> &DurableLog {
        &self.log
    }

    /// The build spec (standby construction needs it).
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Kills the shard: the controller and every in-memory structure
    /// except the durable log are lost, mid-flight unacked operations
    /// with them. The dedup cache dies too — by design, replayed
    /// requests after takeover re-apply against the replayed state.
    pub fn kill(&mut self) {
        self.ctrl = None;
        self.seen.clear();
    }

    /// Standby takeover: reopen the durable log (truncating any torn
    /// tail) and rebuild from it. Returns what the replay found; the
    /// re-derived switch programs land in [`Self::programmed`].
    ///
    /// # Errors
    ///
    /// As [`Self::open`]; the shard stays dead.
    pub fn take_over(&mut self) -> std::io::Result<TakeoverReport> {
        let (log, scan) = DurableLog::open(self.log.path(), self.sync_every)?;
        std::mem::replace(&mut self.log, log).discard();
        self.rebuild(&scan)
    }

    /// Handles a batch of envelopes with **group commit**: every
    /// accepted operation is appended to the log, one `sync` makes the
    /// whole batch durable, and only then are the responses returned.
    /// A response in the returned vector is therefore a durable ack,
    /// and only then are its acks counted.
    ///
    /// A batch whose sync or append failed acks nothing, and kills the
    /// shard: its controller and [`Self::state`] already hold what the
    /// log may lack, so a retry would be acked for a record the log
    /// does not have. The takeover rebuilds both from the log alone.
    pub fn handle_batch(&mut self, batch: &[Envelope]) -> Vec<Response> {
        let alive = !self.is_dead();
        let (mut registrations, mut creates) = (0, 0);
        let mut out = Vec::with_capacity(batch.len());
        for env in batch {
            if let Some(cached) = self.seen.get(&env.request_id) {
                self.stats.dedup_hits += 1;
                out.push(cached.clone());
                continue;
            }
            let resp = self.apply(env);
            match (&env.request, &resp) {
                (Request::AppRegister { .. }, Response::Registered { .. }) => registrations += 1,
                (Request::ConnCreate { .. }, Response::Ack) => creates += 1,
                _ => {}
            }
            out.push(resp);
        }
        // `apply` kills the shard on a failed append. A dead shard
        // answered `FailingOver` and appended nothing: its log is the
        // take-over's.
        if alive && (self.is_dead() || self.log.sync().is_err()) {
            self.kill();
            out.fill(Response::Error {
                code: ErrorCode::Internal,
                message: format!("shard {}: durable log write failed", self.id),
            });
        } else if alive {
            self.stats.registrations_acked += registrations;
            self.stats.conn_creates_acked += creates;
            // The batch is durable; a failed compaction leaves the
            // longer log in place and the next batch tries again.
            let _ = self.maybe_compact(COMPACT_EVERY);
        }
        out
    }

    /// Publishes the durable log's progress into `registry`: the
    /// group-commit sizes drained since the last call, and the
    /// records / bytes / fsyncs totals of this incarnation, with the
    /// fsyncs that also had to commit a longer file (every other one
    /// flushed data only).
    pub fn publish_wal(&mut self, registry: &mut Registry) {
        let id = self.id;
        let groups = self.log.take_group_sizes();
        if groups.count() > 0 {
            registry.merge_histogram(&format!("wal.group_commit_size/shard={id}"), &groups);
        }
        for (family, total) in [
            ("wal.bytes_appended", self.log.bytes_appended()),
            ("wal.records_appended", self.log.appended()),
            ("wal.fsyncs", self.log.syncs()),
            ("wal.reserve_grows", self.log.reserve_grows()),
        ] {
            registry.set_gauge(&format!("{family}/shard={id}"), total as f64);
        }
    }

    /// Applies one envelope the dedup cache does not answer (no sync —
    /// [`Self::handle_batch`] batch-syncs).
    fn apply(&mut self, env: &Envelope) -> Response {
        // Dedup replays never get here, so never mint a span: the
        // original apply already did, and a replayed ack does no new
        // work.
        let ctx = env.ctx().child(self.span_salt);
        self.span_salt += 1;
        let resp = self.apply_fresh(ctx, &env.request);
        if self.sink.enabled() {
            let tenant = env.request.tenant().map_or(0, |app| app.0);
            let ok = !matches!(&resp, Response::Error { .. });
            self.span_event(ctx, &format!("rpc.{}", env.request.op()), tenant, ok);
        }
        // Cache only definitive outcomes: a retryable rejection must
        // re-evaluate on retry, not replay from the cache.
        let cache = match &resp {
            Response::Error { code, .. } => !code.is_retryable(),
            _ => true,
        };
        if cache {
            self.seen.insert(env.request_id, resp.clone());
        }
        match &resp {
            Response::Error { code, .. } if code.is_retryable() => {
                self.stats.retryable_rejections += 1
            }
            Response::Error { .. } => self.stats.fatal_rejections += 1,
            _ => {}
        }
        resp
    }

    /// Emits one `span` event at the batch's time ([`Self::set_clock`];
    /// the runtime's wall-clock latencies live under `wall.*` metric
    /// names instead).
    fn span_event(&mut self, ctx: TraceContext, op: &str, tenant: u32, ok: bool) {
        if self.sink.enabled() {
            let t = self.clock;
            self.sink.record(
                t,
                EventKind::Span {
                    trace: ctx.trace_id,
                    span: ctx.span_id,
                    parent: ctx.parent_id,
                    op: op.to_string(),
                    tenant,
                    shard: self.id as i64,
                    ok,
                    dur: 0.0,
                },
            );
        }
    }

    fn apply_fresh(&mut self, ctx: TraceContext, req: &Request) -> Response {
        let Some(ctrl) = self.ctrl.as_mut() else {
            return Response::Error {
                code: ErrorCode::FailingOver,
                message: format!("shard {} is down, standby taking over", self.id),
            };
        };
        let state = &self.state;
        let workload_of = |app: &AppId| state.registrations.iter().find(|(a, _)| a == app);
        let unknown_app = |app: &AppId| Response::Error {
            code: ErrorCode::UnknownApp,
            message: format!("application {} is not registered here", app.0),
        };
        // What the logged state already answers, without touching the
        // controller or the log: lost-ack retries repeat their ack,
        // conflicts and unknown names are rejected.
        match req {
            Request::AppRegister { app, workload } => {
                // Idempotent retry: the dedup cache dies with a shard,
                // so a re-sent register whose original was applied and
                // logged must repeat the original ack, not reject. A
                // conflicting workload is a real duplicate.
                if let Some((_, wl)) = workload_of(app) {
                    return if wl != workload {
                        Response::Error {
                            code: ErrorCode::AlreadyRegistered,
                            message: format!(
                                "application {} is already registered as {wl:?}",
                                app.0
                            ),
                        }
                    } else if let Some(sl) = ctrl.sl_of(*app) {
                        Response::Registered { sl }
                    } else {
                        // The log and the controller disagree: a bug,
                        // but this caller gets an answer, not a panic.
                        Response::Error {
                            code: ErrorCode::Internal,
                            message: format!(
                                "shard {}: logged tenant {} has no service level",
                                self.id, app.0
                            ),
                        }
                    };
                }
            }
            Request::ConnCreate { app, src, dst, tag } => {
                if workload_of(app).is_none() {
                    return unknown_app(app);
                }
                if let Some(&(src0, dst0)) = state.live_conns.get(&(*app, *tag)) {
                    // Same endpoints → a lost-ack retry of an applied
                    // create; repeat the ack. Different endpoints → a
                    // genuine tag collision.
                    return if (src0, dst0) == (*src, *dst) {
                        Response::Ack
                    } else {
                        Response::Error {
                            code: ErrorCode::Malformed,
                            message: format!("connection tag {tag} is already live"),
                        }
                    };
                }
            }
            Request::ConnDestroy { app, tag } => {
                if !state.live_conns.contains_key(&(*app, *tag)) {
                    // Destroy is an idempotent delete for a registered
                    // tenant (per-tenant submission order means a
                    // missing connection was already destroyed — e.g.
                    // a lost-ack retry). An unregistered tenant has no
                    // connections to be idempotent about.
                    return if workload_of(app).is_some() {
                        Response::Ack
                    } else {
                        Response::Error {
                            code: ErrorCode::UnknownConnection,
                            message: format!("unknown connection {tag}"),
                        }
                    };
                }
            }
            Request::AppDeregister { app } => {
                if workload_of(app).is_none() {
                    return unknown_app(app);
                }
            }
            // The service tier answers this from its registry before
            // shard routing; a shard receiving one is a protocol bug.
            Request::MetricsDump => {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: "metrics dump is not a shard operation".into(),
                };
            }
        }
        let (updates, sl) = match drive(ctrl, req, self.clock, &mut self.sink) {
            Ok(driven) => driven,
            Err(e) => return Response::from_controller_error(&e),
        };
        let ack = match sl {
            Some(sl) => Response::Registered { sl },
            None => {
                let tenant = req.tenant().map_or(0, |app| app.0);
                self.span_event(ctx.child(EPOCH_SPAN_SALT), "controller.epoch", tenant, true);
                Response::Ack
            }
        };
        if let Err(e) = self.log.append(req) {
            self.kill();
            return Response::Error {
                code: ErrorCode::Internal,
                message: format!("log append failed: {e}"),
            };
        }
        self.absorb_updates(updates);
        self.state.apply(req);
        ack
    }

    fn absorb_updates(&mut self, updates: Vec<SwitchUpdate>) {
        for u in updates {
            self.programmed.insert(u.link.0, u.config);
        }
    }

    /// Compacts the log to a snapshot once the history is
    /// `threshold` records longer than the last compaction point.
    /// Returns true when a compaction ran.
    pub fn maybe_compact(&mut self, threshold: u64) -> std::io::Result<bool> {
        if self.log.appended() < self.appended_at_compaction + threshold {
            return Ok(false);
        }
        let state = self.state.clone();
        self.log.compact(&state)?;
        self.appended_at_compaction = self.log.appended();
        self.stats.compactions += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_core::profiler::{Profiler, ProfilerConfig};
    use saba_workload::catalog;

    impl Shard {
        /// Makes the next sync of the shard's log fail.
        pub(crate) fn fail_next_sync(&mut self) {
            self.log.fail_next_sync = true;
        }
    }

    fn spec(flavour: Flavour) -> ShardSpec {
        let table = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap();
        ShardSpec {
            cfg: ControllerConfig::default(),
            table,
            topo: Topology::single_switch(4, 100.0),
            flavour,
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("saba-shard-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn env(id: u64, req: Request) -> Envelope {
        Envelope::new(id, req)
    }

    #[test]
    fn shard_map_is_stable_and_covers_all_shards() {
        let map = ShardMap::new(4, 42);
        let mut hit = [false; 4];
        for app in 0..256u32 {
            let s = map.shard_of(AppId(app));
            assert_eq!(s, map.shard_of(AppId(app)), "assignment must be stable");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 tenants must cover 4 shards");
    }

    #[test]
    fn lifecycle_acks_are_durable_and_dedup_absorbs_retries() {
        let dir = tmpdir("lifecycle");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 8).unwrap();
        let servers = shard.spec().topo.servers().to_vec();

        let r = shard.handle_batch(&[
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
        assert!(matches!(r[0], Response::Registered { .. }));
        assert_eq!(r[1], Response::Ack);
        assert!(!shard.programmed().is_empty());

        // A retried envelope replays the cached ack without
        // re-applying (no duplicate link refs, no new log record).
        let appended = shard.log().appended();
        let r2 = shard.handle_batch(&[env(
            2,
            Request::ConnCreate {
                app: AppId(0),
                src: servers[0],
                dst: servers[1],
                tag: 7,
            },
        )]);
        assert_eq!(r2[0], Response::Ack);
        assert_eq!(shard.stats().dedup_hits, 1);
        assert_eq!(shard.log().appended(), appended);
    }

    /// A logged tenant the controller does not know is a bug; a
    /// re-sent registration of it is answered `Internal`, not by a
    /// panic on the request path.
    #[test]
    fn a_logged_tenant_the_controller_lacks_is_an_internal_error() {
        let dir = tmpdir("phantom");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 8).unwrap();
        shard.state.registrations.push((AppId(3), "LR".into()));
        let register = Request::AppRegister {
            app: AppId(3),
            workload: "LR".into(),
        };
        let r = shard.handle_batch(&[env(1, register)]);
        assert!(
            matches!(
                &r[0],
                Response::Error {
                    code: ErrorCode::Internal,
                    ..
                }
            ),
            "{r:?}"
        );
        assert_eq!(shard.log().appended(), 0, "nothing logged");
    }

    #[test]
    fn fatal_rejections_carry_fatal_codes_and_skip_the_log() {
        let dir = tmpdir("fatal");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 8).unwrap();
        let servers = shard.spec().topo.servers().to_vec();
        let r = shard.handle_batch(&[
            env(
                1,
                Request::AppRegister {
                    app: AppId(0),
                    workload: "Mystery".into(),
                },
            ),
            env(
                2,
                Request::ConnCreate {
                    app: AppId(9),
                    src: servers[0],
                    dst: servers[1],
                    tag: 1,
                },
            ),
            env(
                3,
                Request::ConnDestroy {
                    app: AppId(0),
                    tag: 99,
                },
            ),
            env(4, Request::AppDeregister { app: AppId(5) }),
        ]);
        for resp in &r {
            match resp {
                Response::Error { code, .. } => assert!(!code.is_retryable(), "{resp:?}"),
                other => panic!("expected fatal error, got {other:?}"),
            }
        }
        assert_eq!(shard.log().appended(), 0, "rejections must not be logged");
        assert_eq!(shard.stats().fatal_rejections, 4);
    }

    #[test]
    fn dead_shard_rejects_retryably_and_takeover_restores_state() {
        for flavour in [Flavour::Central, Flavour::Distributed(2)] {
            let dir = tmpdir(&format!("takeover-{flavour:?}"));
            let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
            let (mut shard, _) = Shard::open(0, spec(flavour), &dir, 1).unwrap();
            let servers = shard.spec().topo.servers().to_vec();
            shard.handle_batch(&[
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

            shard.kill();
            assert!(shard.is_dead());
            let r = shard.handle_batch(&[env(
                3,
                Request::ConnDestroy {
                    app: AppId(0),
                    tag: 7,
                },
            )]);
            match &r[0] {
                Response::Error { code, .. } => {
                    assert_eq!(*code, ErrorCode::FailingOver);
                    assert!(code.is_retryable());
                }
                other => panic!("expected retryable error, got {other:?}"),
            }

            let report = shard.take_over().unwrap();
            assert_eq!(report.registrations, 1);
            assert_eq!(report.live_conns, 1);
            assert_eq!(report.torn_bytes, 0);
            // The retried destroy now succeeds against replayed state.
            let r = shard.handle_batch(&[env(
                3,
                Request::ConnDestroy {
                    app: AppId(0),
                    tag: 7,
                },
            )]);
            assert_eq!(r[0], Response::Ack, "{flavour:?}");
        }
    }

    /// The lost-ack window: an operation is applied and logged, the
    /// worker dies before replying, and the client retries against the
    /// standby — whose dedup cache died with the worker. Register and
    /// create retries with identical parameters must repeat the
    /// original ack (same PL!) without duplicating state; destroys of
    /// an absent connection under a registered tenant are idempotent.
    #[test]
    fn lost_ack_retries_are_idempotent_after_takeover() {
        let dir = tmpdir("lost-ack");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 1).unwrap();
        let servers = shard.spec().topo.servers().to_vec();
        let reg = Request::AppRegister {
            app: AppId(0),
            workload: "LR".into(),
        };
        let create = Request::ConnCreate {
            app: AppId(0),
            src: servers[0],
            dst: servers[1],
            tag: 7,
        };
        let r = shard.handle_batch(&[env(1, reg.clone()), env(2, create.clone())]);
        let Response::Registered { sl } = r[0] else {
            panic!("registration must ack, got {:?}", r[0]);
        };

        shard.kill();
        shard.take_over().unwrap();
        let appended = shard.log().appended();
        // Retries arrive with FRESH ids (the dedup cache is gone and
        // cannot absorb them) — semantic idempotency must.
        let r = shard.handle_batch(&[env(10, reg), env(11, create)]);
        assert_eq!(r[0], Response::Registered { sl }, "same PL re-promised");
        assert_eq!(r[1], Response::Ack);
        assert_eq!(
            shard.log().appended(),
            appended,
            "idempotent retries must not re-log"
        );
        assert_eq!(shard.state().live_conns.len(), 1, "no duplicate state");

        // Destroy applied, ack lost, retried: second attempt is Ack.
        let destroy = Request::ConnDestroy {
            app: AppId(0),
            tag: 7,
        };
        assert_eq!(
            shard.handle_batch(&[env(12, destroy.clone())])[0],
            Response::Ack
        );
        assert_eq!(shard.handle_batch(&[env(13, destroy)])[0], Response::Ack);
        // But conflicting parameters are genuine duplicates, not retries.
        let r = shard.handle_batch(&[env(
            14,
            Request::AppRegister {
                app: AppId(0),
                workload: "RF".into(),
            },
        )]);
        match &r[0] {
            Response::Error { code, .. } => assert_eq!(*code, ErrorCode::AlreadyRegistered),
            other => panic!("conflicting re-register must reject, got {other:?}"),
        }
    }

    /// A log the controller cannot replay — it names a workload the
    /// spec's table lacks — fails the open with `InvalidData` naming
    /// the record and the refusal, instead of panicking the replay.
    #[test]
    fn a_logged_record_the_controller_refuses_fails_the_open() {
        let dir = tmpdir("refused");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 1).unwrap();
        let r = shard.handle_batch(&[env(
            1,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        )]);
        assert!(matches!(r[0], Response::Registered { .. }), "{r:?}");
        drop(shard);

        let mut without_lr = spec(Flavour::Central);
        let full = std::mem::replace(&mut without_lr.table, SensitivityTable::new());
        for model in full.iter().filter(|m| m.workload != "LR") {
            without_lr.table.insert(model.clone());
        }
        assert!(without_lr.table.get("LR").is_none());
        let Err(e) = Shard::open(0, without_lr, &dir, 1) else {
            panic!("a log naming a workload the table lacks must not open");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let message = e.to_string();
        assert!(message.contains("record 0"), "{message}");
        assert!(message.contains("\"LR\""), "{message}");
    }

    /// A standby's controller is rebuilt from the log and nothing else:
    /// a register retry repeats the SL the tenant was acked with, and
    /// the epoch counters are the replay's own — the same history on a
    /// fresh controller — however many incarnations came before.
    #[test]
    fn takeover_repeats_acked_sls_and_restarts_epoch_counters() {
        for flavour in [Flavour::Central, Flavour::Distributed(2)] {
            let dir = tmpdir(&format!("counters-{flavour:?}"));
            let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
            let (mut shard, _) = Shard::open(0, spec(flavour), &dir, 1).unwrap();
            let servers = shard.spec().topo.servers().to_vec();
            let register = |app: u32, workload: &str| Request::AppRegister {
                app: AppId(app),
                workload: workload.into(),
            };
            let create = |app: u32, tag: u64| Request::ConnCreate {
                app: AppId(app),
                src: servers[app as usize % 4],
                dst: servers[(app as usize + 1) % 4],
                tag,
            };
            // A departure between registrations makes the central
            // flavour's online PL assignment history-dependent.
            let script = [
                register(0, "LR"),
                register(1, "Sort"),
                create(0, 1),
                create(1, 2),
                Request::AppDeregister { app: AppId(0) },
                register(2, "PR"),
                create(2, 3),
                Request::ConnDestroy {
                    app: AppId(1),
                    tag: 2,
                },
            ];
            let acks: Vec<Response> = script
                .iter()
                .enumerate()
                .map(|(i, req)| shard.handle_batch(&[env(i as u64, req.clone())])[0].clone())
                .collect();
            let before = shard.epoch_counters();
            assert_eq!(before.registrations, 3, "{flavour:?}");
            assert_eq!((before.conns_created, before.conns_destroyed), (3, 1));

            for incarnation in 0..2 {
                shard.kill();
                assert_eq!(shard.epoch_counters(), EpochStats::default());
                shard.take_over().unwrap();
                assert_eq!(
                    shard.epoch_counters(),
                    before,
                    "{flavour:?} incarnation {incarnation}"
                );
            }
            // Fresh ids: the dedup cache died with the worker.
            for (app, i) in [(1, 1), (2, 5)] {
                let retry = shard.handle_batch(&[env(100 + i as u64, script[i].clone())]);
                assert_eq!(retry[0], acks[i], "{flavour:?} tenant {app}");
                assert!(matches!(retry[0], Response::Registered { .. }));
            }
        }
    }

    #[test]
    fn compaction_trigger_fires_and_preserves_state() {
        let dir = tmpdir("compact");
        let _ = std::fs::remove_file(Shard::log_path(&dir, 0));
        let (mut shard, _) = Shard::open(0, spec(Flavour::Central), &dir, 64).unwrap();
        let servers = shard.spec().topo.servers().to_vec();
        shard.handle_batch(&[env(
            0,
            Request::AppRegister {
                app: AppId(0),
                workload: "LR".into(),
            },
        )]);
        // 50 create/destroy pairs: history 101 records, live state 1.
        for i in 0..50u64 {
            shard.handle_batch(&[
                env(
                    1 + 2 * i,
                    Request::ConnCreate {
                        app: AppId(0),
                        src: servers[0],
                        dst: servers[1],
                        tag: i,
                    },
                ),
                env(
                    2 + 2 * i,
                    Request::ConnDestroy {
                        app: AppId(0),
                        tag: i,
                    },
                ),
            ]);
        }
        assert!(!shard.maybe_compact(1000).unwrap());
        assert!(shard.maybe_compact(100).unwrap());
        assert_eq!(shard.stats().compactions, 1);
        // A takeover from the compacted log sees the same state.
        let before = shard.state().clone();
        shard.kill();
        let report = shard.take_over().unwrap();
        assert_eq!(report.records, 1, "compacted to the single registration");
        assert_eq!(shard.state(), &before);
    }
}
