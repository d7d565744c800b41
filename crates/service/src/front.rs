//! The service front: one admit → route → batch → ack → promote core.
//!
//! [`Front`] owns everything about serving the Fig. 7 lifecycle that
//! does not depend on how time passes or how a batch reaches a shard:
//! the pre-admission `MetricsDump` answer, edge admission, tenant→shard
//! routing, request counting, the post-batch metrics and trace pass,
//! liveness (the [`Supervisor`]) and failover accounting. It reads no
//! clock, spawns no thread and opens no file: a driver passes `now` in
//! and executes what comes back — reply ([`Route::Reply`]), hand the
//! envelope to a shard ([`Route::Shard`]), promote the shards
//! [`Front::tick`] returns. [`crate::service::AllocationService`]
//! drives it on a caller-supplied logical clock with shards it calls
//! directly, and promotes what `tick` declares dead;
//! [`crate::runtime::ServiceRuntime`] on wall time, each shard run by
//! whichever caller finds it free, and promotes a shard when a call
//! finds it dead (it never ticks). The front holds no state it cannot
//! rebuild from the durable logs: counters restart, tenants do not.

use crate::admission::{Admission, Admit, TokenBucketCfg};
use crate::heartbeat::{HeartbeatConfig, Supervisor};
use crate::shard::{Shard, ShardMap, ShardStats, TakeoverReport};
use saba_core::rpc::{Envelope, ErrorCode, Response};
use saba_telemetry::{expose, EventKind, JsonValue, Registry, SharedRecorder, TelemetrySink};
use std::collections::HashMap;
use std::path::PathBuf;

/// Seed of the tenant→shard map. Fixed: a standby must own exactly
/// the tenants whose log it replays.
const MAP_SEED: u64 = 0x5aba;

/// `# TYPE` lines every post-churn scrape of either driver exposes.
pub const REQUIRED_FAMILIES: [&str; 6] = [
    "# TYPE service_requests_total counter",
    "# TYPE service_registrations_acked_total counter",
    "# TYPE service_metrics_dumps_total counter",
    "# TYPE wal_group_commit_size summary",
    "# TYPE wal_bytes_appended gauge",
    "# TYPE wal_reserve_grows gauge",
];

/// Counters that strictly grow from one scrape to the next.
pub const MONOTONE_COUNTERS: [&str; 2] = ["service_requests_total", "service_metrics_dumps_total"];

/// Deployment shape of the service, shared by both drivers.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards.
    pub shards: usize,
    /// Fsync batching: appends per forced sync (group commit bound).
    pub sync_every: usize,
    /// Per-tenant edge admission policy; `None` admits everything.
    pub admission: Option<TokenBucketCfg>,
    /// Heartbeat cadence and declare-dead window of the logical-clock
    /// driver (validated by both; the threaded driver finds a dead
    /// shard on its call path instead).
    pub heartbeat: HeartbeatConfig,
    /// Threaded driver: calls that may wait per shard while another
    /// runs it; one more is `ShardBusy`.
    pub queue_depth: usize,
    /// Threaded driver: most waiting calls a shard's leader takes into
    /// one group commit.
    pub batch_max: usize,
    /// Directory holding the per-shard durable logs.
    pub log_dir: PathBuf,
}

impl ServiceConfig {
    /// A config with service defaults, logging under `log_dir`.
    pub fn new(log_dir: impl Into<PathBuf>) -> Self {
        Self {
            shards: 4,
            sync_every: 32,
            admission: None,
            heartbeat: HeartbeatConfig::default(),
            queue_depth: 256,
            batch_max: 64,
            log_dir: log_dir.into(),
        }
    }
}

/// What one standby promotion did.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The shard that failed over.
    pub shard: usize,
    /// Driver-clock time of the promotion (the logical driver promotes
    /// in the tick that declares the death).
    pub detected_at: f64,
    /// What the standby's log replay found.
    pub takeover: TakeoverReport,
}

/// Aggregated service counters (front + all shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted past the edge.
    pub admitted: u64,
    /// Requests rejected by the edge rate limiter.
    pub rate_limited: u64,
    /// Registrations durably acked.
    pub registrations_acked: u64,
    /// Connection creates durably acked.
    pub conn_creates_acked: u64,
    /// Retries absorbed by shard dedup caches.
    pub dedup_hits: u64,
    /// Standby takeovers completed.
    pub failovers: u64,
    /// Log compactions across all shards.
    pub compactions: u64,
}

/// A telemetry sink whose metric registry the front can reach, to
/// render the exposition page and to let shards publish into it.
pub trait MetricsSink: TelemetrySink {
    /// Runs `f` on the registry; `None` when the sink keeps none.
    fn with_registry<R>(&mut self, f: impl FnOnce(&mut Registry) -> R) -> Option<R>;
}

impl MetricsSink for SharedRecorder {
    fn with_registry<R>(&mut self, f: impl FnOnce(&mut Registry) -> R) -> Option<R> {
        self.with(|rec| f(&mut rec.registry))
    }
}

impl MetricsSink for Registry {
    fn with_registry<R>(&mut self, f: impl FnOnce(&mut Registry) -> R) -> Option<R> {
        Some(f(self))
    }
}

/// What the driver does with an admitted-or-not envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// Answered at the front (scrape, rate limit): reply now.
    Reply(Response),
    /// Admitted: hand the envelope to this shard.
    Shard(usize),
}

/// The I/O-free front core (see the module docs).
pub struct Front<S> {
    /// Where every front-side metric and event lands. Drivers add
    /// their transport's own (`service.shard_busy`, `wall.*`) here.
    pub sink: S,
    map: ShardMap,
    admission: Admission,
    supervisor: Supervisor,
    failovers: u64,
    /// Per in-flight request id: when it was first submitted, and
    /// whether its root span is minted. An operation's SLO latency
    /// runs from there to its definitive response, spanning retries.
    /// Only maintained while the sink records events.
    first_seen: HashMap<u64, (f64, bool)>,
    requests: u64,
    snap_seq: u64,
    ticks: u64,
}

impl<S: MetricsSink> Front<S> {
    /// A front over `shards` shards, all presumed alive at time 0.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] naming the `heartbeat` or
    /// `admission` setting that cannot work.
    pub fn new(
        shards: usize,
        heartbeat: HeartbeatConfig,
        admission: Option<TokenBucketCfg>,
        sink: S,
    ) -> std::io::Result<Self> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        Ok(Self {
            sink,
            map: ShardMap::new(shards, MAP_SEED),
            admission: Admission::new(admission).map_err(|e| invalid(e.to_string()))?,
            supervisor: Supervisor::new(shards, heartbeat, 0.0)
                .map_err(|e| invalid(format!("heartbeat: {e}")))?,
            failovers: 0,
            first_seen: HashMap::new(),
            requests: 0,
            snap_seq: 0,
            ticks: 0,
        })
    }

    /// The tenant→shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Standby promotions so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The exposition page. Scrapes are read-only — never admitted,
    /// counted as requests, routed or spanned. The dump counter is
    /// bumped before rendering, so consecutive pages show it strictly
    /// increasing.
    pub fn dump_metrics(&mut self) -> Response {
        self.sink.inc("service.metrics_dumps", 1);
        // A sink that keeps no registry has nothing to expose.
        let text = self.sink.with_registry(|r| expose(r)).unwrap_or_default();
        Response::Metrics { text }
    }

    /// Admits one envelope at `now`: answers it here or names the
    /// shard that owns its tenant.
    pub fn admit(&mut self, env: &Envelope, now: f64) -> Route {
        let Some(tenant) = env.request.tenant() else {
            return Route::Reply(self.dump_metrics());
        };
        self.requests += 1;
        self.sink.inc("service.requests", 1);
        if self.sink.enabled() {
            self.first_seen
                .entry(env.request_id)
                .or_insert((now, false));
        }
        match self.admission.try_admit(tenant.0, now) {
            Admit::Ok => {
                self.sink.inc("service.admitted", 1);
                Route::Shard(self.map.shard_of(tenant))
            }
            Admit::RateLimited { retry_after } => {
                self.sink.inc("service.rate_limited", 1);
                Route::Reply(Response::Error {
                    code: ErrorCode::RateLimited,
                    message: format!(
                        "tenant {} over rate; retry after {retry_after:.6}s",
                        tenant.0
                    ),
                })
            }
        }
    }

    /// The per-shard pass after a batch was handled (and, on the
    /// threaded driver, acked): what the shard acked and compacted
    /// since `before`, its log's progress, its cache hit rate.
    pub fn batch_done(&mut self, shard: &mut Shard, before: ShardStats) {
        let after = shard.stats();
        self.sink.inc(
            "service.registrations_acked",
            after.registrations_acked - before.registrations_acked,
        );
        self.sink.inc(
            "service.conn_creates_acked",
            after.conn_creates_acked - before.conn_creates_acked,
        );
        if after.compactions > before.compactions {
            self.sink.inc(
                "service.compactions",
                after.compactions - before.compactions,
            );
        }
        self.sink.with_registry(|r| shard.publish_wal(r));
        if self.sink.enabled() {
            // The share of occupied-port visits that solved no Eq. 2
            // problem: memo hits plus single-member ports. A central
            // shard memoizes nothing, so there this reads how
            // uncontended the ports are, not how warm a cache is.
            if let Some(ratio) = shard.epoch_counters().solve_skip_ratio() {
                self.sink.gauge(
                    &format!("controller.solve_skip_ratio/shard={}", shard.id),
                    ratio,
                );
            }
        }
    }

    /// The trace pass over answered envelopes: one root `rpc.request`
    /// span per *first* submission of a request id (retries reuse the
    /// id and must not mint a duplicate), and one SLO latency sample
    /// per *definitive* response, measured from the id's first
    /// submission so a retried operation's latency covers the whole
    /// retry window.
    pub fn answered(&mut self, envs: &[Envelope], resps: &[Response], now: f64) {
        if !self.sink.enabled() {
            return;
        }
        for (env, resp) in envs.iter().zip(resps) {
            let Some(tenant) = env.request.tenant() else {
                continue;
            };
            let shard = self.map.shard_of(tenant);
            let Some(seen) = self.first_seen.get_mut(&env.request_id) else {
                continue;
            };
            let (t0, spanned) = (seen.0, std::mem::replace(&mut seen.1, true));
            if !spanned {
                let ctx = env.ctx();
                self.sink.record(
                    now,
                    EventKind::Span {
                        trace: ctx.trace_id,
                        span: ctx.span_id,
                        parent: ctx.parent_id,
                        op: "rpc.request".to_string(),
                        tenant: tenant.0,
                        shard: shard as i64,
                        ok: !matches!(resp, Response::Error { .. }),
                        dur: 0.0,
                    },
                );
            }
            if !matches!(resp, Response::Error { code, .. } if code.is_retryable()) {
                self.first_seen.remove(&env.request_id);
                self.sink.observe(
                    &format!(
                        "service.op_latency/op={},shard={shard},tenant={}",
                        env.request.op(),
                        tenant.0
                    ),
                    now - t0,
                );
            }
        }
    }

    /// One turn of the driver's clock: the shards in `alive` showed
    /// life, every other shard silent past the window is returned —
    /// newly dead, the driver promotes a standby for each — and every
    /// 16th turn emits the periodic operational snapshot, aggregating
    /// the counters of `shards`. Only the logical-clock driver ticks.
    pub fn tick(
        &mut self,
        now: f64,
        alive: impl IntoIterator<Item = usize>,
        shards: &[Shard],
    ) -> Vec<usize> {
        self.ticks += 1;
        if self.ticks.is_multiple_of(16) {
            self.ops_snapshot("ops", now, shards);
        }
        for shard in alive {
            self.supervisor.beat(shard, now);
        }
        self.supervisor.scan(now)
    }

    /// Records that `shard` was lost at `now`.
    pub fn crashed(&mut self, shard: usize, now: f64) {
        let shard = shard as i64;
        self.sink.record(now, EventKind::ControllerCrash { shard });
    }

    /// Accounts the completed promotion of a standby for `shard`,
    /// whose replay of the durable log found `takeover`.
    pub fn promoted(
        &mut self,
        shard: usize,
        now: f64,
        takeover: TakeoverReport,
        shards: &[Shard],
    ) -> FailoverReport {
        self.supervisor.revive(shard, now);
        self.failovers += 1;
        self.sink.inc("service.failovers", 1);
        self.sink.record(
            now,
            EventKind::ControllerRecover {
                shard: shard as i64,
                replayed_apps: takeover.registrations as u64,
                replayed_conns: takeover.live_conns as u64,
            },
        );
        self.ops_snapshot("failover", now, shards);
        FailoverReport {
            shard,
            detected_at: now,
            takeover,
        }
    }

    /// Emits one operational snapshot: an `ops_snapshot` trace event
    /// plus a flight-recorder capture of the aggregated counters.
    /// Deterministic — keyed by snapshot sequence number and request
    /// count, never wall clock.
    fn ops_snapshot(&mut self, reason: &str, now: f64, shards: &[Shard]) {
        if !self.sink.enabled() {
            return;
        }
        self.snap_seq += 1;
        self.sink.record(
            now,
            EventKind::OpsSnapshot {
                seq: self.snap_seq,
                requests: self.requests,
            },
        );
        let s = self.stats(shards);
        let counters = [
            ("admitted", s.admitted),
            ("rate_limited", s.rate_limited),
            ("registrations_acked", s.registrations_acked),
            ("conn_creates_acked", s.conn_creates_acked),
            ("dedup_hits", s.dedup_hits),
            ("failovers", s.failovers),
            ("compactions", s.compactions),
        ];
        let state = counters.map(|(k, v)| (k, JsonValue::Num(v as f64)));
        self.sink
            .snapshot(now, reason, JsonValue::obj(state.to_vec()));
    }

    /// The front's counters aggregated with those of `shards`.
    pub fn stats(&self, shards: &[Shard]) -> ServiceStats {
        let mut s = ServiceStats {
            admitted: self.admission.admitted(),
            rate_limited: self.admission.rejected(),
            failovers: self.failovers,
            ..ServiceStats::default()
        };
        for st in shards.iter().map(Shard::stats) {
            s.registrations_acked += st.registrations_acked;
            s.conn_creates_acked += st.conn_creates_acked;
            s.dedup_hits += st.dedup_hits;
            s.compactions += st.compactions;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_core::rpc::Request;
    use saba_sim::ids::{AppId, NodeId};
    use saba_telemetry::Recorder;

    fn create(id: u64, app: u32) -> Envelope {
        Envelope::new(
            id,
            Request::ConnCreate {
                app: AppId(app),
                src: NodeId(0),
                dst: NodeId(1),
                tag: id,
            },
        )
    }

    fn front<S: MetricsSink>(admission: Option<TokenBucketCfg>, sink: S) -> Front<S> {
        Front::new(2, HeartbeatConfig::default(), admission, sink).unwrap()
    }

    #[test]
    fn rate_limit_rejects_with_retryable_code() {
        let bucket = TokenBucketCfg {
            rate: 10.0,
            burst: 2.0,
        };
        let mut f = front(Some(bucket), Registry::new());
        let routes: Vec<Route> = (0..4).map(|i| f.admit(&create(i, 1), 0.0)).collect();
        let owner = f.shard_map().shard_of(AppId(1));
        assert_eq!(routes[..2], [Route::Shard(owner), Route::Shard(owner)]);
        for route in &routes[2..] {
            match route {
                Route::Reply(Response::Error { code, .. }) => {
                    assert_eq!(*code, ErrorCode::RateLimited);
                    assert!(code.is_retryable());
                }
                other => panic!("expected a rate-limit reply, got {other:?}"),
            }
        }
        let stats = f.stats(&[]);
        assert_eq!((stats.admitted, stats.rate_limited), (2, 2));
        assert_eq!(f.sink.counter("service.requests"), 4);
        assert_eq!(f.sink.counter("service.admitted"), 2);
        assert_eq!(f.sink.counter("service.rate_limited"), 2);
        // A tenant's bucket is its own, and refills on the driver's clock.
        let other = f.shard_map().shard_of(AppId(2));
        assert_eq!(f.admit(&create(9, 2), 0.0), Route::Shard(other));
        assert!(matches!(f.admit(&create(10, 1), 0.5), Route::Shard(_)));
    }

    #[test]
    fn scrapes_are_answered_before_admission_with_a_monotone_dump_counter() {
        // A bucket that admits one request per tenant: scrapes carry no
        // tenant, so they never touch it.
        let bucket = TokenBucketCfg {
            rate: 1e-9,
            burst: 1.0,
        };
        let mut f = front(Some(bucket), Registry::new());
        let page = |f: &mut Front<Registry>, id| match f
            .admit(&Envelope::new(id, Request::MetricsDump), 0.0)
        {
            Route::Reply(Response::Metrics { text }) => text,
            other => panic!("expected a metrics page, got {other:?}"),
        };
        // The page that comes back already includes its own scrape.
        assert!(page(&mut f, 1).contains("service_metrics_dumps_total 1\n"));
        assert!(page(&mut f, 2).contains("service_metrics_dumps_total 2\n"));
        assert!(
            matches!(f.dump_metrics(), Response::Metrics { text } if text.contains("_total 3\n"))
        );
        // Never counted as requests, never admitted.
        assert_eq!(f.sink.counter("service.requests"), 0);
        assert_eq!(f.stats(&[]), ServiceStats::default());
        // Without a registry behind the sink the page is empty, not an error.
        let mut off = front(None, SharedRecorder::off());
        assert_eq!(
            off.dump_metrics(),
            Response::Metrics {
                text: String::new()
            }
        );
    }

    #[test]
    fn silent_shards_are_reported_once_and_promotion_revives_them() {
        let mut f = front(None, Registry::new());
        let window = HeartbeatConfig::default().window;
        // Shard 1 keeps showing life; shard 0 never does.
        assert!(f.tick(window, [1], &[]).is_empty());
        assert_eq!(f.tick(window + 0.1, [1], &[]), vec![0]);
        // Reported exactly once, and a straggler beat cannot cancel it.
        assert!(f.tick(window + 0.2, [0, 1], &[]).is_empty());
        let takeover = TakeoverReport {
            records: 3,
            torn_bytes: 0,
            registrations: 1,
            live_conns: 2,
        };
        let report = f.promoted(0, window + 0.3, takeover.clone(), &[]);
        assert_eq!(report.shard, 0);
        assert_eq!(report.detected_at, window + 0.3);
        assert_eq!(report.takeover, takeover);
        assert_eq!(f.failovers(), 1);
        assert_eq!(f.stats(&[]).failovers, 1);
        assert_eq!(f.sink.counter("service.failovers"), 1);
        // The standby is alive from its promotion and can die again.
        assert!(f.tick(window + 0.4, [1], &[]).is_empty());
        assert_eq!(f.tick(2.0 * window + 0.4, [1], &[]), vec![0]);
    }

    #[test]
    fn a_retried_request_gets_one_root_span_and_one_latency_sample() {
        let sink = SharedRecorder::on(Recorder::default());
        let mut f = front(None, sink.clone());
        let env = create(7, 1);
        let shard = f.shard_map().shard_of(AppId(1));
        let bounced = Response::Error {
            code: ErrorCode::FailingOver,
            message: "standby taking over".into(),
        };
        assert_eq!(f.admit(&env, 1.0), Route::Shard(shard));
        f.answered(std::slice::from_ref(&env), &[bounced], 1.0);
        assert_eq!(f.admit(&env, 3.0), Route::Shard(shard));
        f.answered(std::slice::from_ref(&env), &[Response::Ack], 3.0);

        let rec = sink.extract().unwrap();
        let roots = rec
            .trace
            .to_jsonl()
            .matches("\"op\":\"rpc.request\"")
            .count();
        assert_eq!(roots, 1, "the retry must reuse the first root span");
        let slo = format!("service.op_latency/op=conn_create,shard={shard},tenant=1");
        let h = rec.registry.histogram(&slo).expect("one SLO family");
        assert_eq!((h.count(), h.sum()), (1, 2.0), "first submission → ack");
        assert_eq!(rec.registry.counter("service.requests"), 2);
    }
}
