//! The service front: one admit → route → batch → ack → promote core.
//!
//! [`Front`] owns everything about serving the Fig. 7 lifecycle that
//! does not depend on how a batch reaches a shard: the pre-admission
//! `MetricsDump` answer, edge admission, tenant→shard routing, request
//! counting, the post-batch metrics and trace pass, and failover
//! accounting. It reads no clock, spawns no thread and opens no file:
//! [`crate::runtime::ServiceRuntime`] passes each call's `now` in — wall
//! seconds, or a drill's logical ones — and executes what comes back:
//! reply ([`Route::Reply`]) or hand the envelope to a shard
//! ([`Route::Shard`]). Counts land in a metrics [`Registry`] that is
//! always on; events (spans, crash and recovery, the failover snapshot)
//! in a trace [`SharedRecorder`] that is off until one is attached. The
//! front holds no state it cannot rebuild from the durable logs:
//! counters restart, tenants do not.

use crate::admission::{Admission, Admit, TokenBucketCfg};
use crate::shard::{Shard, ShardMap, ShardStats, TakeoverReport};
use saba_core::rpc::{Envelope, ErrorCode, Response};
use saba_telemetry::{expose, EventKind, JsonValue, Registry, SharedRecorder, TelemetrySink};
use std::collections::HashMap;
use std::path::PathBuf;

/// Seed of the tenant→shard map. Fixed: a standby must own exactly
/// the tenants whose log it replays.
const MAP_SEED: u64 = 0x5aba;

/// `# TYPE` lines every post-churn scrape exposes.
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

/// Deployment shape of the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards.
    pub shards: usize,
    /// Fsync batching: appends per forced sync (group commit bound).
    pub sync_every: usize,
    /// Per-tenant edge admission policy; `None` admits everything.
    pub admission: Option<TokenBucketCfg>,
    /// Calls that may wait per shard while another caller leads it;
    /// one more is `ShardBusy`.
    pub queue_depth: usize,
    /// Most waiting calls a shard's leader takes into one group commit.
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
            queue_depth: 256,
            batch_max: 64,
            log_dir: log_dir.into(),
        }
    }
}

/// Aggregated service counters.
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

/// What the driver does with an admitted-or-not envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// Answered at the front (scrape, rate limit): reply now.
    Reply(Response),
    /// Admitted: hand the envelope to this shard.
    Shard(usize),
}

/// The I/O-free front core (see the module docs).
pub struct Front {
    /// Every count of what was served, under the names the exposition
    /// page shows; the runtime adds its own (`service.shard_busy`,
    /// `wall.*`) here.
    pub registry: Registry,
    /// Where spans, crash and recovery events and the failover snapshot
    /// go; off until one is attached.
    pub trace: SharedRecorder,
    map: ShardMap,
    admission: Admission,
    /// Per in-flight request id: when it was first submitted, and
    /// whether its root span is minted. An operation's SLO latency
    /// runs from there to its definitive response, spanning retries.
    /// Only maintained while a trace is attached.
    first_seen: HashMap<u64, (f64, bool)>,
}

impl Front {
    /// A front over `shards` shards, with no trace attached.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] naming the `admission`
    /// setting that cannot work.
    pub fn new(shards: usize, admission: Option<TokenBucketCfg>) -> std::io::Result<Self> {
        let admission = Admission::new(admission)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        Ok(Self {
            registry: Registry::new(),
            trace: SharedRecorder::off(),
            map: ShardMap::new(shards, MAP_SEED),
            admission,
            first_seen: HashMap::new(),
        })
    }

    /// The tenant→shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Standby promotions so far.
    pub fn failovers(&self) -> u64 {
        self.registry.counter("service.failovers")
    }

    /// The exposition page. Scrapes are read-only — never admitted,
    /// counted as requests, routed or spanned. The dump counter is
    /// bumped before rendering, so consecutive pages show it strictly
    /// increasing.
    pub fn dump_metrics(&mut self) -> Response {
        self.registry.inc("service.metrics_dumps", 1);
        Response::Metrics {
            text: expose(&self.registry),
        }
    }

    /// Admits one envelope at `now`: answers it here or names the
    /// shard that owns its tenant.
    pub fn admit(&mut self, env: &Envelope, now: f64) -> Route {
        let Some(tenant) = env.request.tenant() else {
            return Route::Reply(self.dump_metrics());
        };
        self.registry.inc("service.requests", 1);
        if self.trace.enabled() {
            self.first_seen
                .entry(env.request_id)
                .or_insert((now, false));
        }
        match self.admission.try_admit(tenant.0, now) {
            Admit::Ok => {
                self.registry.inc("service.admitted", 1);
                Route::Shard(self.map.shard_of(tenant))
            }
            Admit::RateLimited { retry_after } => {
                self.registry.inc("service.rate_limited", 1);
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

    /// The per-shard pass after a batch was handled and acked: what the
    /// shard acked, absorbed and compacted since `before`, its log's
    /// progress and, traced, its cache hit rate.
    pub fn batch_done(&mut self, shard: &mut Shard, before: ShardStats) {
        let after = shard.stats();
        self.registry.inc(
            "service.registrations_acked",
            after.registrations_acked - before.registrations_acked,
        );
        self.registry.inc(
            "service.conn_creates_acked",
            after.conn_creates_acked - before.conn_creates_acked,
        );
        let absorbed = after.dedup_hits - before.dedup_hits;
        let compacted = after.compactions - before.compactions;
        for (name, by) in [
            ("service.dedup_hits", absorbed),
            ("service.compactions", compacted),
        ] {
            if by > 0 {
                self.registry.inc(name, by);
            }
        }
        shard.publish_wal(&mut self.registry);
        if self.trace.enabled() {
            // The share of occupied-port visits that solved no Eq. 2
            // problem: memo hits plus single-member ports. A central
            // shard memoizes nothing, so there this reads how
            // uncontended the ports are, not how warm a cache is.
            if let Some(ratio) = shard.epoch_counters().solve_skip_ratio() {
                self.registry.set_gauge(
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
    /// retry window. Nothing without a trace attached.
    pub fn answered(&mut self, envs: &[Envelope], resps: &[Response], now: f64) {
        if !self.trace.enabled() {
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
                self.trace.record(
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
                self.registry.observe(
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

    /// Records that `shard` was found dead at `now`.
    pub fn crashed(&mut self, shard: usize, now: f64) {
        let shard = shard as i64;
        self.trace.record(now, EventKind::ControllerCrash { shard });
    }

    /// Accounts the completed promotion of a standby for `shard`, whose
    /// replay of the durable log found `takeover`, and captures the
    /// failover snapshot: an `ops_snapshot` trace event plus a
    /// flight-recorder capture of [`Self::stats`]. Deterministic — keyed
    /// by failover and request counts, never wall clock.
    pub fn promoted(&mut self, shard: usize, now: f64, takeover: TakeoverReport) {
        self.registry.inc("service.failovers", 1);
        if !self.trace.enabled() {
            return;
        }
        self.trace.record(
            now,
            EventKind::ControllerRecover {
                shard: shard as i64,
                replayed_apps: takeover.registrations as u64,
                replayed_conns: takeover.live_conns as u64,
            },
        );
        self.trace.record(
            now,
            EventKind::OpsSnapshot {
                seq: self.failovers(),
                requests: self.registry.counter("service.requests"),
            },
        );
        let s = self.stats();
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
        self.trace
            .snapshot(now, "failover", JsonValue::obj(state.to_vec()));
    }

    /// The service's counters: the front's own, and the totals of what
    /// every batch acked, absorbed and compacted ([`Self::batch_done`]).
    pub fn stats(&self) -> ServiceStats {
        let counter = |name| self.registry.counter(name);
        ServiceStats {
            admitted: self.admission.admitted(),
            rate_limited: self.admission.rejected(),
            registrations_acked: counter("service.registrations_acked"),
            conn_creates_acked: counter("service.conn_creates_acked"),
            dedup_hits: counter("service.dedup_hits"),
            failovers: counter("service.failovers"),
            compactions: counter("service.compactions"),
        }
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

    fn front(admission: Option<TokenBucketCfg>) -> Front {
        Front::new(2, admission).unwrap()
    }

    #[test]
    fn rate_limit_rejects_with_retryable_code() {
        let bucket = TokenBucketCfg {
            rate: 10.0,
            burst: 2.0,
        };
        let mut f = front(Some(bucket));
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
        let stats = f.stats();
        assert_eq!((stats.admitted, stats.rate_limited), (2, 2));
        assert_eq!(f.registry.counter("service.requests"), 4);
        assert_eq!(f.registry.counter("service.admitted"), 2);
        assert_eq!(f.registry.counter("service.rate_limited"), 2);
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
        let mut f = front(Some(bucket));
        let page = |f: &mut Front, id| match f.admit(&Envelope::new(id, Request::MetricsDump), 0.0)
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
        assert_eq!(f.registry.counter("service.requests"), 0);
        assert_eq!(f.stats(), ServiceStats::default());
    }

    #[test]
    fn a_retried_request_gets_one_root_span_and_one_latency_sample() {
        let sink = SharedRecorder::on(Recorder::default());
        let mut f = front(None);
        f.trace = sink.clone();
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
        let h = f.registry.histogram(&slo).expect("one SLO family");
        assert_eq!((h.count(), h.sum()), (1, 2.0), "first submission → ack");
        assert_eq!(f.registry.counter("service.requests"), 2);
    }

    /// A promotion is counted with or without a trace; traced, it is a
    /// recovery event, an `ops_snapshot` and a flight-recorder capture
    /// of the counters, all at the promoting call's time.
    #[test]
    fn a_promotion_is_counted_and_traced_with_a_failover_snapshot() {
        let takeover = TakeoverReport {
            records: 3,
            torn_bytes: 0,
            registrations: 1,
            live_conns: 2,
        };
        let mut f = front(None);
        f.promoted(0, 1.0, takeover.clone());
        assert_eq!((f.failovers(), f.stats().failovers), (1, 1));

        let sink = SharedRecorder::on(Recorder::default());
        f.trace = sink.clone();
        f.crashed(1, 2.0);
        f.promoted(1, 2.0, takeover);
        assert_eq!(f.failovers(), 2);
        let rec = sink.extract().unwrap();
        let kinds: Vec<&str> = rec.trace.events().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            ["controller_crash", "controller_recover", "ops_snapshot"]
        );
        assert!(rec.trace.events().all(|e| e.t == 2.0));
        assert_eq!(rec.flight.snapshots().len(), 1);
        assert_eq!(rec.flight.snapshots()[0].reason, "failover");
    }
}
