//! Named failover regression: a shard dies mid-churn, the supervisor
//! detects it within the heartbeat window, a standby replays the
//! durable log, and afterwards
//!
//! 1. **zero acked registrations are lost** — every operation the
//!    service acked before the crash is present in the standby's
//!    replayed state, verified against an independently maintained
//!    mirror of the acks;
//! 2. **the standby's switch state is correct** — its accumulated
//!    port programs differentially match a from-scratch solve of the
//!    same state (the `incremental_vs_scratch` oracle), at 1e-12 rtol,
//!    on BOTH controller flavours;
//! 3. **bounced requests retry cleanly** — everything rejected with a
//!    retryable code during the outage succeeds when replayed in
//!    order after takeover;
//! 4. **the trace is part of the contract** — a traced drill's span
//!    tree is pinned across commits, and the drill ends in the same
//!    switch state and counters as an untraced one.

use saba_conformance::incremental::diff_switch_states;
use saba_core::controller::ControllerConfig;
use saba_core::fabric::PortQueueConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, ErrorCode, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::heartbeat::HeartbeatConfig;
use saba_service::service::{AllocationService, ServiceConfig};
use saba_service::shard::{Flavour, Shard, ShardSpec, ShardStats};
use saba_service::wal::scan;
use saba_sim::ids::NodeId;
use saba_sim::topology::Topology;
use saba_telemetry::{validate_jsonl, Recorder, SharedRecorder};
use saba_workload::catalog;
use saba_workload::churn::{ChurnOp, ChurnTrace, ChurnTraceConfig};
use std::collections::{BTreeMap, BTreeSet};

const SERVERS: usize = 8;
const KILL_AT: usize = 300;
const TOTAL_OPS: usize = 650;

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

fn spec(flavour: Flavour) -> ShardSpec {
    ShardSpec {
        cfg: ControllerConfig::default(),
        table: table(),
        topo: Topology::single_switch(SERVERS, 100.0),
        flavour,
    }
}

fn to_request(op: &ChurnOp, servers: &[NodeId]) -> Request {
    // Demand shifts are a workload-plane signal; the churn drives
    // here run with the feature off.
    Request::from_churn(op, servers).expect("demand_shift disabled in failover drills")
}

/// The ack mirror: what the service has *promised* is durable.
#[derive(Default)]
struct Mirror {
    registrations: BTreeMap<u32, String>,
    live: BTreeSet<(u32, u64)>,
}

impl Mirror {
    fn absorb(&mut self, req: &Request) {
        match req {
            Request::AppRegister { app, workload } => {
                self.registrations.insert(app.0, workload.clone());
            }
            Request::ConnCreate { app, tag, .. } => {
                self.live.insert((app.0, *tag));
            }
            Request::ConnDestroy { app, tag } => {
                self.live.remove(&(app.0, *tag));
            }
            Request::AppDeregister { app } => {
                self.registrations.remove(&app.0);
                self.live.retain(|(a, _)| a != &app.0);
            }
            Request::MetricsDump => {}
        }
    }
}

/// What a drill leaves behind: the trace export (empty when untraced),
/// and each shard's switch state and counters.
struct Drilled {
    jsonl: String,
    programmed: Vec<BTreeMap<u32, PortQueueConfig>>,
    stats: Vec<ShardStats>,
}

/// Seeded churn into a 3-shard service, one shard killed at op
/// [`KILL_AT`]; checks contracts 1–3 and returns what the run left.
/// `sink` sees every span.
fn drill(flavour: Flavour, name: &str, sink: SharedRecorder) -> Drilled {
    let dir = std::env::temp_dir().join(format!("saba-failover-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec(flavour);
    let cfg = ServiceConfig {
        shards: 3,
        sync_every: 8,
        admission: None,
        heartbeat: HeartbeatConfig {
            interval: 0.5,
            window: 2.0,
        },
        ..ServiceConfig::new(&dir)
    };
    let window = cfg.heartbeat.window;
    let mut svc = AllocationService::open(spec.clone(), cfg).unwrap();
    svc.set_sink(sink.clone());
    let servers = spec.topo.servers().to_vec();

    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 9,
            servers: SERVERS as u32,
            conns_per_tenant: 5,
            tenant_churn: 5e-3,
            ..ChurnTraceConfig::default()
        },
        0x5aba,
    );

    let mut mirror = Mirror::default();
    let mut pending: Vec<Envelope> = Vec::new();
    let mut victim = usize::MAX;
    let mut kill_time = 0.0;
    let mut failover = None;
    let mut clock = 0.0;

    for (step, op) in trace.take(TOTAL_OPS).enumerate() {
        // Logical time advances every op; heartbeats/scans every 4th.
        if step % 4 == 0 {
            clock += 0.25;
            let reports = svc.tick(clock).unwrap();
            if let Some(r) = reports.into_iter().next() {
                assert!(failover.is_none(), "only one failover expected");
                assert_eq!(r.shard, victim);
                failover = Some(r.clone());
                // Requests bounced during the outage retry in order,
                // with their original idempotency ids, and all land.
                for env in pending.drain(..) {
                    let resp = svc.submit(&env);
                    assert!(
                        !matches!(resp, Response::Error { .. }),
                        "retry of {env:?} failed: {resp:?}"
                    );
                    mirror.absorb(&env.request);
                }
            }
        }
        if step == KILL_AT {
            victim = svc.shard_of(op.app());
            kill_time = clock;
            svc.kill_shard(victim);
        }

        let env = Envelope::new(step as u64, to_request(&op, &servers));
        match svc.submit(&env) {
            Response::Registered { .. } | Response::Ack => mirror.absorb(&env.request),
            Response::Error { code, message } => {
                assert!(
                    code.is_retryable(),
                    "[{name}] step {step}: fatal {code}: {message}"
                );
                assert_eq!(code, ErrorCode::FailingOver);
                pending.push(env);
            }
            Response::Metrics { .. } => panic!("[{name}] unexpected metrics page"),
        }
    }

    let failover = failover.expect("the killed shard must fail over");
    assert!(pending.is_empty(), "all bounced requests must have retried");
    assert!(
        failover.detected_at - kill_time <= window + 0.25 + 1e-9,
        "[{name}] death at {kill_time} detected only at {}",
        failover.detected_at
    );
    assert!(
        failover.takeover.registrations > 0,
        "[{name}] the victim shard should have owned tenants"
    );

    // Contract 1: zero acked registrations (or connections) lost.
    // Union the per-shard replayed/validated states and compare with
    // the ack mirror exactly.
    let mut got_regs: BTreeMap<u32, String> = BTreeMap::new();
    let mut got_live: BTreeSet<(u32, u64)> = BTreeSet::new();
    for s in 0..3 {
        let state = svc.shard(s).state();
        for (app, wl) in &state.registrations {
            assert_eq!(svc.shard_of(app.0), s, "tenant on the wrong shard");
            got_regs.insert(app.0, wl.clone());
        }
        for &(app, tag) in state.live_conns.keys() {
            got_live.insert((app.0, tag));
        }
    }
    assert_eq!(got_regs, mirror.registrations, "[{name}] registration loss");
    assert_eq!(got_live, mirror.live, "[{name}] connection loss");

    // Contract 2: every shard's accumulated switch state — the
    // standby's replay-derived one included — matches a from-scratch
    // solve replaying its durable log at 1e-12 rtol. The oracle replays
    // the *full* logged history (deregisters included): the central
    // flavour's online PL assigner is history-dependent, so the live
    // set alone does not determine the switch programs.
    for s in 0..3 {
        let data = std::fs::read(Shard::log_path(&dir, s)).unwrap();
        let scratch = spec.scratch_solve(&scan(&data).records);
        diff_switch_states(name, s, svc.shard(s).programmed(), &scratch)
            .unwrap_or_else(|e| panic!("[{name}] shard {s} diverged after failover: {e}"));
    }

    let stats = svc.stats();
    assert_eq!(stats.failovers, 1);
    assert!(stats.registrations_acked > 0);
    let _ = std::fs::remove_dir_all(&dir);
    let shards = (0..3).map(|s| svc.shard(s));
    Drilled {
        jsonl: sink
            .extract()
            .map(|rec| rec.trace.to_jsonl())
            .unwrap_or_default(),
        programmed: shards.clone().map(|s| s.programmed().clone()).collect(),
        stats: shards.map(Shard::stats).collect(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn failover_mid_churn_is_lossless_and_differentially_correct_central() {
    drill(Flavour::Central, "central", SharedRecorder::off());
}

#[test]
fn failover_mid_churn_is_lossless_and_differentially_correct_distributed() {
    drill(
        Flavour::Distributed(2),
        "distributed",
        SharedRecorder::off(),
    );
}

/// Contract 4. The logical-clock service stamps spans with simulated
/// time only, so the export is a pure function of the churn stream: the
/// same bytes on every commit that keeps the service's behaviour (the
/// `(len, FNV-1a)` pin, recorded at `c25aa5e`; on a mismatch the
/// assertion prints the actual pair). Tracing changes nothing the
/// service decides.
#[test]
fn traced_drill_spans_are_pinned_and_change_nothing() {
    let sink = SharedRecorder::on(Recorder::default());
    let traced = drill(Flavour::Central, "traced", sink);
    let lines = validate_jsonl(&traced.jsonl).expect("schema-valid span export");
    assert!(
        lines > TOTAL_OPS,
        "every request leaves spans: {lines} lines"
    );
    let pin = (traced.jsonl.len(), fnv1a(traced.jsonl.as_bytes()));
    let want = (408_431, 0xc7e3_dcf8_a580_42f5);
    assert_eq!(pin, want, "span export moved: (len, FNV-1a) = {pin:#x?}");

    let plain = drill(Flavour::Central, "untraced", SharedRecorder::off());
    assert!(plain.jsonl.is_empty());
    assert!(
        traced.programmed == plain.programmed,
        "tracing moved a switch program"
    );
    assert_eq!(traced.stats, plain.stats, "tracing moved a shard counter");
}
