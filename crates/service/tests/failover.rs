//! Named failover regression: a shard dies mid-churn, the next call
//! for it takes it over from its durable log and is served by the
//! standby, and afterwards
//!
//! 1. **zero acked registrations are lost** — every operation the
//!    service acked before the crash is present in the standby's
//!    replayed state, verified against an independently maintained
//!    mirror of the acks;
//! 2. **the standby's switch state is correct** — its accumulated
//!    port programs differentially match a from-scratch solve of the
//!    same state (the `incremental_vs_scratch` oracle), at 1e-12 rtol,
//!    on BOTH controller flavours;
//! 3. **nothing bounces** — the first call after the kill is served by
//!    the standby, exactly one take-over happens, and no reply reads
//!    `FailingOver`;
//! 4. **the trace is part of the contract** — a traced drill's span
//!    tree is pinned across commits, and the drill ends in the same
//!    switch state and counters as an untraced one.

use saba_conformance::incremental::diff_switch_states;
use saba_core::controller::ControllerConfig;
use saba_core::fabric::PortQueueConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::runtime::ServiceRuntime;
use saba_service::shard::{Flavour, Shard, ShardSpec, ShardStats};
use saba_service::wal::scan;
use saba_service::ServiceConfig;
use saba_sim::ids::{AppId, NodeId};
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

/// Seeded churn into a 3-shard service on logical seconds, one shard
/// killed at op [`KILL_AT`]; checks contracts 1–3 and returns what the
/// run left. `sink` sees every span.
fn drill(flavour: Flavour, name: &str, sink: SharedRecorder) -> Drilled {
    let dir = std::env::temp_dir().join(format!("saba-failover-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec(flavour);
    let cfg = ServiceConfig {
        shards: 3,
        sync_every: 8,
        admission: None,
        ..ServiceConfig::new(&dir)
    };
    let rt = ServiceRuntime::start(spec.clone(), cfg).unwrap();
    rt.set_sink(sink.clone());
    let map = rt.shard_map();
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
    for (step, op) in trace.take(TOTAL_OPS).enumerate() {
        let owner = map.shard_of(AppId(op.app()));
        if step == KILL_AT {
            let mut owned = mirror.registrations.keys();
            assert!(
                owned.any(|&app| map.shard_of(AppId(app)) == owner),
                "[{name}] the victim shard should own acked tenants"
            );
            rt.kill_shard(owner);
            assert_eq!(
                rt.failovers(),
                0,
                "[{name}] a kill only marks the shard dead"
            );
        }
        let env = Envelope::new(step as u64, to_request(&op, &servers));
        match rt.call_at(env.clone(), step as f64 * 0.25) {
            Response::Registered { .. } | Response::Ack => mirror.absorb(&env.request),
            other => panic!("[{name}] step {step}: {other:?}"),
        }
        if step == KILL_AT {
            assert_eq!(
                rt.replaced_shards(),
                [owner],
                "[{name}] served by the standby"
            );
        }
    }
    assert_eq!(rt.failovers(), 1, "[{name}] exactly one take-over");

    // Contract 1: zero acked registrations (or connections) lost.
    // Union the per-shard replayed/validated states and compare with
    // the ack mirror exactly.
    let mut got_regs: BTreeMap<u32, String> = BTreeMap::new();
    let mut got_live: BTreeSet<(u32, u64)> = BTreeSet::new();
    for s in 0..3 {
        let state = rt.with_shard(s, |shard| shard.state().clone()).unwrap();
        for (app, wl) in &state.registrations {
            assert_eq!(map.shard_of(*app), s, "tenant on the wrong shard");
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
    let programmed: Vec<_> = (0..3)
        .map(|s| {
            rt.with_shard(s, |shard| shard.programmed().clone())
                .unwrap()
        })
        .collect();
    for (s, programmed) in programmed.iter().enumerate() {
        let data = std::fs::read(Shard::log_path(&dir, s)).unwrap();
        let scratch = spec.scratch_solve(&scan(&data).records);
        diff_switch_states(name, s, programmed, &scratch)
            .unwrap_or_else(|e| panic!("[{name}] shard {s} diverged after failover: {e}"));
    }

    let stats = rt.stats();
    assert_eq!(stats.failovers, 1);
    assert!(stats.registrations_acked > 0);
    let report = rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Drilled {
        jsonl: sink
            .extract()
            .map(|rec| rec.trace.to_jsonl())
            .unwrap_or_default(),
        programmed,
        stats: report.workers.into_iter().map(|w| w.stats).collect(),
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

/// Contract 4. A drill names logical seconds on every call, so the
/// export is a pure function of the churn stream: the same bytes on
/// every commit that keeps the service's behaviour (the `(len, FNV-1a)`
/// pin, re-recorded when failover moved from heartbeat detection to
/// the take-over on the call path; on a mismatch the assertion prints
/// the actual pair). Tracing changes nothing the service decides.
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
    let want = (405_105, 0xc2bf_6bf4_9074_4750);
    assert_eq!(pin, want, "span export moved: (len, FNV-1a) = {pin:#x?}");

    let plain = drill(Flavour::Central, "untraced", SharedRecorder::off());
    assert!(plain.jsonl.is_empty());
    assert!(
        traced.programmed == plain.programmed,
        "tracing moved a switch program"
    );
    assert_eq!(traced.stats, plain.stats, "tracing moved a shard counter");
}
