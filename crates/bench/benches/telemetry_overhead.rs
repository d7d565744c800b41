//! Criterion benchmark of the telemetry hooks' cost on the hot path.
//!
//! Three flavours of the same 4096-flow allocation trajectory:
//!
//! * `null_sink` — `Simulation::new`, the monomorphized-away
//!   [`NullSink`]. This must track the pre-telemetry baseline (the
//!   acceptance bound: within 2% of `BENCH_allocation.json`).
//! * `shared_off` — a detached [`SharedRecorder`]: one branch per hook.
//! * `recording` — a live recorder with a 64k-event ring, the worst
//!   case (every epoch, flow start and completion is materialized).
//!
//! A second group, `service_churn_512_ops`, runs the same comparison
//! on the service path: a seeded churn burst through the deterministic
//! two-shard [`AllocationService`]. `service_off` (a detached
//! [`SharedRecorder`] — the production default) must stay within 0.5%
//! of `service_recording`'s trajectory cost minus the recording work,
//! i.e. the hooks themselves are one predictable branch; the
//! acceptance bound CI quotes is service_off ≤ 1.005 × the
//! no-telemetry baseline in `BENCH_service.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{Envelope, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::service::{AllocationService, ServiceConfig};
use saba_service::shard::{Flavour, ShardSpec};
use saba_sim::engine::{FairShareFabric, FlowSpec, Simulation};
use saba_sim::ids::{AppId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_telemetry::{Recorder, SharedRecorder, TelemetrySink};
use saba_workload::catalog;
use saba_workload::churn::{ChurnTrace, ChurnTraceConfig};

const FLOWS: usize = 4096;

/// Starts `FLOWS` staggered flows and drains the event loop.
fn drive<S: TelemetrySink>(mut sim: Simulation<FairShareFabric, S>) -> u64 {
    let servers = sim.topo().servers().to_vec();
    let n = servers.len();
    let mut state = 0x5aba_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in 0..FLOWS {
        let src = servers[next() % n];
        let mut dst = servers[next() % n];
        if dst == src {
            dst = servers[(next() + 1) % n];
        }
        sim.start_flow(FlowSpec {
            src,
            dst,
            bytes: 1e6 + (i as f64) * 1e3,
            sl: ServiceLevel(0),
            app: AppId((i % 32) as u32),
            tag: i as u64,
            rate_cap: f64::INFINITY,
            min_rate: 0.0,
        });
    }
    sim.run_to_idle();
    sim.stats().flows_completed
}

const SERVICE_OPS: usize = 512;

/// One full service trajectory: open a fresh two-shard service on a
/// scratch WAL dir, absorb a seeded churn burst, tick every fourth
/// step. Returns the number of acked requests.
fn drive_service(table: &SensitivityTable, sink: SharedRecorder, tag: &str) -> u64 {
    const SERVERS: usize = 8;
    let dir = std::env::temp_dir().join(format!("saba-overhead-svc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = ShardSpec {
        cfg: ControllerConfig::default(),
        table: table.clone(),
        topo: Topology::single_switch(SERVERS, 100.0),
        flavour: Flavour::Central,
    };
    let servers = spec.topo.servers().to_vec();
    let cfg = ServiceConfig {
        shards: 2,
        ..ServiceConfig::new(&dir)
    };
    let mut svc = AllocationService::open(spec, cfg).expect("service opens");
    svc.set_sink(sink);
    let trace = ChurnTrace::new(
        ChurnTraceConfig {
            tenants: 6,
            servers: SERVERS as u32,
            conns_per_tenant: 4,
            ..ChurnTraceConfig::default()
        },
        0x5aba,
    );
    let mut acked = 0u64;
    let mut clock = 0.0;
    for (step, op) in trace.take(SERVICE_OPS).enumerate() {
        let req = Request::from_churn(&op, &servers).expect("demand_shift disabled here");
        if !matches!(
            svc.submit(&Envelope::new(step as u64, req)),
            Response::Error { .. }
        ) {
            acked += 1;
        }
        if step % 4 == 3 {
            clock += 0.25;
            svc.tick(clock).expect("tick");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    acked
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let topo = Topology::single_switch(64, 100e9);

    let mut group = c.benchmark_group("allocation_4096_flows");
    group.sample_size(10);
    group.bench_function("null_sink", |b| {
        b.iter(|| drive(Simulation::new(topo.clone(), FairShareFabric::default())))
    });
    group.bench_function("shared_off", |b| {
        b.iter(|| {
            drive(Simulation::with_telemetry(
                topo.clone(),
                FairShareFabric::default(),
                SharedRecorder::off(),
            ))
        })
    });
    group.bench_function("recording", |b| {
        b.iter(|| {
            drive(Simulation::with_telemetry(
                topo.clone(),
                FairShareFabric::default(),
                SharedRecorder::on(Recorder::default()),
            ))
        })
    });
    group.finish();

    let table = Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("catalog profiling succeeds");
    let mut group = c.benchmark_group("service_churn_512_ops");
    group.sample_size(10);
    group.bench_function("service_off", |b| {
        b.iter(|| drive_service(&table, SharedRecorder::off(), "off"))
    });
    group.bench_function("service_recording", |b| {
        b.iter(|| drive_service(&table, SharedRecorder::on(Recorder::default()), "rec"))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
