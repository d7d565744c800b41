//! Service-plane observability conformance.
//!
//! The service tier's telemetry makes three promises (DESIGN.md §15):
//!
//! 1. **Determinism** — an identically-seeded drill exports a
//!    byte-identical span-tree JSONL across repeated runs:
//!    observability rides the time each call names — here logical
//!    seconds — never the wall clock.
//! 2. **Well-formedness and linkage** — the exported trace passes
//!    `validate_jsonl` (unique span ids, no orphan parents), and every
//!    churn RPC the shard tier acked is linked downward to the
//!    controller epoch it caused: a `controller.epoch` span whose
//!    parent is that RPC's shard span, one per `epoch_scope` event.
//! 3. **Zero observer effect** — running the same drill with no sink
//!    attached leaves the programmed switch state and the service
//!    counters exactly equal to the traced run's: tracing never
//!    steers allocation.
//!
//! The drill also scrapes the `MetricsDump` exposition page twice and
//! checks the expected families are present with monotone counters.

use crate::incremental::{ChurnEvent, ChurnScript};
use saba_core::controller::ControllerConfig;
use saba_core::rpc::{Envelope, Request, Response};
use saba_service::runtime::ServiceRuntime;
use saba_service::shard::{Flavour, ShardSpec};
use saba_service::{ServiceConfig, ServiceStats, MONOTONE_COUNTERS, REQUIRED_FAMILIES};
use saba_sim::ids::AppId;
use saba_telemetry::{check_scrapes, validate_jsonl, Recorder, SharedRecorder};
use std::path::PathBuf;

/// What one drill run leaves behind for the differential checks.
struct DrillOutcome {
    /// Deterministic JSONL export of the trace (empty when untraced).
    trace_jsonl: String,
    /// Per-shard programmed switch state, rendered for exact diffing.
    programmed: Vec<String>,
    /// Aggregated service counters.
    stats: ServiceStats,
    /// Two `MetricsDump` pages, scraped after the registrations and at
    /// the end.
    pages: (String, String),
}

fn drill_dir(seed: u64, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("saba-obs-{}-{seed}-{tag}", std::process::id()))
}

/// Runs the seeded churn script against a fresh two-shard
/// [`ServiceRuntime`] on logical seconds: register every app at 0,
/// replay the events one envelope per quarter second, scrape twice,
/// and export.
fn run_drill(sc: &ChurnScript, traced: bool, tag: &str) -> Result<DrillOutcome, String> {
    let dir = drill_dir(sc.seed, tag);
    let _ = std::fs::remove_dir_all(&dir);
    let spec = ShardSpec {
        cfg: ControllerConfig::default(),
        table: sc.table(),
        topo: sc.topology(),
        flavour: Flavour::Central,
    };
    let cfg = ServiceConfig {
        shards: 2,
        ..ServiceConfig::new(&dir)
    };
    let rt = ServiceRuntime::start(spec, cfg).map_err(|e| format!("start service: {e}"))?;
    let sink = if traced {
        SharedRecorder::on(Recorder::default())
    } else {
        SharedRecorder::off()
    };
    rt.set_sink(sink.clone());

    let servers = sc.topology().servers().to_vec();
    for app in 0..sc.napps as u32 {
        let env = Envelope::new(
            10_000 + app as u64,
            Request::AppRegister {
                app: AppId(app),
                workload: ChurnScript::workload_name(app as usize),
            },
        );
        match rt.call_at(env, 0.0) {
            Response::Registered { .. } => {}
            other => return Err(format!("register app {app}: {other:?}")),
        }
    }
    let scrape = |id: u64, now: f64| -> Result<String, String> {
        match rt.call_at(Envelope::new(id, Request::MetricsDump), now) {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("scrape: {other:?}")),
        }
    };
    let page1 = scrape(20_000, 0.0)?;

    for (step, ev) in sc.events.iter().enumerate() {
        let req = match *ev {
            ChurnEvent::Create { app, src, dst, tag } => Request::ConnCreate {
                app: AppId(app),
                src: servers[src],
                dst: servers[dst],
                tag,
            },
            ChurnEvent::Destroy { app, tag } => Request::ConnDestroy {
                app: AppId(app),
                tag,
            },
        };
        let now = (step + 1) as f64 * 0.25;
        match rt.call_at(Envelope::new(step as u64, req), now) {
            Response::Ack => {}
            other => return Err(format!("step {step}: {other:?}")),
        }
    }
    let page2 = scrape(20_001, sc.events.len() as f64 * 0.25 + 1.0)?;

    let trace_jsonl = sink
        .extract()
        .map(|r| r.trace.to_jsonl())
        .unwrap_or_default();
    let programmed = (0..2)
        .map(|s| rt.with_shard(s, |shard| format!("{:?}", shard.programmed())))
        .collect::<Option<_>>()
        .ok_or("a shard stayed led after the drill")?;
    let stats = rt.stats();
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(DrillOutcome {
        trace_jsonl,
        programmed,
        stats,
        pages: (page1, page2),
    })
}

/// Checks the span tree of one traced export: shape (via
/// `validate_jsonl`), per-RPC coverage, and RPC→epoch linkage.
fn check_spans(sc: &ChurnScript, jsonl: &str) -> Result<(), String> {
    validate_jsonl(jsonl).map_err(|e| format!("trace validation: {e}"))?;
    // Re-read the spans out of the canonical export.
    let mut spans: Vec<(u64, u64, u64, String, bool)> = Vec::new();
    let mut epoch_scopes = 0u64;
    for line in jsonl.lines() {
        let v = saba_telemetry::json::parse(line).map_err(|e| format!("reparse: {e}"))?;
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("span") => {
                let hex = |k: &str| {
                    v.get(k)
                        .and_then(|x| x.as_str())
                        .ok_or_else(|| format!("span line missing '{k}'"))
                        .and_then(saba_telemetry::span::parse_id)
                };
                spans.push((
                    hex("trace")?,
                    hex("span")?,
                    hex("parent")?,
                    v.get("op")
                        .and_then(|x| x.as_str())
                        .ok_or("span line missing 'op'")?
                        .to_string(),
                    v.get("ok").and_then(|x| x.as_bool()).unwrap_or(false),
                ));
            }
            Some("epoch_scope") => epoch_scopes += 1,
            _ => {}
        }
    }
    // Every registration and churn event contributes a root span plus
    // a shard span; nothing else mints rpc.* roots.
    let roots = spans.iter().filter(|s| s.3 == "rpc.request").count();
    let expected_roots = sc.napps + sc.events.len();
    if roots != expected_roots {
        return Err(format!(
            "expected {expected_roots} rpc.request root spans, found {roots}"
        ));
    }
    // Linkage: one controller.epoch span per acked churn RPC, parented
    // at that RPC's shard span, and exactly one per epoch_scope event.
    let epoch_parents: Vec<u64> = spans
        .iter()
        .filter(|s| s.3 == "controller.epoch")
        .map(|s| s.2)
        .collect();
    let churn_span_ids: Vec<u64> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.3.as_str(),
                "rpc.conn_create" | "rpc.conn_destroy" | "rpc.deregister"
            ) && s.4
        })
        .map(|s| s.1)
        .collect();
    if epoch_parents.len() != sc.events.len() {
        return Err(format!(
            "expected one controller.epoch span per churn event ({}), found {}",
            sc.events.len(),
            epoch_parents.len()
        ));
    }
    if epoch_parents.len() != epoch_scopes as usize {
        return Err(format!(
            "{} controller.epoch spans but {epoch_scopes} epoch_scope events",
            epoch_parents.len()
        ));
    }
    for parent in &epoch_parents {
        if !churn_span_ids.contains(parent) {
            return Err(format!(
                "controller.epoch span parented at {parent:016x}, which is not an \
                 acked churn RPC span"
            ));
        }
    }
    Ok(())
}

/// The full observability differential for one seeded churn script.
pub fn service_observability(sc: &ChurnScript) -> Result<(), String> {
    // Two identically-seeded traced runs: byte-identical exports.
    let base = run_drill(sc, true, "traced-a")?;
    let again = run_drill(sc, true, "traced-b")?;
    if base.trace_jsonl != again.trace_jsonl {
        return Err("identically-seeded runs exported different span-tree JSONL".into());
    }
    check_spans(sc, &base.trace_jsonl)?;

    // Exposition: required families present, counters monotone.
    let (p1, p2) = &base.pages;
    check_scrapes(p1, p2, &REQUIRED_FAMILIES, &MONOTONE_COUNTERS)?;

    // Observer effect: the untraced twin ends in the exact same state.
    let untraced = run_drill(sc, false, "off")?;
    if untraced.programmed != base.programmed {
        return Err("tracing changed the programmed switch state".into());
    }
    if untraced.stats != base.stats {
        return Err(format!(
            "tracing changed the service counters: {:?} traced vs {:?} untraced",
            base.stats, untraced.stats
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observability_drill_passes_on_small_seeds() {
        for seed in 0..4 {
            service_observability(&ChurnScript::generate(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
