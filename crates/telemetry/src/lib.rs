//! Sim-time tracing, metrics, and a flight recorder for the Saba stack.
//!
//! The reproduction's observability layer (std + serde only), threaded
//! through the sim engine, both controller flavours, the fault
//! subsystem, and the cluster harness:
//!
//! - [`event`] — the structured trace taxonomy, keyed by *simulated*
//!   time: allocation epochs, controller solves and queue reprograms,
//!   RPC send/retry/dedup, fault/repair edges, flow arrivals and
//!   completions, Fig. 7 library transitions.
//! - [`trace`] — a bounded ring buffer ([`Tracer`]) with deterministic
//!   JSONL/CSV export and a strict schema validator.
//! - [`metrics`] — a [`Registry`] of counters, gauges, and log-linear
//!   [`Histogram`]s (p50/p90/p99/max), unifying what `sim::probe` and
//!   `cluster::metrics` used to collect ad hoc.
//! - [`flight`] — the [`FlightRecorder`]: last-N-events snapshots taken
//!   on controller crash, failed invariant, or panic; byte-identical
//!   under a seeded fault schedule.
//! - [`sink`] — the [`TelemetrySink`] trait. Instrumented code is
//!   generic over it; the [`NullSink`] default compiles every hook to
//!   nothing (`saba-cluster`'s `corun_faults` tests check that a
//!   null-sink run's results are exactly the traced run's: nothing
//!   perturbed).
//! - [`recorder`] — the live [`Recorder`] (trace + registry + flight)
//!   and the cloneable, `Send` [`SharedRecorder`] handle for
//!   non-generic components (resilient controller, RPC transport, Saba
//!   library, service shards).
//! - [`json`] — the minimal deterministic JSON writer/parser the
//!   exporters are built on, so identically-seeded runs export
//!   byte-identical artifacts regardless of serializer versions.
//! - [`span`] — deterministic trace contexts for the service plane
//!   (seeded trace/span/parent ids propagated over the RPC wire) and
//!   the span-tree well-formedness validator `validate_jsonl` applies.
//! - [`expose`] — Prometheus-style text exposition of a [`Registry`],
//!   served by the service tier's `MetricsDump` RPC.
//!
//! Wall-clock durations (controller overhead, Fig. 12) only ever enter
//! the registry under `wall.`-prefixed names — never trace events — so
//! traces and snapshots stay deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod expose;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{Event, EventKind};
pub use expose::{check_scrapes, expose, sample_value};
pub use flight::{FlightRecorder, Snapshot};
pub use histogram::Histogram;
pub use json::JsonValue;
pub use metrics::Registry;
pub use recorder::{Recorder, SharedRecorder};
pub use sink::{NullSink, TelemetrySink};
pub use span::{validate_span_tree, TraceContext};
pub use trace::{validate_jsonl, Tracer};
