//! The live recorder: trace + registry + flight recorder in one sink,
//! and a cheaply-cloneable shared handle for non-generic components.

use crate::event::EventKind;
use crate::flight::FlightRecorder;
use crate::json::JsonValue;
use crate::metrics::Registry;
use crate::sink::TelemetrySink;
use crate::trace::Tracer;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A full telemetry pipeline: events into a bounded [`Tracer`], metrics
/// into a [`Registry`], snapshots into a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct Recorder {
    /// The event ring buffer.
    pub trace: Tracer,
    /// Counters, gauges, histograms.
    pub registry: Registry,
    /// Crash-time snapshots.
    pub flight: FlightRecorder,
}

impl Recorder {
    /// A recorder retaining `trace_capacity` events whose snapshots
    /// keep the last `flight_last_n` of them.
    pub fn new(trace_capacity: usize, flight_last_n: usize) -> Self {
        Self {
            trace: Tracer::new(trace_capacity),
            registry: Registry::new(),
            flight: FlightRecorder::new(flight_last_n),
        }
    }
}

impl Default for Recorder {
    /// 64 Ki events retained, 256 per snapshot.
    fn default() -> Self {
        Self::new(65536, 256)
    }
}

impl TelemetrySink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, t: f64, kind: EventKind) {
        self.trace.push(t, kind);
    }

    fn inc(&mut self, name: &str, by: u64) {
        self.registry.inc(name, by);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.registry.set_gauge(name, value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.registry.observe(name, value);
    }

    fn snapshot(&mut self, t: f64, reason: &str, state: JsonValue) {
        self.flight.capture(reason, t, &self.trace, state);
    }
}

/// A shared handle to one [`Recorder`], for components that are not
/// generic over a sink (the resilient controller, the RPC transport,
/// the Saba library). Cloning shares the underlying recorder; the
/// default handle is *off* and every hook is a cheap `is_some` check.
/// A live handle is `Send`, so whatever holds one can move between
/// threads; a panic under its lock loses at most that one event.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Option<Arc<Mutex<Recorder>>>);

impl SharedRecorder {
    /// A live handle around `recorder`.
    pub fn on(recorder: Recorder) -> Self {
        Self(Some(Arc::new(Mutex::new(recorder))))
    }

    /// The live recorder, locked, if any.
    fn lock(&self) -> Option<MutexGuard<'_, Recorder>> {
        let shared = self.0.as_ref()?;
        Some(shared.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The disabled handle (same as `Default`).
    pub fn off() -> Self {
        Self(None)
    }

    /// Whether this handle records anywhere.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the recorder, if live.
    pub fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.lock().map(|mut rec| f(&mut rec))
    }

    /// A clone of the current recorder contents (trace, registry,
    /// flight snapshots), if live.
    pub fn extract(&self) -> Option<Recorder> {
        self.lock().map(|rec| rec.clone())
    }
}

impl TelemetrySink for SharedRecorder {
    fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn record(&mut self, t: f64, kind: EventKind) {
        if let Some(mut rec) = self.lock() {
            rec.record(t, kind);
        }
    }

    fn inc(&mut self, name: &str, by: u64) {
        if let Some(mut rec) = self.lock() {
            rec.inc(name, by);
        }
    }

    fn gauge(&mut self, name: &str, value: f64) {
        if let Some(mut rec) = self.lock() {
            rec.gauge(name, value);
        }
    }

    fn observe(&mut self, name: &str, value: f64) {
        if let Some(mut rec) = self.lock() {
            rec.observe(name, value);
        }
    }

    fn snapshot(&mut self, t: f64, reason: &str, state: JsonValue) {
        if let Some(mut rec) = self.lock() {
            rec.snapshot(t, reason, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_to_all_three_collectors() {
        let mut r = Recorder::new(8, 4);
        r.record(0.0, EventKind::RpcCall { id: 1 });
        r.inc("rpc.calls", 1);
        r.observe("solve", 1e-3);
        r.snapshot(0.5, "test", JsonValue::Null);
        assert_eq!(r.trace.len(), 1);
        assert_eq!(r.registry.counter("rpc.calls"), 1);
        assert_eq!(r.flight.snapshots().len(), 1);
        assert_eq!(r.flight.snapshots()[0].events.len(), 1);
    }

    #[test]
    fn shared_handle_clones_observe_one_recorder() {
        let shared = SharedRecorder::on(Recorder::new(8, 4));
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(0.0, EventKind::RpcCall { id: 1 });
        b.record(1.0, EventKind::RpcDedup { id: 1 });
        let rec = shared.extract().unwrap();
        assert_eq!(rec.trace.len(), 2);
    }

    #[test]
    fn off_handle_is_inert() {
        let mut off = SharedRecorder::off();
        assert!(!off.enabled());
        off.record(0.0, EventKind::RpcCall { id: 1 });
        assert!(off.extract().is_none());
    }
}
