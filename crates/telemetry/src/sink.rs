//! The `TelemetrySink` trait and its zero-cost null implementation.
//!
//! Instrumented components are generic over a sink; the default
//! [`NullSink`] has empty method bodies and `enabled() == false`, so
//! monomorphization deletes every hook. `saba-cluster`'s `corun_faults`
//! tests check that a null-sink run's results are exactly the traced
//! run's: recording perturbs nothing.
//! Hooks that would *build* data to record (format a string, count
//! bundles) must guard on [`TelemetrySink::enabled`] so the work itself
//! disappears too.

use crate::event::EventKind;
use crate::json::JsonValue;

/// Receives telemetry from instrumented components.
///
/// `t` is always *simulated* time. Wall-clock durations go through
/// [`TelemetrySink::observe`] under a `wall.`-prefixed metric name,
/// never into events, keeping traces deterministic.
pub trait TelemetrySink {
    /// Whether recording is live. Call sites use this to skip building
    /// event payloads entirely when telemetry is off.
    fn enabled(&self) -> bool;

    /// Records a structured event at simulated time `t`.
    fn record(&mut self, t: f64, kind: EventKind);

    /// Adds `by` to a named counter metric.
    fn inc(&mut self, name: &str, by: u64) {
        let _ = (name, by);
    }

    /// Sets a named gauge metric.
    fn gauge(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records a sample into a named histogram metric.
    fn observe(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Asks the sink to capture a flight-recorder snapshot.
    fn snapshot(&mut self, t: f64, reason: &str, state: JsonValue) {
        let _ = (t, reason, state);
    }
}

/// The disabled sink: every hook is a no-op the optimizer removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _t: f64, _kind: EventKind) {}

    #[inline(always)]
    fn inc(&mut self, _name: &str, _by: u64) {}

    #[inline(always)]
    fn gauge(&mut self, _name: &str, _value: f64) {}

    #[inline(always)]
    fn observe(&mut self, _name: &str, _value: f64) {}

    #[inline(always)]
    fn snapshot(&mut self, _t: f64, _reason: &str, _state: JsonValue) {}
}

impl<S: TelemetrySink> TelemetrySink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, t: f64, kind: EventKind) {
        (**self).record(t, kind);
    }

    fn inc(&mut self, name: &str, by: u64) {
        (**self).inc(name, by);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        (**self).gauge(name, value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        (**self).observe(name, value);
    }

    fn snapshot(&mut self, t: f64, reason: &str, state: JsonValue) {
        (**self).snapshot(t, reason, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_zero_sized() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(0.0, EventKind::RpcCall { id: 1 });
        s.inc("c", 1);
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
    }
}
