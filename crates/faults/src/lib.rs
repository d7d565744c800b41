//! Deterministic fault injection & graceful degradation for Saba.
//!
//! The paper's allocator is evaluated on a healthy fabric; this crate
//! asks what happens when the datacenter misbehaves, and makes the
//! answer *reproducible*:
//!
//! * [`schedule`] — seeded, serde-serializable fault schedules over a
//!   severity ladder (soft degradation → cable/switch failure →
//!   controller and shard crashes → lossy control-plane RPC).
//! * [`injector`] — replays a schedule through the simulation's own
//!   timer queue, so faults interleave deterministically with traffic.
//! * [`transport`] — a lossy RPC channel plus the retry/backoff and
//!   idempotent-request-id machinery that makes it survivable.
//! * [`control`] — the simulator's controller crash model: a wrapper
//!   around a core `ControllerHandle` with stale-weight operation and
//!   one replay-based recovery arm per flavour.
//!
//! `saba-bench`'s `repro resilience` experiment drives all four against
//! the Fig. 8 co-run to measure how much of Saba's speedup survives
//! faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod injector;
pub mod schedule;
pub mod transport;

pub use control::{ResilienceStats, ResilientController};
pub use injector::{ControlAction, FaultInjector, InjectorStats, FAULT_KEY_BASE};
pub use schedule::{FaultKind, FaultSchedule, FaultSpec, ScheduleConfig};
pub use transport::{DedupServer, ReliableTransport, RetryPolicy, RpcFaultConfig, RpcStats};
