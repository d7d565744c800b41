//! `saba-service`: the Saba control plane as a long-running,
//! multi-tenant allocation **service** (DESIGN.md §13).
//!
//! The in-sim library/RPC layer of `saba-core` answers one question —
//! *what should the fabric do right now* — but a datacenter control
//! plane must also survive its own churn: worker crashes, torn log
//! tails, tenants that hammer the registration path. This crate wraps
//! the existing incremental-epoch controllers in the production shape
//! that SNIPPETS.md's ADR-0010 (dark_tower) sketches:
//!
//! * [`wal`] — a durable registration log: append-only, CRC-framed
//!   records (the wire form of each acked operation), fsync batching
//!   (group commit), torn-write-tolerant recovery, and compaction to
//!   snapshots that keep the tenant history.
//! * [`shard`] — the sharded service tier: tenants are consistently
//!   assigned to shards, each shard drives one incremental-epoch
//!   [`saba_core::controller::ControllerHandle`] (either flavour),
//!   speaks the hardened `saba_core::rpc` protocol, and owns its log's
//!   I/O — group commit, compaction, recovery by replay.
//! * [`front`] — the one I/O-free core every request crosses: the
//!   pre-admission scrape answer, edge admission, shard routing, the
//!   post-batch metrics/trace pass, liveness and failover accounting.
//!   It is driven two ways:
//!   * [`service`] — on a caller-advanced logical clock with shards
//!     called directly: deterministic, the form the conformance drills
//!     and seeded-telemetry tests run, plus a
//!     [`service::ServiceClient`] implementing
//!     `saba_core::library::Transport` so an unmodified `SabaLib` runs
//!     its Fig. 7 lifecycle against the service;
//!   * [`runtime`] — on wall time and on its callers' threads: the
//!     caller that finds a shard free leads it, serving the calls
//!     queued behind it as one group commit (a bounded queue —
//!     backpressure → `ShardBusy`), and the call that finds a shard
//!     dead takes it over in place from its durable log.
//! * [`heartbeat`] — the logical driver's liveness detector: a
//!   supervisor declares a shard dead after a missed-beat window on
//!   the caller's clock.
//! * [`admission`] — the front's edge admission: per-tenant token
//!   buckets push back with *retryable* error codes before overload
//!   reaches a shard.
//! * [`net`] — a real `std::net` TCP front door for [`runtime`],
//!   speaking the same length-prefixed frames as the in-process paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod front;
pub mod heartbeat;
pub mod net;
pub mod runtime;
pub mod service;
pub mod shard;
pub mod wal;

pub use admission::{Admission, AdmissionCfgError, Admit, TokenBucketCfg};
pub use front::{FailoverReport, Front, ServiceConfig, MONOTONE_COUNTERS, REQUIRED_FAMILIES};
pub use heartbeat::{HeartbeatConfig, Supervisor};
pub use net::{TcpServiceServer, TcpTransport};
pub use runtime::{RuntimeConfig, RuntimeReport, ServiceRuntime};
pub use service::{AllocationService, ServiceClient};
pub use shard::{Flavour, Shard, ShardMap, ShardSpec, TakeoverReport};
pub use wal::{DurableLog, ReplayState, ScanReport};
