//! The Saba controller (§5): bandwidth calculation, application → PL →
//! queue mapping, and switch orchestration.
//!
//! §5.4 describes one per-port computation whose state is either held
//! globally or sharded by switch group. The code follows: one generic
//! [`epoch::Controller`] runs the dirty-set → solve → map → diff epoch,
//! and the two designs are policies over it:
//!
//! - [`central::CentralController`] — global state: exact
//!   per-application Eq. 2 solves, online application-to-PL clustering
//!   updated on every register/deregister.
//! - [`distributed::DistributedController`] — link shards that fetch a
//!   *profile-time* application-to-PL mapping and PL hierarchy from a
//!   shared [`distributed::MappingDb`] and solve Eq. 2 over PL
//!   centroids rather than exact per-application models — the
//!   accuracy/scalability trade-off §8.4 study 7 quantifies (≈4 %).
//!
//! Callers that choose between the two at run time hold a
//! [`ControllerHandle`]; its constructor is the one place the flavour
//! is decided.

pub mod central;
pub mod distributed;
pub mod epoch;
pub mod handle;
pub mod plmap;
pub mod queuemap;
pub mod weights;

pub use handle::{ControllerHandle, Flavour};

use crate::fabric::PortQueueConfig;
use saba_sim::ids::LinkId;
use std::fmt;

/// A switch (re)configuration emitted by a controller — the Fig. 7
/// `enforcement` arrows (⑦, ⑪). Apply with
/// [`crate::fabric::SabaFabric::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchUpdate {
    /// The output port to reprogram.
    pub link: LinkId,
    /// The new queue configuration.
    pub config: PortQueueConfig,
}

/// Scope of the most recent allocation epoch (one reprogramming batch).
///
/// `full` marks epochs that had to sweep every Saba-carrying port —
/// recovery recomputes, and the deferred sweep after a registration
/// changed the PL-to-queue hierarchy — versus the incremental common
/// case where only the ports whose application set changed were
/// visited. `dirty` counts the ports visited, `emitted` the subset
/// whose queue configuration actually changed (the diff suppressed the
/// rest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochInfo {
    /// Whether the epoch swept all active ports rather than a dirty set.
    pub full: bool,
    /// Ports visited (solved or cache-served) this epoch.
    pub dirty: u32,
    /// `SwitchUpdate`s emitted after diffing against programmed state.
    pub emitted: u32,
}

/// Controller configuration shared by both designs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Fraction of link capacity reserved for Saba-compliant traffic
    /// (`C_saba`, Eq. 2). The evaluation uses 1.0 (§8.1); anything less
    /// leaves a statically reserved share for non-compliant traffic
    /// (§3).
    pub c_saba: f64,
    /// Number of priority levels (InfiniBand SLs: 16, §5.3).
    pub num_pls: usize,
    /// Queues per switch output port (8 on the testbed switch, §8.1),
    /// the reserved share's queue included when `c_saba < 1`.
    pub queues_per_port: usize,
    /// Minimum per-application weight floor — keeps every application
    /// live (WFQ starvation freedom, §5.2).
    pub min_weight: f64,
    /// Fraction of the per-port fair share guaranteed to every
    /// application (starvation protection). Skew buys average slowdown,
    /// but an application pushed far below its fair share enters the
    /// steep region of its own sensitivity curve; operators running
    /// dense, long-lived mixes (the §8.4 datacenter) choose stronger
    /// protection than a bursty analytics testbed (§8.2).
    pub protect_fraction: f64,
    /// Multipath path detection (paper §5, footnote 2): when enabled,
    /// the controller charges each connection to *every* link on any
    /// equal-cost shortest path and programs all of them, rather than
    /// only the single path the fabric's static ECMP hash selects.
    pub multipath: bool,
    /// Seed for clustering determinism.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            c_saba: 1.0,
            num_pls: 16,
            queues_per_port: 8,
            min_weight: 0.035,
            protect_fraction: 0.30,
            multipath: false,
            seed: 0x5aba,
        }
    }
}

impl ControllerConfig {
    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics if `c_saba` is outside `(0, 1]`, `num_pls` is 0 or above
    /// 16, or `queues_per_port` is 0 — or 1 while `c_saba < 1`: the
    /// reserved share occupies a queue of its own.
    pub fn validate(&self) {
        assert!(
            self.c_saba > 0.0 && self.c_saba <= 1.0,
            "C_saba must be in (0, 1]"
        );
        assert!(
            self.num_pls >= 1 && self.num_pls <= saba_sim::ids::ServiceLevel::COUNT,
            "InfiniBand supports at most 16 PLs"
        );
        assert!(self.queues_per_port >= 1, "a port needs at least one queue");
        assert!(
            self.c_saba >= 1.0 || self.queues_per_port >= 2,
            "a reserved share needs a queue beside Saba's"
        );
        assert!(self.min_weight >= 0.0, "min weight must be non-negative");
        assert!(
            (0.0..1.0).contains(&self.protect_fraction),
            "protect fraction must be in [0, 1)"
        );
    }
}

/// Controller errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// The workload was never profiled: no sensitivity model exists.
    UnknownWorkload(String),
    /// The application id is not registered.
    UnknownApp(saba_sim::ids::AppId),
    /// The application id is already registered.
    AlreadyRegistered(saba_sim::ids::AppId),
    /// No route exists between the connection's endpoints.
    Unreachable {
        /// Source node.
        src: saba_sim::ids::NodeId,
        /// Destination node.
        dst: saba_sim::ids::NodeId,
    },
    /// The connection id is unknown.
    UnknownConnection(u64),
    /// The application already holds a live connection with this id.
    DuplicateConnection(u64),
    /// All priority levels are exhausted and no compatible one exists.
    NoPlAvailable,
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::UnknownWorkload(w) => {
                write!(
                    f,
                    "workload {w:?} has no sensitivity model (profile it first)"
                )
            }
            ControllerError::UnknownApp(a) => write!(f, "application {a} is not registered"),
            ControllerError::AlreadyRegistered(a) => {
                write!(f, "application {a} is already registered")
            }
            ControllerError::Unreachable { src, dst } => {
                write!(f, "no route from {src} to {dst}")
            }
            ControllerError::UnknownConnection(t) => write!(f, "unknown connection tag {t}"),
            ControllerError::DuplicateConnection(t) => {
                write!(f, "connection tag {t} is already live")
            }
            ControllerError::NoPlAvailable => write!(f, "no priority level available"),
        }
    }
}

impl std::error::Error for ControllerError {}
