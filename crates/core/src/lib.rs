//! Saba: application-aware datacenter bandwidth allocation.
//!
//! This crate implements the paper's contribution proper — the three
//! components of Fig. 3:
//!
//! - [`profiler`] — the **offline profiler** (§4): runs a workload in
//!   isolation at a set of NIC throttles, measures completion-time
//!   slowdowns, and fits a polynomial *sensitivity model* (Eq. 1),
//!   recorded in a [`sensitivity::SensitivityTable`].
//! - [`controller`] — the **controller** (§5): tracks registered
//!   applications and their connections, solves the per-port weight
//!   problem (Eq. 2), maps applications → priority levels (K-means,
//!   §5.3.1) and PLs → the switch's limited queues (hierarchical
//!   clustering, §5.3.2), and emits switch configuration updates. Both
//!   the centralized and the distributed design (§5.4) are provided.
//! - [`library`] — the **Saba library** (§6): the connection manager
//!   and the four-call software interface (`saba_app_register`,
//!   `saba_conn_create`, `saba_conn_destroy`, `saba_app_deregister`),
//!   speaking a small length-prefixed [`rpc`] protocol.
//!
//! Enforcement happens in the [`fabric`] module: a
//! [`saba_sim::engine::FabricModel`] whose per-port queue configurations
//! (SL → VL map plus WFQ weights, §7.2) shape every flow's rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod fabric;
pub mod library;
pub mod profiler;
pub mod rpc;
pub mod sensitivity;

pub use controller::central::CentralController;
pub use controller::distributed::{DistributedController, MappingDb};
pub use controller::epoch::{Controller, EpochStats, Policy};
pub use controller::{ControllerConfig, ControllerError, SwitchUpdate};
pub use fabric::{PortQueueConfig, SabaFabric};
pub use library::{SabaLib, Transport};
pub use profiler::{Profiler, ProfilerConfig};
pub use sensitivity::{SensitivityModel, SensitivityTable};
