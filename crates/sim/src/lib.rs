//! Fluid (flow-level) discrete-event datacenter network simulator.
//!
//! This crate is the substrate standing in for the paper's 32-server
//! InfiniBand testbed and its OMNeT++ simulation of a 1,944-server
//! spine-leaf cluster (§8.1). Saba's mechanism acts entirely on *rates*
//! — WFQ queue weights shape per-application bandwidth — so a fluid
//! model that computes exact weighted max-min rate allocations
//! reproduces the behaviour the paper's packet simulator exhibits at the
//! seconds-scale job-completion granularity the evaluation measures.
//!
//! Modules:
//!
//! - [`ids`] — strongly-typed identifiers (nodes, links, flows, apps,
//!   service levels).
//! - [`topology`] — nodes and directed links (one link per switch/NIC
//!   output port), with builders for the paper's two configurations:
//!   a single-switch cluster (testbed, §8.1) and a three-tier
//!   spine-leaf fabric (simulation, §8.1).
//! - [`routing`] — shortest-path forwarding tables with deterministic
//!   ECMP, mirroring InfiniBand's destination-based forwarding.
//! - [`sharing`] — the rate allocator: hierarchical (queue-weighted)
//!   progressive-filling max-min with strict-priority classes and
//!   per-flow rate caps (token-bucket NIC throttling, §7.1).
//! - [`engine`] — the discrete-event loop: timers, flow lifetimes,
//!   utilization probes. Drivers pull [`engine::Event`]s, so no
//!   callback plumbing is needed.
//! - [`probe`] — per-link utilization time series (Fig. 2).
//! - [`packet`] — a deficit-round-robin *packet-level* port simulator
//!   used to cross-validate the fluid model against packet ground
//!   truth (the evidence behind DESIGN.md §2's substitution table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod ids;
pub mod packet;
pub mod probe;
pub mod routing;
pub mod sharing;
pub mod topology;

pub use engine::{ActiveFlowViews, Event, FabricModel, FlowNames, FlowSpec, Simulation};
pub use ids::{AppId, FlowId, LinkId, NodeId, ServiceLevel};
pub use routing::{LinkMembers, Routes};
pub use sharing::{
    compute_rates, compute_rates_into, FlowSource, FlowView, FlowWeights, SharingFlow,
    SharingScratch,
};
pub use topology::{NodeKind, SpineLeafConfig, Topology};

/// Link capacity of the paper's testbed and simulation: 56 Gb/s
/// (ConnectX-3 FDR InfiniBand), expressed in bytes per second.
pub const LINK_56G_BPS: f64 = 56.0e9 / 8.0;
