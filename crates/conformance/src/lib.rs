//! Differential and property-based conformance harness.
//!
//! See `DESIGN.md` §11. The crate pairs deterministic, seed-driven
//! scenario generators ([`scenario`]) with invariant oracles
//! ([`oracles`]), textbook reference solvers ([`reference`]),
//! cross-implementation differential suites ([`differential`]),
//! checked-in golden CSVs for the paper-figure pipelines ([`golden`]),
//! and a greedy scenario shrinker ([`shrink`]) used by the
//! `conformance` binary to reduce any failing seed to a minimal
//! replayable artifact.

#![warn(missing_docs)]

pub mod differential;
pub mod golden;
pub mod incremental;
pub mod obs;
pub mod oracles;
pub mod reference;
pub mod scenario;
pub mod scenarios;
pub mod shrink;
