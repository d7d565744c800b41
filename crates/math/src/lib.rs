//! Numeric substrate for the Saba reproduction.
//!
//! This crate provides, from scratch, every numeric algorithm the paper
//! leans on external packages for:
//!
//! - [`poly`] / [`fit`] — polynomial sensitivity models and least-squares
//!   regression with goodness-of-fit (R²), replacing the paper's use of a
//!   generic regression toolkit (§4.1–4.2).
//! - [`kmeans`] — K-means clustering for application → priority-level
//!   mapping (§5.3.1, citing MacQueen).
//! - [`hierarchical`] — agglomerative hierarchical clustering with a full
//!   merge dendrogram for PL → queue mapping (§5.3.2, citing fastcluster).
//! - [`optimize`] — the exact solver for the controller's
//!   weight-calculation problem, Eq. 2 (`min Σ Dᵢ(wᵢ) s.t. Σ wᵢ = C`), replacing NLopt SLSQP.
//! - [`stats`] — geometric means, percentiles and empirical CDFs used
//!   throughout the evaluation (§8).
//! - [`linalg`] — the small dense linear-algebra kernel backing the
//!   regression code.
//!
//! All routines are deterministic given their inputs (clustering takes an
//! explicit RNG) and contain no `unsafe` code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod hierarchical;
pub mod kmeans;
pub mod linalg;
pub mod optimize;
pub mod parallel;
pub mod poly;
pub mod stats;

pub use fit::{polyfit, r_squared, FitError, PolyFit};
pub use hierarchical::{Dendrogram, Merge};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use optimize::{
    minimize_weights, solve_dual, OptimizeError, SolveScratch, WeightProblem, WeightSolution,
};
pub use parallel::{default_threads, parallel_map};
pub use poly::Polynomial;
