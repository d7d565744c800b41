//! Shuffle communication patterns.
//!
//! A stage's communication is described by a pattern over the job's
//! node list plus a total byte volume; [`ShufflePattern::transfers`]
//! expands that into concrete `(sender, receiver, bytes)` triples. The
//! patterns cover the bulk-communication structures of the frameworks
//! the paper targets (§1: "hundreds of connections transferring data
//! between servers across multiple processing stages").

use serde::{Deserialize, Serialize};

/// A communication pattern among the `n` nodes of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShufflePattern {
    /// Partitioned all-to-all: node `i` sends an equal share to its
    /// `fanout` successors `(i+1) … (i+fanout) mod n` — the classic
    /// hash-partitioned shuffle with a bounded per-node connection
    /// count.
    AllToAll {
        /// Peers each node sends to (clamped to `n - 1`).
        fanout: usize,
    },
    /// Ring exchange: node `i` sends to `(i+1) mod n` (allreduce-style
    /// aggregation step).
    Ring,
    /// All nodes send to node 0 (result collection).
    Gather,
    /// Node 0 sends to all other nodes (model/parameter distribution).
    Broadcast,
}

impl ShufflePattern {
    /// Expands the pattern into `(sender_index, receiver_index, bytes)`
    /// transfers over `n` nodes carrying `total_bytes` in aggregate.
    ///
    /// Returns an empty vector when `n < 2` or `total_bytes <= 0` (a
    /// single-node job has no network phase).
    pub fn transfers(&self, n: usize, total_bytes: f64) -> Vec<(usize, usize, f64)> {
        if !self.has_transfers(n, total_bytes) {
            return Vec::new();
        }
        match *self {
            ShufflePattern::AllToAll { fanout } => {
                let k = fanout.clamp(1, n - 1);
                let per = total_bytes / (n * k) as f64;
                let mut out = Vec::with_capacity(n * k);
                for i in 0..n {
                    for d in 1..=k {
                        out.push((i, (i + d) % n, per));
                    }
                }
                out
            }
            ShufflePattern::Ring => {
                let per = total_bytes / n as f64;
                (0..n).map(|i| (i, (i + 1) % n, per)).collect()
            }
            ShufflePattern::Gather => {
                let per = total_bytes / (n - 1) as f64;
                (1..n).map(|i| (i, 0, per)).collect()
            }
            ShufflePattern::Broadcast => {
                let per = total_bytes / (n - 1) as f64;
                (1..n).map(|i| (0, i, per)).collect()
            }
        }
    }

    /// Whether [`Self::transfers`] would yield any transfer, without
    /// expanding them: every pattern does unless `n < 2` or
    /// `total_bytes <= 0`.
    pub fn has_transfers(&self, n: usize, total_bytes: f64) -> bool {
        n >= 2 && total_bytes > 0.0
    }

    /// The maximum bytes any single node must *send* under this pattern
    /// — the NIC-egress bound that determines the stage's communication
    /// time at a given NIC rate.
    pub fn max_egress_bytes(&self, n: usize, total_bytes: f64) -> f64 {
        if n < 2 || total_bytes <= 0.0 {
            return 0.0;
        }
        match *self {
            ShufflePattern::AllToAll { .. } | ShufflePattern::Ring => total_bytes / n as f64,
            ShufflePattern::Gather => total_bytes / (n - 1) as f64,
            ShufflePattern::Broadcast => total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(transfers: &[(usize, usize, f64)]) -> f64 {
        transfers.iter().map(|t| t.2).sum()
    }

    #[test]
    fn all_to_all_conserves_bytes_and_fanout() {
        let p = ShufflePattern::AllToAll { fanout: 3 };
        let t = p.transfers(8, 800.0);
        assert_eq!(t.len(), 24);
        assert!((total(&t) - 800.0).abs() < 1e-9);
        // No self transfers, receivers are the 3 successors.
        for &(s, d, _) in &t {
            assert_ne!(s, d);
            let delta = (d + 8 - s) % 8;
            assert!((1..=3).contains(&delta));
        }
    }

    #[test]
    fn all_to_all_fanout_clamped() {
        let p = ShufflePattern::AllToAll { fanout: 100 };
        let t = p.transfers(4, 120.0);
        assert_eq!(t.len(), 4 * 3);
        assert!((total(&t) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_a_single_cycle() {
        let t = ShufflePattern::Ring.transfers(5, 50.0);
        assert_eq!(t.len(), 5);
        for &(s, d, b) in &t {
            assert_eq!(d, (s + 1) % 5);
            assert!((b - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gather_targets_node_zero() {
        let t = ShufflePattern::Gather.transfers(4, 90.0);
        assert_eq!(t.len(), 3);
        for &(s, d, b) in &t {
            assert_ne!(s, 0);
            assert_eq!(d, 0);
            assert!((b - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn broadcast_comes_from_node_zero() {
        let t = ShufflePattern::Broadcast.transfers(3, 10.0);
        assert_eq!(t.len(), 2);
        for &(s, _, b) in &t {
            assert_eq!(s, 0);
            assert!((b - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs_yield_no_transfers() {
        for p in [
            ShufflePattern::AllToAll { fanout: 2 },
            ShufflePattern::Ring,
            ShufflePattern::Gather,
            ShufflePattern::Broadcast,
        ] {
            assert!(p.transfers(1, 100.0).is_empty());
            assert!(p.transfers(4, 0.0).is_empty());
            assert_eq!(p.max_egress_bytes(1, 100.0), 0.0);
        }
    }

    #[test]
    fn has_transfers_is_whether_transfers_yields_any() {
        for p in [
            ShufflePattern::AllToAll { fanout: 0 },
            ShufflePattern::AllToAll { fanout: 3 },
            ShufflePattern::Ring,
            ShufflePattern::Gather,
            ShufflePattern::Broadcast,
        ] {
            for n in 0..6 {
                for bytes in [-1.0, 0.0, 1e-300, 600.0] {
                    let yields = !p.transfers(n, bytes).is_empty();
                    assert_eq!(p.has_transfers(n, bytes), yields, "{p:?} n={n} {bytes}");
                }
            }
        }
    }

    #[test]
    fn max_egress_matches_transfers() {
        for p in [
            ShufflePattern::AllToAll { fanout: 2 },
            ShufflePattern::Ring,
            ShufflePattern::Gather,
            ShufflePattern::Broadcast,
        ] {
            let n = 6;
            let t = p.transfers(n, 600.0);
            let mut egress = vec![0.0; n];
            for &(s, _, b) in &t {
                egress[s] += b;
            }
            let max = egress.iter().cloned().fold(0.0, f64::max);
            assert!(
                (max - p.max_egress_bytes(n, 600.0)).abs() < 1e-9,
                "pattern {p:?}: {max} vs {}",
                p.max_egress_bytes(n, 600.0)
            );
        }
    }
}
