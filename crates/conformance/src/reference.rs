//! A slow, obviously-correct weighted max-min reference solver.
//!
//! [`saba_sim::sharing::compute_rates`] is heavily optimized: an
//! indexed fill heap over flat per-class arrays, flow bundling, reused
//! scratch buffers, a bounded number of work-conservation refill passes. This module implements
//! the same allocation *semantics* — strict-priority classes, per-hop
//! weights, rate caps, progressive filling — as the textbook
//! bottleneck-freezing algorithm [Bertsekas & Gallager §6.5.2], with
//! none of the engineering:
//!
//! - everything is recomputed from scratch after every bottleneck
//!   selection (`O(F² · L)` per pass instead of one in-place heap
//!   update per frozen hop);
//! - the schedule is stated directly: pick the globally most-contended
//!   link, freeze its unfrozen flows in canonical order (levels
//!   re-read against live residuals after every freeze, which is what
//!   makes flow bundling exact), repeat;
//! - refill passes run to a fixed point instead of a bounded count.
//!
//! The conformance oracles diff the production allocator against this
//! reference over thousands of seeded flow sets; any divergence beyond
//! floating-point noise is a finding.

use saba_sim::sharing::SharingFlow;

/// Hard bound on refill passes — a fixed-point guard, far above what
/// any finite flow set needs (each pass either adds rate or stops).
const MAX_REFILL_PASSES: usize = 64;

/// Rate added below this fraction of total capacity ends the refill
/// loop (the allocator stops at 1e-6, its `REFILL_EPSILON`).
const REFILL_EPSILON: f64 = 1e-9;

/// Computes per-flow max-min rates (bytes/s), aligned with `flows`.
///
/// Semantics match [`saba_sim::sharing::compute_rates`]: `capacities[l]`
/// is the capacity of `LinkId(l)`; flows of strict-priority class `p`
/// only see capacity left over by classes `< p`; a flow with an empty
/// path gets its rate cap (or `f64::INFINITY`).
///
/// # Panics
///
/// Panics if a flow references an out-of-range link or has mismatched
/// `path`/`weights` lengths.
pub fn reference_rates(capacities: &[f64], flows: &[SharingFlow]) -> Vec<f64> {
    for (i, f) in flows.iter().enumerate() {
        assert_eq!(
            f.path.len(),
            f.weights.len(),
            "flow {i}: path/weights length mismatch"
        );
        for &l in &f.path {
            assert!(
                (l.0 as usize) < capacities.len(),
                "flow {i}: link {l} out of range"
            );
        }
    }

    let n = flows.len();
    let mut rates = vec![0.0; n];
    let mut residual: Vec<f64> = capacities.to_vec();
    let total_capacity: f64 = capacities.iter().sum();

    let mut classes: Vec<u8> = flows.iter().map(|f| f.priority).collect();
    classes.sort_unstable();
    classes.dedup();

    for class in classes {
        // Canonical processing order within the class: the same
        // (path, weights, cap) total order the production allocator
        // sorts its bundles by, with the flow index as the final
        // tie-break. Freezing order only matters for exact ties, and
        // there both solvers now agree.
        let mut members: Vec<usize> = (0..n).filter(|&i| flows[i].priority == class).collect();
        members.sort_by(|&a, &b| {
            hash_bundle_key(&flows[a])
                .cmp(&hash_bundle_key(&flows[b]))
                .then_with(|| cmp_flows(&flows[a], &flows[b]))
                .then(a.cmp(&b))
        });

        for &i in &members {
            if flows[i].path.is_empty() {
                rates[i] = if flows[i].rate_cap.is_finite() {
                    flows[i].rate_cap
                } else {
                    f64::INFINITY
                };
            }
        }

        for _ in 0..MAX_REFILL_PASSES {
            let added = fill_pass(&mut residual, flows, &members, &mut rates);
            if added <= REFILL_EPSILON * total_capacity.max(1.0) {
                break;
            }
        }
    }
    rates
}

/// One progressive-filling pass: every member with headroom starts
/// unfrozen; repeatedly find the globally most-contended link (minimum
/// fill level, ties to the lowest link id) and freeze *all* of its
/// unfrozen flows, in canonical order, each at the minimum of its
/// weighted share over its path capped by its remaining headroom —
/// with per-link residuals and weight sums updated live after every
/// freeze, exactly the allocator's batch-freeze semantics. Returns the
/// total rate added.
fn fill_pass(
    residual: &mut [f64],
    flows: &[SharingFlow],
    members: &[usize],
    rates: &mut [f64],
) -> f64 {
    let mut unfrozen: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&i| !flows[i].path.is_empty() && flows[i].rate_cap - rates[i] > 0.0)
        .collect();
    let mut sumw = vec![0.0; residual.len()];
    let mut added = 0.0;

    while !unfrozen.is_empty() {
        // Recompute the per-link weight sums over unfrozen flows.
        sumw.fill(0.0);
        for &i in &unfrozen {
            for (hop, &l) in flows[i].path.iter().enumerate() {
                sumw[l.0 as usize] += flows[i].weights[hop];
            }
        }
        // The bottleneck link: minimum fill level, lowest id on ties.
        let mut bottleneck: Option<(f64, usize)> = None;
        for (l, &w) in sumw.iter().enumerate() {
            if w > 0.0 {
                let level = residual[l].max(0.0) / w;
                if bottleneck.is_none_or(|(best, _)| level < best) {
                    bottleneck = Some((level, l));
                }
            }
        }
        let Some((_, bl)) = bottleneck else { break };

        // Freeze every unfrozen flow crossing the bottleneck, in
        // canonical order, re-reading levels after each freeze.
        let batch: Vec<usize> = unfrozen
            .iter()
            .copied()
            .filter(|&i| flows[i].path.iter().any(|&l| l.0 as usize == bl))
            .collect();
        debug_assert!(!batch.is_empty());
        for i in batch {
            let f = &flows[i];
            let mut share = f.rate_cap - rates[i];
            for (hop, &l) in f.path.iter().enumerate() {
                let l = l.0 as usize;
                let level = residual[l].max(0.0) / sumw[l];
                share = share.min(f.weights[hop] * level);
            }
            let share = share.max(0.0);
            rates[i] += share;
            added += share;
            for (hop, &l) in f.path.iter().enumerate() {
                let l = l.0 as usize;
                residual[l] = (residual[l] - share).max(0.0);
                sumw[l] -= f.weights[hop];
            }
            unfrozen.retain(|&j| j != i);
        }
    }
    added
}

/// FNV-1a hash of a flow's bundle key — the allocator's sort prefix.
/// Flows are processed in (priority, hash, key, index) order, so the
/// reference must hash identically for its freezing order to match.
fn hash_bundle_key(f: &SharingFlow) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(FNV_PRIME);
    };
    mix(f.path.len() as u64);
    for (hop, &l) in f.path.iter().enumerate() {
        mix(u64::from(l.0));
        mix(f.weights[hop].to_bits());
    }
    mix(f.rate_cap.to_bits());
    h
}

/// The production allocator's canonical bundle order (priority is equal
/// within a class): path length, path, per-hop weights, rate cap.
fn cmp_flows(a: &SharingFlow, b: &SharingFlow) -> std::cmp::Ordering {
    a.path
        .len()
        .cmp(&b.path.len())
        .then_with(|| a.path.cmp(&b.path))
        .then_with(|| {
            for hop in 0..a.weights.len() {
                let ord = a.weights[hop].total_cmp(&b.weights[hop]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        })
        .then_with(|| a.rate_cap.total_cmp(&b.rate_cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_sim::ids::LinkId;

    fn flow(path: &[u32], weights: &[f64]) -> SharingFlow {
        SharingFlow {
            path: path.iter().map(|&l| LinkId(l)).collect(),
            weights: weights.to_vec(),
            priority: 0,
            rate_cap: f64::INFINITY,
        }
    }

    #[test]
    fn single_flow_takes_the_link() {
        let r = reference_rates(&[100.0], &[flow(&[0], &[1.0])]);
        assert!((r[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_split() {
        let r = reference_rates(&[100.0], &[flow(&[0], &[3.0]), flow(&[0], &[1.0])]);
        assert!((r[0] - 75.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 25.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn classic_parking_lot() {
        // One 3-hop flow against one 1-hop flow per link: 50/50 splits.
        let flows = [
            flow(&[0, 1, 2], &[1.0, 1.0, 1.0]),
            flow(&[0], &[1.0]),
            flow(&[1], &[1.0]),
            flow(&[2], &[1.0]),
        ];
        let r = reference_rates(&[100.0; 3], &flows);
        for (i, x) in r.iter().enumerate() {
            assert!((x - 50.0).abs() < 1e-9, "flow {i}: {x}");
        }
    }

    #[test]
    fn rate_cap_slack_is_redistributed() {
        let mut capped = flow(&[0], &[1.0]);
        capped.rate_cap = 10.0;
        let r = reference_rates(&[100.0], &[capped, flow(&[0], &[1.0])]);
        assert!((r[0] - 10.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 90.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn strict_priorities_starve_lower_classes() {
        let mut low = flow(&[0], &[1.0]);
        low.priority = 1;
        let r = reference_rates(&[100.0], &[flow(&[0], &[1.0]), low]);
        assert!((r[0] - 100.0).abs() < 1e-9, "{r:?}");
        assert!(r[1].abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn high_class_cap_leaves_room_for_low_class() {
        let mut high = flow(&[0], &[1.0]);
        high.rate_cap = 30.0;
        let mut low = flow(&[0], &[1.0]);
        low.priority = 1;
        let r = reference_rates(&[100.0], &[high, low]);
        assert!((r[0] - 30.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 70.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn empty_path_gets_cap() {
        let mut f = SharingFlow::best_effort(vec![]);
        f.rate_cap = 42.0;
        let r = reference_rates(&[100.0], &[f, SharingFlow::best_effort(vec![])]);
        assert_eq!(r[0], 42.0);
        assert_eq!(r[1], f64::INFINITY);
    }
}
