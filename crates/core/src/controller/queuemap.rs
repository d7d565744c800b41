//! PL → queue mapping (§5.3.2).
//!
//! The controller maintains a hierarchical clustering of the active
//! priority levels (built from their centroid coefficients). For each
//! switch output port, it finds the *first* hierarchy level at which the
//! PLs actually crossing that port collapse into at most `Q` clusters
//! (`Q` = the port's queue count) and maps each cluster to a queue.
//!
//! That search is a pure function of the hierarchy, the *set* of PLs
//! present and `Q`, and there is one derivation of it, `walk`: per
//! level, the distinct clusters of the present leaves, gathered in a
//! 16-slot array on the stack, until a level fits the budget; the
//! SL → queue table is filled from the same clusters. It allocates
//! nothing — a cold controller asks for every distinct PL set of the
//! fabric once (2,674 of them per epoch on the paper's 1,944 servers),
//! and deriving each through `Vec`s of leaves, groups and centroids
//! used to cost a quarter of the cold sweep. [`QueueMapper::map_port`]
//! dresses the walk's answer in the public [`PortMap`] shape (groups
//! as `Vec`s: tests and the conformance oracle read it);
//! [`QueueMapper::queues_for`] keeps it, as the sweep needs it, in a
//! memo owned by the mapper. With PL ids below 16 the set is a `u16`; a
//! hierarchy is never edited, only rebuilt ([`QueueMapper::build`]), and
//! the memo dies with it — there is nothing to invalidate, and at most
//! 2¹⁶ sets to remember. `saba_math`'s
//! [`Dendrogram::best_level`] / [`Dendrogram::group_subset`] are the
//! independent reference `tests/proptest_controller.rs` holds the walk
//! to.

use saba_math::Dendrogram;
use saba_sim::ids::ServiceLevel;
use std::collections::HashMap;

/// The PL hierarchy plus the PL-id ↔ leaf-index correspondence.
#[derive(Debug, Clone)]
pub struct QueueMapper {
    /// Active PL ids; leaf `i` of the dendrogram is `pls[i]`.
    pls: Vec<usize>,
    dendrogram: Dendrogram,
    /// The walk's answers, by (present-PL bitmask, budget).
    memo: HashMap<(u16, usize), PortQueues>,
}

/// What programming a port needs of its [`PortMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortQueues {
    /// [`PortMap::sl_to_queue`].
    pub sl_to_queue: [u8; ServiceLevel::COUNT],
    /// Number of queues in use (`PortMap::groups.len()`); a present
    /// PL's group is queue `sl_to_queue[pl]`.
    pub queues: usize,
}

/// A port's PL → queue mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct PortMap {
    /// The hierarchy level chosen (1-based, §5.3.2 step (b)).
    pub level: usize,
    /// PLs grouped per queue; `groups[q]` are the PLs served by queue
    /// `q`. Only PLs present at the port appear.
    pub groups: Vec<Vec<usize>>,
    /// Full SL → queue table for the port (16 entries; SLs of absent or
    /// inactive PLs fall back to queue 0).
    pub sl_to_queue: [u8; ServiceLevel::COUNT],
}

/// The clusters a port's queues stand for: `[q]` = (the present leaf
/// that introduced it, dendrogram cluster id) of queue `q`.
type Clusters = [(usize, usize); ServiceLevel::COUNT];

impl QueueMapper {
    /// Builds the hierarchy over active PL centroids.
    ///
    /// Returns `None` when no PLs are active.
    ///
    /// # Panics
    ///
    /// Panics on more than 16 PLs: a port's queues are found among at
    /// most one cluster per InfiniBand SL.
    pub fn build(centroids: &[(usize, Vec<f64>)]) -> Option<Self> {
        if centroids.is_empty() {
            return None;
        }
        assert!(
            centroids.len() <= ServiceLevel::COUNT,
            "InfiniBand supports at most 16 PLs"
        );
        let pls: Vec<usize> = centroids.iter().map(|(pl, _)| *pl).collect();
        let points: Vec<Vec<f64>> = centroids.iter().map(|(_, c)| c.clone()).collect();
        Some(Self {
            pls,
            dendrogram: Dendrogram::build(&points),
            memo: HashMap::new(),
        })
    }

    /// Active PL ids (leaf order).
    pub fn pls(&self) -> &[usize] {
        &self.pls
    }

    /// The underlying hierarchy.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// The dendrogram leaf of an active PL.
    fn leaf_of(&self, pl: usize) -> usize {
        let leaf = self.pls.iter().position(|&p| p == pl);
        leaf.unwrap_or_else(|| panic!("PL {pl} is not active"))
    }

    /// The one derivation of a port's queues: the first level at which
    /// `leaves` (present at the port, in the caller's order) occupy at
    /// most `max_queues` clusters. Queues are numbered as
    /// [`Dendrogram::group_subset`] orders its groups — ascending by
    /// the leaf that introduced each cluster, which for leaves given in
    /// ascending order is plain first appearance — and every active PL,
    /// present or not, is routed to the queue of its cluster at that
    /// level, so stray traffic of an absent PL still lands somewhere
    /// sensible (queue 0 when its cluster has no queue). Returns the
    /// level (1-based), the clusters by queue, and the queue table.
    fn walk(&self, leaves: &[usize], max_queues: usize) -> (usize, Clusters, PortQueues) {
        assert!(max_queues >= 1, "a port needs at least one queue");
        assert!(!leaves.is_empty(), "no PLs present at port");
        let mut clusters: Clusters = [(0, 0); ServiceLevel::COUNT];
        let (mut level, mut queues) = (0, usize::MAX);
        // The top level is one cluster, so some level fits.
        while queues > max_queues {
            level += 1;
            queues = 0;
            for &leaf in leaves {
                let id = self.dendrogram.cluster_of(level, leaf);
                if clusters[..queues].iter().any(|&(_, known)| known == id) {
                    continue;
                }
                queues += 1;
                if queues > max_queues {
                    break;
                }
                let at = clusters[..queues - 1].partition_point(|&(first, _)| first < leaf);
                clusters.copy_within(at..queues - 1, at + 1);
                clusters[at] = (leaf, id);
            }
        }
        let mut sl_to_queue = [0u8; ServiceLevel::COUNT];
        for (leaf, &pl) in self.pls.iter().enumerate() {
            let id = self.dendrogram.cluster_of(level, leaf);
            let queue = clusters[..queues].iter().position(|&(_, c)| c == id);
            if let (Some(q), true) = (queue, pl < ServiceLevel::COUNT) {
                sl_to_queue[pl] = q as u8;
            }
        }
        let port = PortQueues {
            sl_to_queue,
            queues,
        };
        (level, clusters, port)
    }

    /// Maps the PLs present at one port onto at most `max_queues`
    /// queues.
    ///
    /// # Panics
    ///
    /// Panics if `present_pls` is empty, contains an inactive PL, or
    /// `max_queues` is zero.
    pub fn map_port(&self, present_pls: &[usize], max_queues: usize) -> PortMap {
        let mut leaves: Vec<usize> = present_pls.iter().map(|&pl| self.leaf_of(pl)).collect();
        let (level, clusters, port) = self.walk(&leaves, max_queues);
        let mut groups = vec![Vec::new(); port.queues];
        leaves.sort_unstable();
        for leaf in leaves {
            let id = self.dendrogram.cluster_of(level, leaf);
            let queue = clusters[..port.queues].iter().position(|&(_, c)| c == id);
            groups[queue.expect("a present leaf's cluster has a queue")].push(self.pls[leaf]);
        }
        PortMap {
            level,
            groups,
            sl_to_queue: port.sl_to_queue,
        }
    }

    /// [`Self::map_port`]'s queue table for the PLs whose bits are set
    /// in `present` (ascending, as the sweep has always passed them),
    /// answered from the memo after the first ask; the first ask
    /// allocates nothing but its memo entry.
    ///
    /// # Panics
    ///
    /// As [`Self::map_port`].
    pub fn queues_for(&mut self, present: u16, max_queues: usize) -> PortQueues {
        if let Some(&known) = self.memo.get(&(present, max_queues)) {
            return known;
        }
        let (mut leaves, mut n) = ([0; ServiceLevel::COUNT], 0);
        for pl in (0..ServiceLevel::COUNT).filter(|pl| present >> pl & 1 == 1) {
            leaves[n] = self.leaf_of(pl);
            n += 1;
        }
        let (.., queues) = self.walk(&leaves[..n], max_queues);
        self.memo.insert((present, max_queues), queues);
        queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper_1d(values: &[(usize, f64)]) -> QueueMapper {
        let centroids: Vec<(usize, Vec<f64>)> =
            values.iter().map(|&(pl, v)| (pl, vec![v])).collect();
        QueueMapper::build(&centroids).unwrap()
    }

    #[test]
    fn empty_centroids_build_none() {
        assert!(QueueMapper::build(&[]).is_none());
    }

    #[test]
    fn enough_queues_means_identity_mapping() {
        let m = mapper_1d(&[(0, 0.0), (1, 5.0), (2, 10.0)]);
        let pm = m.map_port(&[0, 1, 2], 8);
        assert_eq!(pm.level, 1);
        assert_eq!(pm.groups, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(pm.sl_to_queue[0], 0);
        assert_eq!(pm.sl_to_queue[1], 1);
        assert_eq!(pm.sl_to_queue[2], 2);
    }

    #[test]
    fn scarce_queues_merge_closest_pls() {
        // PLs 0 and 1 are near each other; PL 2 is far.
        let m = mapper_1d(&[(0, 0.0), (1, 0.5), (2, 50.0)]);
        let pm = m.map_port(&[0, 1, 2], 2);
        assert_eq!(pm.groups.len(), 2);
        let merged = pm.groups.iter().find(|g| g.len() == 2).unwrap();
        assert_eq!(merged, &vec![0, 1]);
        assert_eq!(pm.sl_to_queue[0], pm.sl_to_queue[1]);
        assert_ne!(pm.sl_to_queue[0], pm.sl_to_queue[2]);
    }

    #[test]
    fn subset_of_pls_uses_lowest_feasible_level() {
        let m = mapper_1d(&[(0, 0.0), (1, 1.0), (5, 100.0), (7, 101.0)]);
        // Only PLs 5 and 7 cross this port; 2 queues suffice at level 1.
        let pm = m.map_port(&[5, 7], 2);
        assert_eq!(pm.level, 1);
        assert_eq!(pm.groups, vec![vec![5], vec![7]]);
    }

    #[test]
    fn one_queue_collapses_everything() {
        let m = mapper_1d(&[(0, 0.0), (1, 3.0), (2, 9.0), (3, 27.0)]);
        let pm = m.map_port(&[0, 1, 2, 3], 1);
        assert_eq!(pm.groups.len(), 1);
        assert_eq!(pm.groups[0], vec![0, 1, 2, 3]);
        for pl in [0usize, 1, 2, 3] {
            assert_eq!(pm.sl_to_queue[pl], 0);
        }
    }

    #[test]
    fn absent_pls_route_with_their_cluster() {
        let m = mapper_1d(&[(0, 0.0), (1, 0.2), (2, 40.0)]);
        // Only PL 0 and 2 present; PL 1's traffic (if any strays here)
        // should ride with PL 0's queue once they are clustered together.
        let pm = m.map_port(&[0, 2], 2);
        assert_eq!(pm.sl_to_queue[0], pm.sl_to_queue[1]);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn inactive_pl_rejected() {
        let m = mapper_1d(&[(0, 0.0)]);
        let _ = m.map_port(&[3], 2);
    }
}
