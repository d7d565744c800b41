//! PL → queue mapping (§5.3.2).
//!
//! The controller maintains a hierarchical clustering of the active
//! priority levels (built from their centroid coefficients). For each
//! switch output port, it finds the *first* hierarchy level at which the
//! PLs actually crossing that port collapse into at most `Q` clusters
//! (`Q` = the port's queue count) and maps each cluster to a queue.
//!
//! That search ([`QueueMapper::map_port`]) is a pure function of the
//! hierarchy, the *set* of PLs present and `Q`, and a controller asks
//! it the same few questions for every port it visits. With PL ids
//! below 16 the set is a `u16`, so [`QueueMapper::queues_for`] keeps the
//! answers in a memo owned by the mapper: a hierarchy is never edited,
//! only rebuilt ([`QueueMapper::build`]), and the memo dies with it —
//! there is nothing to invalidate, and at most 2¹⁶ sets to remember.

use saba_math::Dendrogram;
use saba_sim::ids::ServiceLevel;
use std::collections::HashMap;

/// The PL hierarchy plus the PL-id ↔ leaf-index correspondence.
#[derive(Debug, Clone)]
pub struct QueueMapper {
    /// Active PL ids; leaf `i` of the dendrogram is `pls[i]`.
    pls: Vec<usize>,
    dendrogram: Dendrogram,
    /// [`Self::map_port`]'s answers, by (present-PL bitmask, budget).
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

impl QueueMapper {
    /// Builds the hierarchy over active PL centroids.
    ///
    /// Returns `None` when no PLs are active.
    pub fn build(centroids: &[(usize, Vec<f64>)]) -> Option<Self> {
        if centroids.is_empty() {
            return None;
        }
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

    /// Maps the PLs present at one port onto at most `max_queues`
    /// queues.
    ///
    /// # Panics
    ///
    /// Panics if `present_pls` is empty, contains an inactive PL, or
    /// `max_queues` is zero.
    pub fn map_port(&self, present_pls: &[usize], max_queues: usize) -> PortMap {
        assert!(max_queues >= 1, "a port needs at least one queue");
        assert!(!present_pls.is_empty(), "no PLs present at port");
        let leaves: Vec<usize> = present_pls
            .iter()
            .map(|pl| {
                self.pls
                    .iter()
                    .position(|p| p == pl)
                    .unwrap_or_else(|| panic!("PL {pl} is not active"))
            })
            .collect();
        let level = self.dendrogram.best_level(&leaves, max_queues);
        let clusters = self.dendrogram.group_subset(&leaves, max_queues);

        let mut groups = Vec::with_capacity(clusters.len());
        let mut sl_to_queue = [0u8; ServiceLevel::COUNT];
        for (q, cluster) in clusters.iter().enumerate() {
            groups.push(cluster.leaves.iter().map(|&l| self.pls[l]).collect());
            // Any PL (present or not) whose cluster at this level matches
            // gets routed to the same queue, so stray traffic of an
            // absent PL still lands somewhere sensible.
            for (leaf, &pl) in self.pls.iter().enumerate() {
                if self.dendrogram.cluster_of(level, leaf) == cluster.id && pl < ServiceLevel::COUNT
                {
                    sl_to_queue[pl] = q as u8;
                }
            }
        }
        PortMap {
            level,
            groups,
            sl_to_queue,
        }
    }

    /// [`Self::map_port`] for the PLs whose bits are set in `present`
    /// (ascending, as the sweep has always passed them), answered from
    /// the memo after the first ask.
    ///
    /// # Panics
    ///
    /// As [`Self::map_port`].
    pub fn queues_for(&mut self, present: u16, max_queues: usize) -> PortQueues {
        if let Some(&known) = self.memo.get(&(present, max_queues)) {
            return known;
        }
        let pls: Vec<usize> = (0..ServiceLevel::COUNT)
            .filter(|pl| present >> pl & 1 == 1)
            .collect();
        let map = self.map_port(&pls, max_queues);
        let queues = PortQueues {
            sl_to_queue: map.sl_to_queue,
            queues: map.groups.len(),
        };
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
