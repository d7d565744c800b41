//! PL → queue mapping (§5.3.2).
//!
//! The controller maintains a hierarchical clustering of the active
//! priority levels (built from their centroid coefficients). For each
//! switch output port, it finds the *first* hierarchy level at which the
//! PLs actually crossing that port collapse into at most `Q` clusters
//! (`Q` = the port's queue count) and maps each cluster to a queue.
//!
//! That search is a pure function of the hierarchy, the *set* of PLs
//! present and `Q`, and there is one derivation of it, `walk`, over
//! bit sets: [`QueueMapper::build`] keeps, per level and leaf, the
//! leaves of that leaf's cluster as a `u16`, so a level's clusters of
//! the present leaves are counted with one `seen` mask and the queues
//! are numbered by the leaf that introduced each cluster, the order
//! [`Dendrogram::group_subset`] gives its groups. Nothing is
//! remembered and nothing allocated: a cold controller asks for every
//! distinct PL set of the fabric once (2,674 per epoch on the paper's
//! 1,944 servers), where a memo saves nothing.
//! [`QueueMapper::queues_for`] returns the SL → queue table the sweep
//! programs; [`QueueMapper::map_port`] dresses the same walk in the
//! public [`PortMap`] shape (groups as `Vec`s: tests and the
//! conformance oracle read it). `saba_math`'s
//! [`Dendrogram::best_level`] / [`Dendrogram::group_subset`] are the
//! independent reference `tests/proptest_controller.rs` holds the walk
//! to.

use saba_math::Dendrogram;
use saba_sim::ids::ServiceLevel;

/// The PL hierarchy plus the PL-id ↔ leaf-index correspondence.
#[derive(Debug, Clone)]
pub struct QueueMapper {
    /// Active PL ids; leaf `i` of the dendrogram is `pls[i]`.
    pls: Vec<usize>,
    dendrogram: Dendrogram,
    /// `cluster[level - 1][leaf]`: the leaves of `leaf`'s cluster at
    /// `level`, one bit each.
    cluster: Vec<[u16; ServiceLevel::COUNT]>,
    /// `leaf[pl]`: the leaf of PL `pl`; `NO_LEAF` for an inactive one.
    leaf: [u8; ServiceLevel::COUNT],
}

const NO_LEAF: u8 = u8::MAX;

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

/// The set bits of `set`, ascending.
fn bits(mut set: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (set != 0).then(|| set.trailing_zeros() as usize);
        set &= set.wrapping_sub(1);
        bit
    })
}

impl QueueMapper {
    /// Builds the hierarchy over active PL centroids, and the cluster
    /// bit sets of every level in O(levels × leaves).
    ///
    /// Returns `None` when no PLs are active. A PL id of 16 or more
    /// is kept in the hierarchy but cannot be asked for: PLs are
    /// InfiniBand SLs.
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
        let dendrogram = Dendrogram::build(&points);
        // A cluster's leaves: one bit per leaf, then each merge's union.
        let mut of_id: Vec<u16> = (0..pls.len()).map(|leaf| 1 << leaf).collect();
        for merge in dendrogram.merges() {
            of_id.push(of_id[merge.a] | of_id[merge.b]);
        }
        let cluster = (1..=pls.len())
            .map(|level| {
                let id = |leaf| dendrogram.cluster_of(level, leaf);
                std::array::from_fn(|leaf| if leaf < pls.len() { of_id[id(leaf)] } else { 0 })
            })
            .collect();
        let mut leaf = [NO_LEAF; ServiceLevel::COUNT];
        for (i, &pl) in pls.iter().enumerate().rev() {
            if let Some(slot) = leaf.get_mut(pl) {
                *slot = i as u8;
            }
        }
        Some(Self {
            pls,
            dendrogram,
            cluster,
            leaf,
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
        let leaf = self.leaf.get(pl).filter(|&&leaf| leaf != NO_LEAF);
        usize::from(*leaf.unwrap_or_else(|| panic!("PL {pl} is not active")))
    }

    /// The one derivation of a port's queues: the first level at which
    /// `leaves` (present at the port, in the caller's order) occupy at
    /// most `max_queues` clusters. Returns the level (1-based) and, as
    /// a bit set, the leaf that introduced each cluster — its first
    /// member in the caller's order. Queue `q` is the cluster of the
    /// `q`-th lowest of those leaves, as [`Dendrogram::group_subset`]
    /// orders its groups.
    fn walk(&self, leaves: &[usize], max_queues: usize) -> (usize, u16) {
        assert!(max_queues >= 1, "a port needs at least one queue");
        assert!(!leaves.is_empty(), "no PLs present at port");
        let fits = self
            .cluster
            .iter()
            .enumerate()
            .find_map(|(level, cluster)| {
                let (mut seen, mut introduced) = (0u16, 0u16);
                for &leaf in leaves {
                    introduced |= u16::from(seen & cluster[leaf] == 0) << leaf;
                    seen |= cluster[leaf];
                }
                (introduced.count_ones() as usize <= max_queues).then_some((level + 1, introduced))
            });
        fits.expect("the top level is one cluster")
    }

    /// The SL → queue table of a walk's answer: every active PL,
    /// present or not, is routed to the queue of its cluster at that
    /// level, so stray traffic of an absent PL still lands somewhere
    /// sensible (queue 0 when its cluster has no queue).
    fn sl_to_queue(&self, level: usize, introduced: u16) -> [u8; ServiceLevel::COUNT] {
        let mut sl_to_queue = [0u8; ServiceLevel::COUNT];
        for (queue, first) in bits(introduced).enumerate() {
            for leaf in bits(self.cluster[level - 1][first]) {
                if let Some(sl) = sl_to_queue.get_mut(self.pls[leaf]) {
                    *sl = queue as u8;
                }
            }
        }
        sl_to_queue
    }

    /// Maps the PLs present at one port onto at most `max_queues`
    /// queues.
    ///
    /// # Panics
    ///
    /// Panics if `present_pls` is empty, contains an inactive PL, or
    /// `max_queues` is zero.
    pub fn map_port(&self, present_pls: &[usize], max_queues: usize) -> PortMap {
        let leaves: Vec<usize> = present_pls.iter().map(|&pl| self.leaf_of(pl)).collect();
        let (level, introduced) = self.walk(&leaves, max_queues);
        let present = leaves.iter().fold(0u16, |set, &leaf| set | 1 << leaf);
        let cluster = &self.cluster[level - 1];
        let groups = bits(introduced)
            .map(|first| {
                bits(cluster[first] & present)
                    .map(|leaf| self.pls[leaf])
                    .collect()
            })
            .collect();
        PortMap {
            level,
            groups,
            sl_to_queue: self.sl_to_queue(level, introduced),
        }
    }

    /// [`Self::map_port`]'s queue table for the PLs whose bits are set
    /// in `present`, walked in ascending PL order, as the sweep has
    /// always passed them. Allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`Self::map_port`].
    pub fn queues_for(&self, present: u16, max_queues: usize) -> PortQueues {
        let (mut leaves, mut n) = ([0; ServiceLevel::COUNT], 0);
        for pl in bits(present) {
            leaves[n] = self.leaf_of(pl);
            n += 1;
        }
        let (level, introduced) = self.walk(&leaves[..n], max_queues);
        PortQueues {
            sl_to_queue: self.sl_to_queue(level, introduced),
            queues: introduced.count_ones() as usize,
        }
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
