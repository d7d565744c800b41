//! Application → priority-level assignment (§5.3.1).
//!
//! "Saba groups applications according to their bandwidth sensitivity
//! using the K-means clustering algorithm [MacQueen]. The controller
//! takes a set of registered applications and the coefficients of their
//! sensitivity models as input, creating S groups … The centroid of
//! each group represents the sensitivity of that group."
//!
//! We use MacQueen's *online* K-means (the algorithm of the paper's
//! citation): applications are assigned as they register and centroids
//! update incrementally. This keeps an invariant the connection manager
//! relies on (§6): an application's PL never changes after
//! registration, because its packets already carry that SL. The batch
//! variant (`saba_math::kmeans`) is used by the distributed design's
//! offline database instead.

use saba_math::linalg::sq_dist;
use saba_sim::ids::AppId;

/// One active priority level: its member applications and centroid.
#[derive(Debug, Clone)]
struct PlSlot {
    members: Vec<(AppId, Vec<f64>)>,
    centroid: Vec<f64>,
    /// The centroid last *published* to the queue mapper. Tracks
    /// `centroid` lazily: it only catches up — bumping the assigner's
    /// generation — when the live centroid drifts beyond the configured
    /// tolerance, so sub-tolerance jitter from membership churn never
    /// forces a downstream HAC rerun.
    published: Vec<f64>,
}

impl PlSlot {
    fn recompute_centroid(&mut self) {
        let dim = self.members[0].1.len();
        let mut c = vec![0.0; dim];
        for (_, coeffs) in &self.members {
            for (acc, &x) in c.iter_mut().zip(coeffs) {
                *acc += x;
            }
        }
        let n = self.members.len() as f64;
        for x in &mut c {
            *x /= n;
        }
        self.centroid = c;
    }
}

/// Online application → PL assigner.
#[derive(Debug, Clone)]
pub struct PlAssigner {
    slots: Vec<Option<PlSlot>>,
    dim: usize,
    /// Bumped whenever the *published* centroid set changes: a PL
    /// activates or frees, or an active centroid drifts beyond
    /// `centroid_tol`. The one consumer, the central policy's HAC queue
    /// mapper, compares generations to decide whether to re-derive.
    generation: u64,
    /// Euclidean drift below which a centroid update is *not* published
    /// (0.0 = publish every change, the exact default).
    centroid_tol: f64,
}

impl PlAssigner {
    /// Creates an assigner with `num_pls` priority levels for
    /// coefficient vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_pls` or `dim` is zero.
    pub fn new(num_pls: usize, dim: usize) -> Self {
        assert!(num_pls >= 1, "need at least one PL");
        assert!(dim >= 1, "coefficient dimension must be positive");
        Self {
            slots: vec![None; num_pls],
            dim,
            generation: 0,
            centroid_tol: 0.0,
        }
    }

    /// Sets the centroid-publication tolerance (Euclidean distance in
    /// coefficient space). Must be finite and non-negative.
    pub fn set_centroid_tol(&mut self, tol: f64) {
        assert!(tol.is_finite() && tol >= 0.0, "tolerance must be >= 0");
        self.centroid_tol = tol;
    }

    /// The current published-centroid generation. Unchanged ⇒ every
    /// published centroid (and the active-PL set) is unchanged, so any
    /// artifact derived from them is still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publishes the slot's live centroid if it drifted beyond
    /// tolerance, bumping the generation.
    fn maybe_publish(&mut self, pl: usize) {
        let tol = self.centroid_tol;
        let slot = self.slots[pl].as_mut().expect("publishing an active PL");
        if sq_dist(&slot.centroid, &slot.published) > tol * tol {
            slot.published = slot.centroid.clone();
            self.generation += 1;
        }
    }

    /// Number of PL slots.
    pub fn num_pls(&self) -> usize {
        self.slots.len()
    }

    /// Coefficient dimension (shorter vectors are zero-padded).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Assigns `app` (with sensitivity coefficients `coeffs`) to a PL:
    /// a free slot if one exists, otherwise the slot with the nearest
    /// centroid (whose centroid then absorbs the newcomer).
    ///
    /// # Panics
    ///
    /// Panics if the app is already assigned.
    pub fn assign(&mut self, app: AppId, coeffs: &[f64]) -> usize {
        assert!(self.pl_of(app).is_none(), "app {app} already has a PL");
        let mut c = coeffs.to_vec();
        c.resize(self.dim.max(coeffs.len()), 0.0);
        if c.len() > self.dim {
            self.dim = c.len();
            for slot in self.slots.iter_mut().flatten() {
                slot.centroid.resize(self.dim, 0.0);
                slot.published.resize(self.dim, 0.0);
                for (_, m) in &mut slot.members {
                    m.resize(self.dim, 0.0);
                }
            }
        }

        if let Some(free) = self.slots.iter().position(Option::is_none) {
            self.slots[free] = Some(PlSlot {
                members: vec![(app, c.clone())],
                published: c.clone(),
                centroid: c,
            });
            self.generation += 1;
            return free;
        }
        // All PLs occupied: join the nearest centroid (MacQueen update).
        let nearest = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, sq_dist(&s.centroid, &c))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .map(|(i, _)| i)
            .expect("all slots occupied implies at least one exists");
        let slot = self.slots[nearest]
            .as_mut()
            .expect("chosen slot is occupied");
        slot.members.push((app, c));
        slot.recompute_centroid();
        self.maybe_publish(nearest);
        nearest
    }

    /// Replaces an assigned application's sensitivity coefficients in
    /// place — the re-profiling path. The app **keeps its PL** (the §6
    /// invariant: its packets already carry that SL); only the slot's
    /// centroid moves, publishing (and bumping the generation) when the
    /// drift exceeds the tolerance.
    ///
    /// Returns the app's PL, or `None` if it is not assigned.
    pub fn update_coeffs(&mut self, app: AppId, coeffs: &[f64]) -> Option<usize> {
        let pl = self.pl_of(app)?;
        let mut c = coeffs.to_vec();
        c.resize(self.dim.max(coeffs.len()), 0.0);
        if c.len() > self.dim {
            self.dim = c.len();
            for slot in self.slots.iter_mut().flatten() {
                slot.centroid.resize(self.dim, 0.0);
                slot.published.resize(self.dim, 0.0);
                for (_, m) in &mut slot.members {
                    m.resize(self.dim, 0.0);
                }
            }
        }
        let slot = self.slots[pl].as_mut().expect("pl_of returned this slot");
        let member = slot
            .members
            .iter_mut()
            .find(|(a, _)| *a == app)
            .expect("pl_of found the app in this slot");
        member.1 = c;
        slot.recompute_centroid();
        self.maybe_publish(pl);
        Some(pl)
    }

    /// Removes a deregistered application, freeing its PL if it was the
    /// last member.
    ///
    /// Returns the PL it occupied, or `None` if unknown.
    pub fn remove(&mut self, app: AppId) -> Option<usize> {
        for (pl, slot_opt) in self.slots.iter_mut().enumerate() {
            if let Some(slot) = slot_opt {
                if let Some(pos) = slot.members.iter().position(|(a, _)| *a == app) {
                    slot.members.remove(pos);
                    if slot.members.is_empty() {
                        *slot_opt = None;
                        self.generation += 1;
                    } else {
                        slot.recompute_centroid();
                        self.maybe_publish(pl);
                    }
                    return Some(pl);
                }
            }
        }
        None
    }

    /// The PL currently holding `app`.
    pub fn pl_of(&self, app: AppId) -> Option<usize> {
        self.slots.iter().position(|s| {
            s.as_ref()
                .is_some_and(|s| s.members.iter().any(|(a, _)| *a == app))
        })
    }

    /// Published centroid of a PL, if active. With a zero tolerance this
    /// is the live centroid; with a positive tolerance it lags the live
    /// value by at most `centroid_tol`.
    pub fn centroid(&self, pl: usize) -> Option<&[f64]> {
        self.slots.get(pl)?.as_ref().map(|s| s.published.as_slice())
    }

    /// Indices of PLs that currently have members, ascending.
    pub fn active_pls(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    /// `(PL, published centroid)` pairs for all active PLs, ascending by
    /// PL.
    pub fn centroids(&self) -> Vec<(usize, Vec<f64>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.published.clone())))
            .collect()
    }

    /// Number of applications assigned.
    pub fn num_apps(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.members.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_apps_get_their_own_pls() {
        let mut a = PlAssigner::new(4, 3);
        assert_eq!(a.assign(AppId(0), &[1.0, 0.0, 0.0]), 0);
        assert_eq!(a.assign(AppId(1), &[2.0, 0.0, 0.0]), 1);
        assert_eq!(a.assign(AppId(2), &[3.0, 0.0, 0.0]), 2);
        assert_eq!(a.num_apps(), 3);
        assert_eq!(a.active_pls(), vec![0, 1, 2]);
    }

    #[test]
    fn overflow_joins_nearest_centroid() {
        let mut a = PlAssigner::new(2, 1);
        a.assign(AppId(0), &[0.0]);
        a.assign(AppId(1), &[10.0]);
        // Near zero: joins PL 0; centroid moves to the mean.
        assert_eq!(a.assign(AppId(2), &[1.0]), 0);
        assert!((a.centroid(0).unwrap()[0] - 0.5).abs() < 1e-12);
        // Near ten: joins PL 1.
        assert_eq!(a.assign(AppId(3), &[9.0]), 1);
    }

    #[test]
    fn remove_frees_slot_when_last_member_leaves() {
        let mut a = PlAssigner::new(2, 1);
        a.assign(AppId(0), &[0.0]);
        a.assign(AppId(1), &[5.0]);
        assert_eq!(a.remove(AppId(0)), Some(0));
        assert_eq!(a.active_pls(), vec![1]);
        // The freed slot is reused.
        assert_eq!(a.assign(AppId(2), &[7.0]), 0);
    }

    #[test]
    fn remove_recomputes_centroid() {
        let mut a = PlAssigner::new(1, 1);
        a.assign(AppId(0), &[0.0]);
        a.assign(AppId(1), &[4.0]);
        assert!((a.centroid(0).unwrap()[0] - 2.0).abs() < 1e-12);
        a.remove(AppId(1));
        assert!((a.centroid(0).unwrap()[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn pl_never_changes_after_assignment() {
        let mut a = PlAssigner::new(2, 1);
        let pl0 = a.assign(AppId(0), &[0.0]);
        for i in 1..10 {
            a.assign(AppId(i), &[i as f64]);
        }
        assert_eq!(a.pl_of(AppId(0)), Some(pl0));
    }

    #[test]
    fn shorter_coeffs_are_padded() {
        let mut a = PlAssigner::new(4, 4);
        a.assign(AppId(0), &[1.0, 2.0]);
        assert_eq!(a.centroid(0).unwrap(), &[1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn unknown_app_remove_is_none() {
        let mut a = PlAssigner::new(2, 1);
        assert_eq!(a.remove(AppId(9)), None);
        assert_eq!(a.pl_of(AppId(9)), None);
    }

    #[test]
    #[should_panic(expected = "already has a PL")]
    fn double_assign_rejected() {
        let mut a = PlAssigner::new(2, 1);
        a.assign(AppId(0), &[1.0]);
        a.assign(AppId(0), &[2.0]);
    }

    #[test]
    fn generation_tracks_published_centroid_changes() {
        let mut a = PlAssigner::new(2, 1);
        let g0 = a.generation();
        a.assign(AppId(0), &[0.0]);
        assert!(a.generation() > g0, "new slot bumps the generation");
        a.assign(AppId(1), &[10.0]);
        let g2 = a.generation();
        // A duplicate of app 0's coefficients joins PL 0 without moving
        // its centroid: no publication, no generation bump.
        assert_eq!(a.assign(AppId(2), &[0.0]), 0);
        assert_eq!(a.generation(), g2, "identical coefficients are free");
        // A distinct newcomer moves the centroid it joins.
        a.assign(AppId(3), &[2.0]);
        assert!(a.generation() > g2);
        let g4 = a.generation();
        // Freeing a slot changes the active set.
        a.remove(AppId(1));
        assert!(a.generation() > g4);
    }

    #[test]
    fn update_coeffs_keeps_the_pl_and_moves_the_centroid() {
        let mut a = PlAssigner::new(2, 1);
        let pl = a.assign(AppId(0), &[1.0]);
        a.assign(AppId(1), &[1.0]);
        let g = a.generation();
        // Re-profiled coefficients: the app stays put (§6 sticky-PL
        // invariant), but its slot's centroid follows.
        assert_eq!(
            a.update_coeffs(AppId(1), &[3.0]),
            Some(a.pl_of(AppId(1)).unwrap())
        );
        assert_eq!(a.pl_of(AppId(0)), Some(pl), "PL sticky under refit");
        assert!(a.generation() > g, "moved centroid publishes");
        // Unknown app: no-op.
        assert_eq!(a.update_coeffs(AppId(9), &[1.0]), None);
    }

    #[test]
    fn update_coeffs_with_identical_values_is_silent() {
        let mut a = PlAssigner::new(2, 1);
        a.assign(AppId(0), &[2.0]);
        let g = a.generation();
        assert_eq!(a.update_coeffs(AppId(0), &[2.0]), Some(0));
        assert_eq!(a.generation(), g, "no drift, no publication");
    }

    #[test]
    fn update_coeffs_grows_dimension_like_assign() {
        let mut a = PlAssigner::new(2, 2);
        a.assign(AppId(0), &[1.0, 1.0]);
        assert_eq!(a.update_coeffs(AppId(0), &[1.0, 1.0, 4.0]), Some(0));
        assert_eq!(a.dim(), 3);
        assert_eq!(a.centroid(0).unwrap(), &[1.0, 1.0, 4.0]);
    }

    #[test]
    fn centroid_tolerance_suppresses_small_drift() {
        let mut a = PlAssigner::new(1, 1);
        a.assign(AppId(0), &[1.0]);
        a.set_centroid_tol(0.25);
        let g = a.generation();
        // Mean of {1.0, 1.2} = 1.1: drift 0.1 < 0.25, not published.
        a.assign(AppId(1), &[1.2]);
        assert_eq!(a.generation(), g);
        assert_eq!(a.centroid(0).unwrap(), &[1.0], "published centroid lags");
        // Mean of {1.0, 1.2, 2.6} = 1.6: drift 0.6 > 0.25, published.
        a.assign(AppId(2), &[2.6]);
        assert!(a.generation() > g);
        assert!((a.centroid(0).unwrap()[0] - 1.6).abs() < 1e-12);
    }
}
