//! The distributed policy (§5.4): link shards over an offline database.
//!
//! Eq. 2 is separable per output port, so the controller's logic can be
//! sharded: each shard owns a group of switches and maintains only the
//! state of flows crossing *its* links. Shards do not run clustering at
//! runtime; the application-to-PL mapping and the PL hierarchy are
//! computed **offline by the profiler** (batch K-means over the whole
//! sensitivity table) and served from a shared, replicable
//! [`MappingDb`]. Consequently shards see applications only at PL
//! granularity and solve Eq. 2 over PL *centroids* — each through its
//! convex quadratic surrogate and the same exact dual solve as the
//! centralized design — the accuracy-for-scalability trade the paper
//! measures as a ≈4 % speedup loss versus the centralized design (§8.4
//! study 7).
//!
//! A connection create is sent to the shard owning the first switch on
//! the path, which configures its own links and *forwards* the request
//! to the shard owning the next hop, and so on (§5.4); the forward
//! count is surfaced in [`EpochStats::forwards`]. The epoch machinery
//! itself lives in [`super::epoch`]; the shards are a partition of its
//! one link index.
//!
//! [`EpochStats::forwards`]: super::epoch::EpochStats::forwards

use crate::controller::epoch::{Controller, Policy};
use crate::controller::queuemap::QueueMapper;
use crate::controller::weights::{port_weights_from_surrogates, ModelSurrogate};
use crate::controller::{ControllerConfig, ControllerError};
use crate::sensitivity::{padded_coeffs, SensitivityModel, SensitivityTable};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_math::{kmeans, KMeansConfig, SolveScratch};
use saba_sim::ids::{AppId, LinkId, ServiceLevel};
use saba_sim::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// The offline mapping database: workload → PL, PL centroids, and the
/// PL hierarchy (§5.4: "the profiler updates the database after
/// performing the application-to-PL and PL clustering operations
/// whenever a new application is profiled").
#[derive(Debug, Clone)]
pub struct MappingDb {
    pl_of_workload: BTreeMap<String, usize>,
    /// Per-workload clustering points, kept so a re-profiled model can
    /// recompute its PL's centroid without re-running K-means.
    coeffs_of_workload: BTreeMap<String, Vec<f64>>,
    centroids: Vec<(usize, Vec<f64>)>,
    mapper: QueueMapper,
}

impl MappingDb {
    /// Builds the database from a profiled sensitivity table with batch
    /// K-means into at most `num_pls` groups.
    ///
    /// Deterministic given `seed`; the database can therefore be
    /// "replicated" by rebuilding from the (JSON-serializable) table.
    ///
    /// An entry whose coefficients `c` make `n·‖2c‖²` non-finite (`n`
    /// the table's size) is left out of clustering, as if the table
    /// did not hold it: no squared distance between two clustered
    /// entries, nor K-means++'s sum of `n` of them, can then overflow.
    /// The database never names such a workload, so a controller
    /// refuses it at `register`.
    ///
    /// # Panics
    ///
    /// Panics if no entry is left to cluster (an empty table included).
    pub fn build(table: &SensitivityTable, num_pls: usize, seed: u64) -> Self {
        // ‖2c‖² bounds the squared distance from `c` to any entry of no
        // larger norm.
        let n = table.len() as f64;
        let reach =
            |m: &SensitivityModel| -> f64 { m.coefficients().iter().map(|c| 4.0 * c * c).sum() };
        let clustered: Vec<_> = table
            .iter()
            .filter(|m| (n * reach(m)).is_finite())
            .collect();
        let dim = clustered.iter().map(|m| m.coefficients().len()).max();
        let dim = dim.expect("cannot build a mapping DB from a table with no clusterable entry");
        let names: Vec<String> = clustered.iter().map(|m| m.workload.clone()).collect();
        let points: Vec<Vec<f64>> = clustered
            .iter()
            .map(|m| padded_coeffs(m.coefficients(), dim))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let res = kmeans(
            &points,
            &KMeansConfig {
                k: num_pls,
                ..Default::default()
            },
            &mut rng,
        );
        let coeffs_of_workload: BTreeMap<String, Vec<f64>> =
            names.iter().cloned().zip(points.iter().cloned()).collect();
        let pl_of_workload: BTreeMap<String, usize> = names
            .into_iter()
            .zip(res.assignments.iter().copied())
            .collect();
        let centroids: Vec<(usize, Vec<f64>)> = res.centroids.iter().cloned().enumerate().collect();
        let mapper = QueueMapper::build(&centroids).expect("non-empty centroids");
        Self {
            pl_of_workload,
            coeffs_of_workload,
            centroids,
            mapper,
        }
    }

    /// The PL of a profiled workload.
    pub fn pl_of(&self, workload: &str) -> Option<usize> {
        self.pl_of_workload.get(workload).copied()
    }

    /// Replaces one workload's clustering point — the online
    /// re-profiler's path into the offline database (§5.4: "the
    /// profiler updates the database … whenever a new application is
    /// profiled"). The workload **keeps its PL** (the §6 sticky-SL
    /// invariant); its PL's centroid is recomputed as the mean of its
    /// members' padded points and the PL hierarchy is rebuilt when the
    /// centroid actually moved.
    ///
    /// Returns `None` for a workload the database has never clustered
    /// (adding one needs an offline re-clustering pass) or when a
    /// member's point is missing (a replica serialized before
    /// coefficient points were stored cannot refit); otherwise whether
    /// the centroid moved.
    pub fn update_coeffs(&mut self, workload: &str, coeffs: &[f64]) -> Option<bool> {
        let pl = self.pl_of(workload)?;
        let members: Vec<String> = self
            .pl_of_workload
            .iter()
            .filter(|&(_, &p)| p == pl)
            .map(|(w, _)| w.clone())
            .collect();
        if members
            .iter()
            .any(|w| w != workload && !self.coeffs_of_workload.contains_key(w))
        {
            return None;
        }
        self.coeffs_of_workload
            .insert(workload.to_string(), coeffs.to_vec());
        let dim = self
            .centroids
            .iter()
            .map(|(_, c)| c.len())
            .chain(members.iter().map(|w| self.coeffs_of_workload[w].len()))
            .max()
            .expect("an assigned PL has a centroid");
        let mut centroid = vec![0.0; dim];
        for w in &members {
            let point = padded_coeffs(&self.coeffs_of_workload[w], dim);
            for (acc, x) in centroid.iter_mut().zip(point) {
                *acc += x;
            }
        }
        for x in &mut centroid {
            *x /= members.len() as f64;
        }
        let slot = self
            .centroids
            .iter_mut()
            .find(|(p, _)| *p == pl)
            .expect("an assigned PL has a centroid");
        if padded_coeffs(&slot.1, dim) == centroid {
            return Some(false);
        }
        slot.1 = centroid;
        // Keep every centroid at the common dimension for the HAC
        // rebuild (a refit can raise the model degree).
        for (_, c) in &mut self.centroids {
            if c.len() < dim {
                c.resize(dim, 0.0);
            }
        }
        self.mapper = QueueMapper::build(&self.centroids).expect("non-empty centroids");
        Some(true)
    }

    /// PL centroid coefficient vectors.
    pub fn centroids(&self) -> &[(usize, Vec<f64>)] {
        &self.centroids
    }

    /// The PL hierarchy.
    pub fn mapper(&self) -> &QueueMapper {
        &self.mapper
    }

    /// Number of PLs in use.
    pub fn num_pls(&self) -> usize {
        self.centroids.len()
    }

    /// Serializes the database for replication (§5.4: "Existing
    /// replication techniques can be used to replicate the database").
    /// The PL hierarchy is not serialized — it is rebuilt
    /// deterministically from the centroids on load.
    pub fn to_json(&self) -> String {
        let wire = MappingDbWire {
            pl_of_workload: self.pl_of_workload.clone(),
            coeffs_of_workload: self.coeffs_of_workload.clone(),
            centroids: self.centroids.clone(),
        };
        serde_json::to_string_pretty(&wire).expect("database serialization cannot fail")
    }

    /// Loads a replicated database.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let wire: MappingDbWire = serde_json::from_str(json)?;
        let mapper = QueueMapper::build(&wire.centroids)
            .expect("a replicated database has at least one centroid");
        Ok(Self {
            pl_of_workload: wire.pl_of_workload,
            coeffs_of_workload: wire.coeffs_of_workload,
            centroids: wire.centroids,
            mapper,
        })
    }
}

/// Wire representation of [`MappingDb`].
#[derive(Serialize, Deserialize)]
struct MappingDbWire {
    pl_of_workload: BTreeMap<String, usize>,
    /// Absent in databases serialized before re-profiling support; such
    /// replicas load fine but refuse [`MappingDb::update_coeffs`].
    #[serde(default)]
    coeffs_of_workload: BTreeMap<String, Vec<f64>>,
    centroids: Vec<(usize, Vec<f64>)>,
}

/// The distributed Saba controller: link shards over a shared offline
/// [`MappingDb`].
pub type DistributedController = Controller<Distributed>;

/// The distributed flavour's [`Policy`].
#[derive(Debug, Clone)]
pub struct Distributed {
    db: MappingDb,
    /// Shard owning each link.
    link_shard: Vec<usize>,
    num_shards: usize,
    apps: BTreeMap<AppId, usize>,
    /// The solver input of each PL, indexed by PL: its centroid's
    /// convex surrogate, `None` for a PL that has no centroid or whose
    /// centroid has no finite surrogate (its workloads cannot register).
    surrogates: Vec<Option<ModelSurrogate>>,
    /// Eq. 2 solutions memoized by a port's PL set: a port's members
    /// are distinct PLs below 16, so the set names them, in ascending
    /// order, and weight `i` is its `i`-th's. Centroids are fixed by the
    /// offline database except when a re-profiled model moves one, which
    /// refits that PL's surrogate and purges every set holding it.
    weight_cache: HashMap<u16, Box<[f64]>>,
}

impl Controller<Distributed> {
    /// Creates `num_shards` shards over `topo`, each owning the output
    /// ports of a contiguous group of nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or the database names a PL that
    /// is not an InfiniBand SL.
    pub fn new(cfg: ControllerConfig, db: MappingDb, topo: &Topology, num_shards: usize) -> Self {
        cfg.validate();
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            db.centroids()
                .iter()
                .all(|(pl, _)| *pl < ServiceLevel::COUNT),
            "InfiniBand supports at most 16 PLs"
        );
        let link_shard = (0..topo.num_links())
            .map(|l| topo.link(LinkId(l as u32)).from.0 as usize % num_shards)
            .collect();
        let mut surrogates = vec![None; ServiceLevel::COUNT];
        for (pl, centroid) in db.centroids() {
            surrogates[*pl] = ModelSurrogate::of_centroid(centroid, cfg.c_saba).ok();
        }
        let policy = Distributed {
            db,
            link_shard,
            num_shards,
            apps: BTreeMap::new(),
            surrogates,
            weight_cache: HashMap::new(),
        };
        Self::with_policy(cfg, topo, policy)
    }

    /// Applications currently registered, ascending by id.
    pub fn apps(&self) -> Vec<AppId> {
        self.policy.apps.keys().copied().collect()
    }
}

impl Policy for Distributed {
    type Member = usize;

    /// A pure database lookup, no clustering (that happened offline). A
    /// workload whose PL has no surrogate is as unknown as one the
    /// database never clustered.
    fn register(
        &mut self,
        _cfg: &ControllerConfig,
        app: AppId,
        workload: &str,
    ) -> Result<usize, ControllerError> {
        let pl = self
            .db
            .pl_of(workload)
            .filter(|&pl| self.surrogates.get(pl).is_some_and(Option::is_some))
            .ok_or_else(|| ControllerError::UnknownWorkload(workload.to_string()))?;
        self.apps.insert(app, pl);
        Ok(pl)
    }

    fn unregister(&mut self, app: AppId) {
        self.apps.remove(&app);
    }

    /// The shared database replaces the workload's clustering point and
    /// recomputes its PL centroid. When the centroid moved, that PL's
    /// surrogate is refit and memoized solutions naming it are purged —
    /// the one event that can invalidate the PL-set cache — and,
    /// because the PL hierarchy was rebuilt, even ports without the
    /// refit PL can map queues differently: every PL's ports are
    /// revisited and the diff suppresses the ones that did not change.
    /// Unknown workloads, refits that leave the centroid in place and
    /// refits that move it where no finite surrogate fits touch nothing.
    fn update_model(&mut self, cfg: &ControllerConfig, model: &SensitivityModel) -> Vec<usize> {
        let Some(pl) = self.db.pl_of(&model.workload) else {
            return Vec::new();
        };
        let mut db = self.db.clone();
        if db.update_coeffs(&model.workload, model.coefficients()) != Some(true) {
            return Vec::new();
        }
        let centroid = db.centroids().iter().find(|(p, _)| *p == pl);
        let centroid = &centroid.expect("an assigned PL has a centroid").1;
        let Ok(surrogate) = ModelSurrogate::of_centroid(centroid, cfg.c_saba) else {
            return Vec::new();
        };
        self.db = db;
        self.surrogates[pl] = Some(surrogate);
        self.weight_cache.retain(|&set, _| set & 1 << pl == 0);
        self.db.centroids().iter().map(|(p, _)| *p).collect()
    }

    fn member(&self, app: AppId) -> Option<usize> {
        self.apps.get(&app).copied()
    }

    fn pl(&self, pl: usize) -> usize {
        pl
    }

    fn mapper(&self) -> &QueueMapper {
        &self.db.mapper
    }

    /// Every port is memoized, hit or miss alike: PL sets are few and
    /// shared across ports. A miss solves Eq. 2 over the centroid
    /// surrogate of each PL present (coarser than the centralized
    /// per-application solve), one weight per PL, and counts as a solve
    /// even for a lone PL.
    fn weights_into(
        &mut self,
        cfg: &ControllerConfig,
        _members: &[usize],
        pls: &[usize],
        set: u16,
        scratch: &mut SolveScratch,
        weights: &mut Vec<f64>,
    ) -> bool {
        if let Some(memo) = self.weight_cache.get(&set) {
            weights.extend_from_slice(memo);
            return false;
        }
        let surrogates = pls.iter().map(|&pl| {
            self.surrogates[pl]
                .as_ref()
                .expect("a registered PL has a surrogate")
        });
        port_weights_from_surrogates(
            surrogates,
            cfg.c_saba,
            cfg.min_weight,
            cfg.protect_fraction,
            scratch,
            weights,
        )
        .expect("non-empty feasible weight problem");
        self.weight_cache.insert(set, weights.as_slice().into());
        true
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_of(&self, link: LinkId) -> usize {
        self.link_shard[link.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerHandle, Flavour, SwitchUpdate};
    use crate::fabric::PortQueueConfig;
    use crate::profiler::{Profiler, ProfilerConfig};
    use saba_sim::topology::SpineLeafConfig;
    use saba_workload::catalog;

    fn table() -> SensitivityTable {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        })
        .profile_all(&catalog())
        .unwrap()
    }

    #[test]
    fn db_groups_similar_workloads() {
        let db = MappingDb::build(&table(), 4, 7);
        assert!(db.num_pls() <= 4);
        // Every workload has a PL.
        for w in catalog() {
            assert!(db.pl_of(&w.name).is_some(), "{}", w.name);
        }
        // LR and PR (opposite sensitivity extremes) should not share a
        // PL when 4 PLs are available.
        assert_ne!(db.pl_of("LR"), db.pl_of("PR"));
    }

    #[test]
    fn db_is_deterministic() {
        let t = table();
        let a = MappingDb::build(&t, 8, 3);
        let b = MappingDb::build(&t, 8, 3);
        assert_eq!(a.pl_of_workload, b.pl_of_workload);
    }

    #[test]
    fn db_replicates_through_json() {
        let db = MappingDb::build(&table(), 8, 7);
        let replica = MappingDb::from_json(&db.to_json()).expect("replica loads");
        assert_eq!(db.num_pls(), replica.num_pls());
        for w in catalog() {
            assert_eq!(db.pl_of(&w.name), replica.pl_of(&w.name), "{}", w.name);
        }
        // The rebuilt hierarchy groups PLs identically.
        let pls: Vec<usize> = db.mapper().pls().to_vec();
        for q in 1..=4 {
            assert_eq!(
                db.mapper().map_port(&pls, q).groups,
                replica.mapper().map_port(&pls, q).groups,
                "q = {q}"
            );
        }
    }

    #[test]
    fn register_is_a_db_lookup() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
        let sl1 = c.register(AppId(0), "LR").unwrap();
        let sl2 = c.register(AppId(1), "LR").unwrap();
        assert_eq!(sl1, sl2, "same workload, same offline PL");
        assert!(c.register(AppId(2), "NOPE").is_err());
    }

    #[test]
    fn conn_create_forwards_across_shards() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 4);
        c.register(AppId(0), "LR").unwrap();
        let servers = topo.servers();
        // Cross-pod connection: multiple switches, hence multiple shards.
        let updates = c
            .conn_create(AppId(0), servers[0], servers[servers.len() - 1], 5)
            .unwrap();
        assert!(!updates.is_empty());
        assert!(c.stats().forwards > 0, "path should span shards");
    }

    #[test]
    fn weights_favor_sensitive_pl() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 1);
        let sl_lr = c.register(AppId(0), "LR").unwrap();
        let sl_sort = c.register(AppId(1), "Sort").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let updates = c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        let cfg = &updates[0].config;
        let (q_lr, q_sort) = (cfg.queue_of(sl_lr), cfg.queue_of(sl_sort));
        assert!(cfg.weights[q_lr] > cfg.weights[q_sort], "{:?}", cfg.weights);
    }

    #[test]
    fn recompute_shard_reproduces_live_state() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "PR").unwrap();
        let s = topo.servers();
        let mut live: HashMap<u32, PortQueueConfig> = HashMap::new();
        let first = c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let second = c.conn_create(AppId(1), s[0], s[2], 2).unwrap();
        for u in first.into_iter().chain(second) {
            live.insert(u.link.0, u.config);
        }
        // A recovered shard recomputes exactly the configs its links had.
        for shard in 0..c.num_shards() {
            for u in c.recompute_shard(shard) {
                assert_eq!(c.shard_of_link(u.link), shard);
                if let Some(prev) = live.get(&u.link.0) {
                    assert_eq!(prev, &u.config, "link {}", u.link.0);
                }
            }
        }
        // recompute_all covers every Saba-carrying port exactly once.
        let all = c.recompute_all();
        let mut seen: Vec<u32> = all.iter().map(|u| u.link.0).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "no port recomputed twice");
        assert_eq!(seen.len(), live.len());
    }

    #[test]
    fn destroy_and_deregister_clean_up() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        c.conn_create(AppId(0), s[0], s[2], 2).unwrap();
        let u1 = c.conn_destroy(AppId(0), 1).unwrap();
        // Switch downlink to s[1] loses its only PL; NIC link keeps one.
        assert!(!u1.is_empty());
        let u2 = c.deregister(AppId(0)).unwrap();
        assert!(!u2.is_empty());
        assert!(c.conn_destroy(AppId(0), 2).is_err(), "already cleaned up");
    }

    #[test]
    fn update_model_moves_the_centroid_and_reprograms() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
        let sl_lr = c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let before = c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        let cfg_before = &before[0].config;
        let share_before =
            cfg_before.weights[cfg_before.queue_of(sl_lr)] / cfg_before.weights.iter().sum::<f64>();

        // A flat re-profiled LR cedes bandwidth without changing SL.
        let flat: Vec<(f64, f64)> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + 0.05 * (1.0 - b)))
            .collect();
        let refit = crate::sensitivity::SensitivityModel::fit("LR", &flat, 2).unwrap();
        let updates = c.update_model(&refit);
        assert!(!updates.is_empty());
        assert_eq!(c.register(AppId(2), "LR").unwrap(), sl_lr, "PL sticky");
        let cfg = updates
            .iter()
            .find(|u| u.link == before[0].link)
            .map(|u| &u.config)
            .expect("the contended port reprograms");
        let share = cfg.weights[cfg.queue_of(sl_lr)] / cfg.weights.iter().sum::<f64>();
        assert!(
            share < share_before - 0.1,
            "flattened LR should cede bandwidth: {share_before} -> {share}"
        );
        // A second identical push finds the centroid already in place.
        assert!(c.update_model(&refit).is_empty());
    }

    /// A refit purges only the memo entries whose PL set holds the moved
    /// PL: the rest survive and answer the refit's epoch as hits, each
    /// purged set is solved once more, and a forced recompute then
    /// programs what a controller born with the refit database does.
    #[test]
    fn a_refit_resolves_only_the_pl_sets_holding_the_moved_pl() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(6, saba_sim::LINK_56G_BPS);
        let s = topo.servers();
        let apps = [(0, "LR"), (1, "Sort"), (2, "PR"), (3, "SQL")];
        let conns = [
            (0, 0, 1),
            (1, 0, 1),
            (1, 2, 3),
            (2, 2, 3),
            (2, 4, 5),
            (3, 4, 5),
        ];
        let build = |db: MappingDb| {
            let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
            for (app, workload) in apps {
                c.register(AppId(app), workload).unwrap();
            }
            for (tag, &(app, src, dst)) in conns.iter().enumerate() {
                c.preload_connection(AppId(app), s[src], s[dst], tag as u64);
            }
            c
        };
        let mut c = build(db);
        c.recompute_all();
        let set_of =
            |c: &DistributedController, l| c.members.members(l).fold(0u16, |set, pl| set | 1 << pl);
        let ports: Vec<u16> = c.members.occupied_links().map(|l| set_of(&c, l)).collect();
        let mut sets = ports.clone();
        sets.sort_unstable();
        sets.dedup();
        assert!(sets.len() >= 3, "distinct PL sets: {sets:?}");
        let p = c.policy.apps[&AppId(0)];
        let holding: Vec<u16> = sets.iter().copied().filter(|s| s & 1 << p != 0).collect();
        assert!(!holding.is_empty() && holding.len() < sets.len());
        let memo = c.policy.weight_cache.clone();
        assert_eq!(memo.len(), sets.len(), "the sweep memoized every set");

        let flat: Vec<(f64, f64)> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + 0.05 * (1.0 - b)))
            .collect();
        let refit = SensitivityModel::fit("LR", &flat, 2).unwrap();
        let before = c.stats();
        assert!(!c.update_model(&refit).is_empty());
        let after = c.stats();
        assert_eq!(after.ports_dirty - before.ports_dirty, ports.len() as u64);
        assert_eq!(
            after.eq2_solves - before.eq2_solves,
            holding.len() as u64,
            "only the sets holding PL {p} are solved again"
        );
        let without = ports.iter().filter(|&&set| set & 1 << p == 0).count() as u64;
        assert!(after.solves_skipped - before.solves_skipped >= without);
        for (set, weights) in &memo {
            let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            let now = bits(&c.policy.weight_cache[set]);
            if set & 1 << p == 0 {
                assert_eq!(now, bits(weights), "set {set:#06x} survives");
            } else {
                assert_ne!(now, bits(weights), "set {set:#06x} is re-solved");
            }
        }

        let mut fresh = build(c.policy.db.clone());
        let bits = |updates: Vec<SwitchUpdate>| -> Vec<(u32, Vec<u8>, Vec<u64>)> {
            let weights = |u: &SwitchUpdate| u.config.weights.iter().map(|w| w.to_bits()).collect();
            let bits = |u: &SwitchUpdate| (u.link.0, u.config.sl_to_queue.to_vec(), weights(u));
            updates.iter().map(bits).collect()
        };
        assert_eq!(bits(c.recompute_all()), bits(fresh.recompute_all()));
    }

    /// A refit that would move a centroid where no finite surrogate
    /// fits changes nothing: not the database, not a port.
    #[test]
    fn a_refit_with_no_finite_centroid_surrogate_changes_nothing() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 2);
        c.register(AppId(0), "LR").unwrap();
        c.register(AppId(1), "Sort").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        c.conn_create(AppId(1), s[0], s[1], 2).unwrap();
        let before = c.recompute_all();
        let centroids = c.policy.db.centroids().to_vec();
        let hostile = SensitivityModel {
            poly: saba_math::Polynomial::new(vec![1e308, -1e308, 1e308]),
            ..t.get("LR").unwrap().clone()
        };
        assert!(c.update_model(&hostile).is_empty());
        assert_eq!(c.policy.db.centroids(), &centroids[..]);
        assert_eq!(c.recompute_all(), before);
    }

    /// A table entry whose squared distances overflow is left out of
    /// clustering: the build does not panic (K-means++ seeding drew
    /// from a non-finite range), the database is, field for field, the
    /// one built without the entry (`Debug` prints every field, each
    /// float exactly), and both flavours refuse the workload at
    /// `register`.
    #[test]
    fn an_entry_whose_distances_overflow_is_left_out_of_clustering() {
        let mut with = table();
        with.insert(SensitivityModel {
            workload: "Hostile".into(),
            poly: saba_math::Polynomial::new(vec![1e308, -1e308, 1e308]),
            ..table().get("LR").unwrap().clone()
        });
        let db = MappingDb::build(&with, 16, 1);
        let without = MappingDb::build(&table(), 16, 1);
        assert_eq!(format!("{db:?}"), format!("{without:?}"));
        assert_eq!(db.pl_of("Hostile"), None);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        for flavour in [Flavour::Central, Flavour::Distributed(2)] {
            let cfg = ControllerConfig::default();
            let mut c = ControllerHandle::new(flavour, cfg, &with, &topo);
            c.register(AppId(0), "LR").unwrap();
            assert_eq!(
                c.register(AppId(1), "Hostile").unwrap_err(),
                ControllerError::UnknownWorkload("Hostile".into()),
                "{flavour:?}"
            );
        }
    }

    #[test]
    fn update_model_unknown_workload_is_a_no_op() {
        let t = table();
        let db = MappingDb::build(&t, 16, 1);
        let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
        let mut c = DistributedController::new(ControllerConfig::default(), db, &topo, 1);
        c.register(AppId(0), "LR").unwrap();
        let s = topo.servers();
        c.conn_create(AppId(0), s[0], s[1], 1).unwrap();
        let novel = crate::sensitivity::SensitivityModel::fit(
            "BrandNew",
            &[(0.25, 2.0), (0.5, 1.5), (0.75, 1.2), (1.0, 1.0)],
            2,
        )
        .unwrap();
        assert!(c.update_model(&novel).is_empty());
        assert!(c.register(AppId(1), "BrandNew").is_err(), "still offline");
    }

    #[test]
    fn legacy_replica_without_points_refuses_refit() {
        // A database serialized before coefficient points were stored:
        // it loads (serde default), but a shared PL cannot recompute its
        // centroid without every member's point.
        let legacy = r#"{"pl_of_workload":{"A":0,"B":0},"centroids":[[0,[1.0,2.0]]]}"#;
        let mut replica = MappingDb::from_json(legacy).expect("legacy replica loads");
        assert_eq!(replica.pl_of("A"), Some(0));
        assert_eq!(replica.update_coeffs("A", &[1.0, 2.0]), None);
        // A full modern replica refits fine.
        let db = MappingDb::build(&table(), 16, 7);
        let mut full = MappingDb::from_json(&db.to_json()).unwrap();
        assert!(full.update_coeffs("LR", &[9.0, -2.0, 0.5]).is_some());
    }

    /// The sweep keeps a port's PL set in 16 bits; a replicated database
    /// is outside input and may name anything.
    #[test]
    #[should_panic(expected = "at most 16 PLs")]
    fn a_database_naming_a_pl_beyond_the_sls_is_rejected() {
        let json = r#"{"pl_of_workload":{"A":16},"centroids":[[16,[1.0,2.0]]]}"#;
        let db = MappingDb::from_json(json).expect("well-formed");
        let topo = Topology::single_switch(2, saba_sim::LINK_56G_BPS);
        let _ = DistributedController::new(ControllerConfig::default(), db, &topo, 1);
    }
}
