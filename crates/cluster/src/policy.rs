//! Allocation policies and the dispatching fabric model.

use saba_baselines::{
    FecnBaseline, FecnConfig, HomaConfig, HomaFabric, IdealMaxMin, SincroniaFabric,
};
use saba_core::controller::{ControllerConfig, ControllerHandle, Flavour};
use saba_core::fabric::SabaFabric;
use saba_core::sensitivity::SensitivityTable;
use saba_sim::engine::{ActiveFlow, FabricModel};
use saba_sim::topology::Topology;

/// Which bandwidth-allocation scheme governs the fabric.
#[derive(Debug, Clone)]
pub enum Policy {
    /// The paper's baseline: InfiniBand FECN congestion control (§8.1).
    Baseline(FecnConfig),
    /// Idealized per-flow max-min fairness (§8.4 study 4).
    IdealMaxMin,
    /// Homa (§8.4 study 5).
    Homa(HomaConfig),
    /// Sincronia (§8.4 study 6).
    Sincronia,
    /// Saba with the centralized controller (§5).
    Saba(ControllerConfig),
    /// Saba with the distributed controller (§5.4); the `usize` is the
    /// shard count.
    SabaDistributed(ControllerConfig, usize),
}

impl Policy {
    /// The paper's default baseline.
    pub fn baseline() -> Self {
        Policy::Baseline(FecnConfig::default())
    }

    /// Saba with the default controller configuration.
    pub fn saba() -> Self {
        Policy::Saba(ControllerConfig::default())
    }

    /// Short display name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Baseline(_) => "baseline",
            Policy::IdealMaxMin => "ideal-max-min",
            Policy::Homa(_) => "homa",
            Policy::Sincronia => "sincronia",
            Policy::Saba(_) => "saba",
            Policy::SabaDistributed(..) => "saba-distributed",
        }
    }

    /// Whether this policy needs a Saba controller in the loop.
    pub fn is_saba(&self) -> bool {
        matches!(self, Policy::Saba(_) | Policy::SabaDistributed(..))
    }

    /// Builds the fabric model for this policy over `topo`.
    pub fn build_fabric(&self, topo: &Topology) -> AnyFabric {
        match self {
            Policy::Baseline(cfg) => AnyFabric::Fecn(FecnBaseline::new(cfg.clone())),
            Policy::IdealMaxMin => AnyFabric::Ideal(IdealMaxMin::default()),
            Policy::Homa(cfg) => AnyFabric::Homa(HomaFabric::new(cfg.clone())),
            Policy::Sincronia => AnyFabric::Sincronia(SincroniaFabric::new()),
            Policy::Saba(_) | Policy::SabaDistributed(..) => {
                AnyFabric::Saba(Box::new(SabaFabric::for_topology(topo)))
            }
        }
    }

    /// Builds the controller that programs [`Self::build_fabric`]'s
    /// fabric, for the policies that have one (see [`Self::is_saba`]).
    pub fn controller(
        &self,
        table: &SensitivityTable,
        topo: &Topology,
    ) -> Option<ControllerHandle> {
        let (flavour, cfg) = match self {
            Policy::Saba(cfg) => (Flavour::Central, cfg),
            Policy::SabaDistributed(cfg, shards) => (Flavour::Distributed(*shards), cfg),
            _ => return None,
        };
        Some(ControllerHandle::new(flavour, cfg.clone(), table, topo))
    }
}

/// A fabric model dispatching to the selected policy implementation.
#[derive(Debug, Clone)]
pub enum AnyFabric {
    /// FECN baseline.
    Fecn(FecnBaseline),
    /// Ideal max-min.
    Ideal(IdealMaxMin),
    /// Homa.
    Homa(HomaFabric),
    /// Sincronia.
    Sincronia(SincroniaFabric),
    /// Saba's WFQ fabric (configured by a controller), boxed: it carries
    /// its flattened flows between epochs.
    Saba(Box<SabaFabric>),
}

impl AnyFabric {
    /// The Saba fabric, if this is a Saba policy.
    ///
    /// # Panics
    ///
    /// Panics for non-Saba fabrics.
    pub fn saba_mut(&mut self) -> &mut SabaFabric {
        match self {
            AnyFabric::Saba(f) => f,
            other => panic!("not a Saba fabric: {other:?}"),
        }
    }
}

impl FabricModel for AnyFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        match self {
            AnyFabric::Fecn(m) => m.allocate(topo, flows, rates),
            AnyFabric::Ideal(m) => m.allocate(topo, flows, rates),
            AnyFabric::Homa(m) => m.allocate(topo, flows, rates),
            AnyFabric::Sincronia(m) => m.allocate(topo, flows, rates),
            AnyFabric::Saba(m) => m.allocate(topo, flows, rates),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let policies = [
            Policy::baseline(),
            Policy::IdealMaxMin,
            Policy::Homa(HomaConfig::default()),
            Policy::Sincronia,
            Policy::saba(),
            Policy::SabaDistributed(ControllerConfig::default(), 4),
        ];
        let mut names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn saba_detection() {
        assert!(Policy::saba().is_saba());
        assert!(Policy::SabaDistributed(ControllerConfig::default(), 2).is_saba());
        assert!(!Policy::baseline().is_saba());
        assert!(!Policy::IdealMaxMin.is_saba());
    }

    #[test]
    fn build_fabric_matches_policy() {
        let topo = Topology::single_switch(4, 100.0);
        assert!(matches!(
            Policy::baseline().build_fabric(&topo),
            AnyFabric::Fecn(_)
        ));
        assert!(matches!(
            Policy::saba().build_fabric(&topo),
            AnyFabric::Saba(_)
        ));
        assert!(matches!(
            Policy::Sincronia.build_fabric(&topo),
            AnyFabric::Sincronia(_)
        ));
    }

    #[test]
    #[should_panic(expected = "not a Saba fabric")]
    fn saba_mut_panics_on_wrong_variant() {
        let topo = Topology::single_switch(2, 100.0);
        let mut f = Policy::IdealMaxMin.build_fabric(&topo);
        let _ = f.saba_mut();
    }
}
