//! The runtime-dispatched controller: "either flavour", decided once.
//!
//! Above the epoch engine the Fig. 7 lifecycle is flavour-blind —
//! register at launch, connection create/destroy → switch updates,
//! deregister. Callers that pick the flavour at run time (the co-run
//! loop from its policy, the service tier from its shard spec, the
//! crash model around either) hold a [`ControllerHandle`], built by the
//! one [`ControllerHandle::new`]; the central-or-distributed decision
//! is made there and nowhere else. Code that is generic over the
//! flavour at compile time keeps using [`Controller`] directly.
//!
//! [`Controller`]: super::epoch::Controller

use crate::controller::central::CentralController;
use crate::controller::distributed::{DistributedController, MappingDb};
use crate::controller::epoch::EpochStats;
use crate::controller::{ControllerConfig, ControllerError, SwitchUpdate};
use crate::sensitivity::SensitivityTable;
use saba_sim::ids::{AppId, LinkId, NodeId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_telemetry::{Histogram, TelemetrySink};
use saba_workload::runtime::ConnEvent;

/// Which controller flavour to run (§5 vs §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// One centralized controller: online clustering, exact models.
    Central,
    /// A distributed controller split into this many link shards over
    /// an offline [`MappingDb`].
    Distributed(usize),
}

/// A controller of either flavour, forwarding the surface the two share
/// (everything on [`super::epoch::Controller`]). The variants are
/// public for the rare caller that needs one flavour's own methods —
/// the crash model's two recovery arms.
pub enum ControllerHandle {
    /// The centralized flavour.
    Central(Box<CentralController>),
    /// The distributed flavour.
    Distributed(Box<DistributedController>),
}

/// Evaluates `$body` with `$c` bound to whichever flavour is inside.
macro_rules! either {
    ($handle:expr, $c:ident => $body:expr) => {
        match $handle {
            ControllerHandle::Central($c) => $body,
            ControllerHandle::Distributed($c) => $body,
        }
    };
}

impl ControllerHandle {
    /// Builds a fresh controller of `flavour` over `topo`. The
    /// distributed flavour's mapping database is clustered here, from
    /// the same profile `table` the centralized flavour reads online.
    pub fn new(
        flavour: Flavour,
        cfg: ControllerConfig,
        table: &SensitivityTable,
        topo: &Topology,
    ) -> Self {
        match flavour {
            Flavour::Central => {
                Self::Central(Box::new(CentralController::new(cfg, table.clone(), topo)))
            }
            Flavour::Distributed(shards) => {
                let db = MappingDb::build(table, cfg.num_pls, cfg.seed);
                Self::Distributed(Box::new(DistributedController::new(cfg, db, topo, shards)))
            }
        }
    }

    /// See [`super::epoch::Controller::register`].
    pub fn register(
        &mut self,
        app: AppId,
        workload: &str,
    ) -> Result<ServiceLevel, ControllerError> {
        either!(self, c => c.register(app, workload))
    }

    /// See [`super::epoch::Controller::deregister`].
    pub fn deregister(&mut self, app: AppId) -> Result<Vec<SwitchUpdate>, ControllerError> {
        either!(self, c => c.deregister(app))
    }

    /// See [`super::epoch::Controller::conn_create`].
    pub fn conn_create(
        &mut self,
        app: AppId,
        src: NodeId,
        dst: NodeId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        either!(self, c => c.conn_create(app, src, dst, tag))
    }

    /// See [`super::epoch::Controller::conn_destroy`].
    pub fn conn_destroy(
        &mut self,
        app: AppId,
        tag: u64,
    ) -> Result<Vec<SwitchUpdate>, ControllerError> {
        either!(self, c => c.conn_destroy(app, tag))
    }

    /// See [`super::epoch::Controller::on_event`].
    pub fn on_event(&mut self, ev: &ConnEvent) -> Result<Vec<SwitchUpdate>, ControllerError> {
        either!(self, c => c.on_event(ev))
    }

    /// See [`super::epoch::Controller::recompute_shard`].
    pub fn recompute_shard(&mut self, shard: usize) -> Vec<SwitchUpdate> {
        either!(self, c => c.recompute_shard(shard))
    }

    /// See [`super::epoch::Controller::recompute_all`].
    pub fn recompute_all(&mut self) -> Vec<SwitchUpdate> {
        either!(self, c => c.recompute_all())
    }

    /// See [`super::epoch::Controller::sl_of`].
    pub fn sl_of(&self, app: AppId) -> Option<ServiceLevel> {
        either!(self, c => c.sl_of(app))
    }

    /// See [`super::epoch::Controller::stats`].
    pub fn stats(&self) -> EpochStats {
        either!(self, c => c.stats())
    }

    /// See [`super::epoch::Controller::shard_of_link`].
    pub fn shard_of_link(&self, link: LinkId) -> usize {
        either!(self, c => c.shard_of_link(link))
    }

    /// See [`super::epoch::Controller::record_epoch`]; dispatched once
    /// on the flavour, statically on the sink.
    pub fn record_epoch<S: TelemetrySink>(&self, t: f64, sink: &mut S) {
        either!(self, c => c.record_epoch(t, sink))
    }

    /// See [`super::epoch::Controller::enable_solve_timing`].
    pub fn enable_solve_timing(&mut self) {
        either!(self, c => c.enable_solve_timing())
    }

    /// See [`super::epoch::Controller::solve_histogram`].
    pub fn solve_histogram(&self) -> &Histogram {
        either!(self, c => c.solve_histogram())
    }
}
