//! Multipath path detection (§5, footnote 2): with multipathing
//! enabled, the controller programs every port a connection *could*
//! traverse, so reallocation is correct regardless of which equal-cost
//! path the fabric hashes the flow onto.

use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::epoch::{Controller, Policy};
use saba_core::controller::ControllerConfig;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::AppId;
use saba_sim::routing::Routes;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::catalog;

fn table() -> SensitivityTable {
    Profiler::new(ProfilerConfig {
        noise_sigma: 0.0,
        bw_points: vec![0.1, 0.25, 0.5, 0.75, 1.0],
        degree: 2,
        ..Default::default()
    })
    .profile_all(&catalog())
    .expect("profiling succeeds")
}

fn config(multipath: bool) -> ControllerConfig {
    ControllerConfig {
        multipath,
        ..Default::default()
    }
}

fn central(multipath: bool, topo: &Topology) -> CentralController {
    CentralController::new(config(multipath), table(), topo)
}

/// `ControllerConfig::multipath` is "shared by both designs": the
/// distributed flavour used to ignore it and always charge the single
/// static-ECMP path.
fn distributed(multipath: bool, topo: &Topology) -> DistributedController {
    let db = MappingDb::build(&table(), 16, 1);
    DistributedController::new(config(multipath), db, topo, 4)
}

#[test]
fn multipath_programs_every_equal_cost_port() {
    every_equal_cost_port_is_programmed(central);
    every_equal_cost_port_is_programmed(distributed);
}

fn every_equal_cost_port_is_programmed<P: Policy>(fresh: fn(bool, &Topology) -> Controller<P>) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
    let routes = Routes::compute(&topo);
    let servers = topo.servers().to_vec();
    let (src, dst) = (servers[0], servers[servers.len() - 1]);

    let mk = |multipath: bool| {
        let mut c = fresh(multipath, &topo);
        c.register(AppId(0), "LR").expect("registers");
        c.conn_create(AppId(0), src, dst, 42).expect("creates")
    };

    let single = mk(false);
    let multi = mk(true);
    assert!(
        multi.len() > single.len(),
        "multipath must program more ports: {} vs {}",
        multi.len(),
        single.len()
    );
    // Everything the single-path config touched is covered by multipath.
    let multi_links: Vec<_> = multi.iter().map(|u| u.link).collect();
    for u in &single {
        assert!(multi_links.contains(&u.link), "port {} missing", u.link);
    }
    // And the multipath set matches the routing-layer ground truth.
    let expected = routes.all_shortest_path_links(&topo, src, dst);
    assert_eq!(multi.len(), expected.len());
}

#[test]
fn multipath_teardown_restores_all_ports() {
    teardown_restores_all_ports(central);
    teardown_restores_all_ports(distributed);
}

fn teardown_restores_all_ports<P: Policy>(fresh: fn(bool, &Topology) -> Controller<P>) {
    let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
    let servers = topo.servers().to_vec();
    let mut c = fresh(true, &topo);
    c.register(AppId(0), "LR").expect("registers");
    let created = c
        .conn_create(AppId(0), servers[0], servers[servers.len() - 1], 1)
        .expect("creates");
    let destroyed = c.conn_destroy(AppId(0), 1).expect("destroys");
    assert_eq!(
        created.len(),
        destroyed.len(),
        "every programmed port is restored"
    );
    for u in &destroyed {
        // With no Saba traffic left, ports return to the single
        // best-effort queue.
        assert_eq!(u.config.num_queues(), 1);
    }
    assert_eq!(c.num_conns(), 0);
}

#[test]
fn single_switch_multipath_equals_single_path() {
    one_path_has_nothing_extra_to_program(central);
    one_path_has_nothing_extra_to_program(distributed);
}

fn one_path_has_nothing_extra_to_program<P: Policy>(fresh: fn(bool, &Topology) -> Controller<P>) {
    let topo = Topology::single_switch(4, saba_sim::LINK_56G_BPS);
    let servers = topo.servers().to_vec();
    let mk = |multipath: bool| {
        let mut c = fresh(multipath, &topo);
        c.register(AppId(0), "LR").expect("registers");
        c.conn_create(AppId(0), servers[0], servers[1], 7)
            .expect("creates")
            .len()
    };
    assert_eq!(mk(false), mk(true));
}
