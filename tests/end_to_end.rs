//! Cross-crate integration tests: every protocol family delivers data on a
//! well-connected scenario, runs are deterministic, infrastructure rescues
//! sparse traffic, and the broadcast storm is visible at high density.

use vanet::core::EngineCounters;
use vanet::prelude::*;

fn dense_highway(seed: u64) -> Scenario {
    Scenario::highway(80)
        .with_seed(seed)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(25.0))
}

/// The delivery thresholds below are deliberately loose: they encode
/// "delivers a meaningful share", not a precise expectation, because
/// per-seed delivery naturally varies across protocols. What is *not* left
/// loose any more is AODV's historical failure mode — unbounded RERR storms
/// on dense highways — which is now capped by the per-destination
/// origination rate limit and asserted exactly in
/// [`aodv_rerr_rate_limit_bounds_churn`].
fn assert_delivers(kind: ProtocolKind, scenario: Scenario, min_ratio: f64) -> Report {
    let report = run_scenario(scenario, kind);
    assert!(report.data_sent > 0, "{kind}: no traffic generated");
    assert!(
        report.delivery_ratio >= min_ratio,
        "{kind}: delivery ratio {:.3} below {min_ratio}",
        report.delivery_ratio
    );
    report
}

#[test]
fn connectivity_protocols_deliver_on_dense_highway() {
    for kind in [
        ProtocolKind::Flooding,
        ProtocolKind::Biswas,
        ProtocolKind::Aodv,
        ProtocolKind::Dsdv,
    ] {
        assert_delivers(kind, dense_highway(12), 0.10);
    }
}

#[test]
fn mobility_protocols_deliver_on_dense_highway() {
    for kind in [ProtocolKind::Pbr, ProtocolKind::Taleb, ProtocolKind::Abedi] {
        assert_delivers(kind, dense_highway(12), 0.10);
    }
}

#[test]
fn geographic_protocols_deliver_on_dense_highway() {
    for kind in [
        ProtocolKind::Greedy,
        ProtocolKind::Zone,
        ProtocolKind::Rover,
    ] {
        assert_delivers(kind, dense_highway(12), 0.10);
    }
}

#[test]
fn probability_protocols_deliver_on_dense_highway() {
    for kind in [
        ProtocolKind::Yan,
        ProtocolKind::YanTbpss,
        ProtocolKind::Car,
        ProtocolKind::Rear,
        ProtocolKind::GvGrid,
    ] {
        assert_delivers(kind, dense_highway(12), 0.10);
    }
}

#[test]
fn infrastructure_protocols_deliver_with_their_infrastructure() {
    // DRR needs RSUs, the bus ferry needs buses.
    let with_rsus = dense_highway(7).with_rsus(4);
    assert_delivers(ProtocolKind::Drr, with_rsus, 0.10);
    let with_buses = dense_highway(7).with_buses(4);
    assert_delivers(ProtocolKind::Bus, with_buses, 0.05);
}

#[test]
fn same_seed_is_bit_for_bit_reproducible() {
    let a = run_scenario(dense_highway(13), ProtocolKind::Pbr);
    let b = run_scenario(dense_highway(13), ProtocolKind::Pbr);
    assert_eq!(a, b);
}

#[test]
fn rsus_rescue_sparse_traffic() {
    let sparse = Scenario::highway_regime(TrafficRegime::Sparse)
        .with_seed(5)
        .with_flows(5)
        .with_duration(SimDuration::from_secs(60.0));
    let ad_hoc = run_scenario(sparse.clone(), ProtocolKind::Aodv);
    let assisted = run_scenario(sparse.with_rsus(8), ProtocolKind::Drr);
    assert!(
        assisted.delivery_ratio > ad_hoc.delivery_ratio,
        "RSU-assisted routing ({:.2}) must beat pure ad hoc ({:.2}) in sparse traffic",
        assisted.delivery_ratio,
        ad_hoc.delivery_ratio
    );
}

#[test]
fn broadcast_storm_grows_superlinearly_with_density() {
    // Transmissions per delivered packet for flooding at two densities.
    let small = run_scenario(
        Scenario::highway(30)
            .with_seed(3)
            .with_flows(2)
            .with_duration(SimDuration::from_secs(20.0)),
        ProtocolKind::Flooding,
    );
    let large = run_scenario(
        Scenario::highway(120)
            .with_seed(3)
            .with_flows(2)
            .with_duration(SimDuration::from_secs(20.0)),
        ProtocolKind::Flooding,
    );
    assert!(
        large.data_transmissions > small.data_transmissions * 2,
        "flooding transmissions must grow with density ({} vs {})",
        large.data_transmissions,
        small.data_transmissions
    );
}

#[test]
fn zone_flooding_cuts_redundant_transmissions() {
    let scenario = Scenario::urban(60)
        .with_seed(9)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(25.0));
    let flooding = run_scenario(scenario.clone(), ProtocolKind::Flooding);
    let zone = run_scenario(scenario, ProtocolKind::Zone);
    assert!(flooding.data_sent == zone.data_sent);
    assert!(
        zone.data_transmissions < flooding.data_transmissions,
        "zone-restricted flooding must transmit less ({} vs {})",
        zone.data_transmissions,
        flooding.data_transmissions
    );
}

#[test]
fn reports_render_as_table_and_csv() {
    let scenario = Scenario::highway(25)
        .with_seed(2)
        .with_flows(2)
        .with_duration(SimDuration::from_secs(15.0));
    let report = run_scenario(scenario.clone(), ProtocolKind::Greedy);
    assert!(report.table_row().contains("Greedy"));
    // The one CSV of a run is the campaign export, one row per cell.
    let plan = vanet::core::CampaignPlan::new("render").cell("hw", scenario, ProtocolKind::Greedy);
    let csv = vanet_runner::render_csv(&vanet_runner::Runner::new().run_plan(&plan));
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2, "{csv}");
    assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    assert!(lines[1].contains("Greedy"));
}

#[test]
fn dtn_family_survives_disruption_where_connected_routing_fails() {
    // A sparse 4 km ring (16 vehicles, 120 m radio) with real counterflow
    // and two scheduled node outages: the network is partitioned for most of
    // the run, so contemporaneous-path routing finds no route while the
    // store-carry-forward family ferries bundles across the gaps on the
    // opposite carriageway.
    let scenario = Scenario::disrupted_highway(16);
    for kind in [ProtocolKind::Flooding, ProtocolKind::Aodv] {
        let r = run_scenario(scenario.clone(), kind);
        assert!(
            r.delivery_ratio <= 0.02,
            "{kind}: connected-path routing should collapse here, got {:.3}",
            r.delivery_ratio
        );
    }
    for kind in [ProtocolKind::Epidemic, ProtocolKind::SprayWait] {
        let r = run_scenario(scenario.clone(), kind);
        assert!(
            r.delivery_ratio >= 0.10,
            "{kind}: store-carry-forward should deliver through partitions, got {:.3}",
            r.delivery_ratio
        );
        assert!(r.bundles_stored > 0, "{kind}: bundles must be buffered");
        assert!(r.bundles_forwarded > 0, "{kind}: bundles must be ferried");
        assert!(r.buffer_peak > 0, "{kind}: occupancy must be tracked");
    }
}

#[test]
fn aodv_rerr_rate_limit_bounds_churn() {
    use vanet_routing::{Aodv, AodvPolicy, OnDemandConfig};
    // Seed 3 historically triggered the worst RERR storm on this scenario.
    // Zeroing both the origination interval and the relay-dedup horizon
    // reproduces the unlimited pre-fix behaviour, where every receiver
    // re-broadcast every RERR and the storm was bounded only by packet TTL.
    let scenario = dense_highway(3);
    let limited = run_scenario(scenario.clone(), ProtocolKind::Aodv);
    let unlimited = Simulation::with_factory(scenario, &|| {
        Box::new(Aodv::with_config(
            AodvPolicy,
            OnDemandConfig {
                rerr_interval: SimDuration::from_secs(0.0),
                rerr_seen_horizon_s: 0.0,
            },
        ))
    })
    .run();
    assert!(
        limited.route_errors * 2 <= unlimited.route_errors,
        "rate limit should at least halve RERR volume ({} vs {})",
        limited.route_errors,
        unlimited.route_errors
    );
}

/// The one scale no benchmark workload reaches: the 1,000,000-node build
/// (neighbour arena, SoA kinematics, event heap, vertex-list grid)
/// completes and runs. `megacity` grows the city with the fleet, so the
/// neighbourhood size must stay near the 10k city's (36.2 there, 41.1 here:
/// less boundary), and the engine's books must balance at a scale nothing
/// else exercises ([`EngineCounters::check_books`]): among them the
/// neighbour arena's (one live payload slot per entry the tables hold) and
/// the spatial grid's (four vertex-list entries per node, beside its 16 MB
/// position table). Every engine counter is printed, the bytes the arena's
/// three slabs have grown into among them.
/// Two minutes of host time in release, so opt-in:
/// `cargo test --release --test end_to_end -- --ignored --nocapture`.
#[test]
#[ignore = "1M nodes: run explicitly, in release"]
fn megacity_1m_builds_and_runs_one_second() {
    let run = |vehicles: usize| {
        let scenario = Scenario::megacity(vehicles).with_duration(SimDuration::from_secs(1.0));
        let mut sim = Simulation::new(scenario, ProtocolKind::Greedy);
        let report = sim.run();
        let counters = sim.counters();
        assert_eq!(counters.check_books(sim.node_count()), Ok(()));
        println!("{vehicles} nodes:");
        for (name, get) in EngineCounters::FIELDS {
            println!("  {name} {}", get(&counters));
        }
        (counters.events, report.avg_neighbors)
    };
    let (_, reference) = run(10_000);
    let (events, avg_neighbors) = run(1_000_000);
    assert!(events > 0);
    assert!(
        (0.8..1.25).contains(&(avg_neighbors / reference)),
        "density not preserved: {avg_neighbors:.1} neighbours at 1M vs {reference:.1} at 10k"
    );
}
