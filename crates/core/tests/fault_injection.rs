//! Deterministic fault injection, observed end to end.
//!
//! Faults ride the `(time, seq)` scheduler as first-class events; protocols
//! never see them directly — only the usual loss and neighbour-expiry
//! channels. These tests pin the three contracts the subsystem makes:
//!
//! * **determinism** — the same seed and fault plan is byte-identical across
//!   repeated runs, for every protocol family the plan touches;
//! * **visibility** — disruptions actually disrupt (a total burst blackout
//!   delivers nothing; outages and jams register in telemetry);
//! * **additivity** — fault machinery is inert until a fault fires (pinned
//!   separately by the goldens in `golden_reports.rs`);
//! * **ordering** — a transition takes effect between exactly the two
//!   receptions it falls between, pinned by report and event count.

use vanet_core::{
    run_scenario, FaultPlan, ProtocolKind, Report, Scenario, Simulation, WindowedTap,
};
use vanet_sim::SimDuration;

fn faulty_scenario() -> Scenario {
    Scenario::highway(24)
        .with_seed(11)
        .with_rsus(2)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(20.0))
        .with_faults(
            FaultPlan::new()
                .node_outage(3, 2.0, 8.0)
                .rsu_outage(0, 5.0, 12.0)
                .jam(5, 0.8, 4.0, 16.0)
                .burst_loss(0.3, 10.0, 14.0),
        )
}

#[test]
fn same_seed_and_fault_plan_is_byte_identical_across_runs() {
    for kind in [
        ProtocolKind::Flooding,
        ProtocolKind::Aodv,
        ProtocolKind::Greedy,
        ProtocolKind::Drr,
        ProtocolKind::Epidemic,
    ] {
        let first = format!("{:?}", run_scenario(faulty_scenario(), kind));
        let second = format!("{:?}", run_scenario(faulty_scenario(), kind));
        assert_eq!(
            first, second,
            "{kind:?} diverged under an identical fault plan"
        );
    }
}

/// The report fields a shifted fault transition moves, plus the number of
/// scheduler events processed (floats in `Debug` form, so equal strings mean
/// bit-identical values).
fn fingerprint(r: &Report, events: u64) -> String {
    format!(
        "{}|sent={} dlvd={} dup={} pdr={:?} delay={:?} hops={:?} ctrl={} ctrlB={} dtx={} \
         drops={} nbr={:?} stored={} fwd={} events={events}",
        r.protocol,
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.avg_hops,
        r.control_packets,
        r.control_bytes,
        r.data_transmissions,
        r.drops,
        r.avg_neighbors,
        r.bundles_stored,
        r.bundles_forwarded
    )
}

const FAULTY_KINDS: [ProtocolKind; 2] = [ProtocolKind::Flooding, ProtocolKind::Epidemic];

/// Pinned [`fingerprint`]s of [`faulty_scenario`], in `FAULTY_KINDS` order.
/// The node outage, RSU outage, jam and burst windows all open and close
/// while frames are in flight, so a transition that slipped past even one
/// reception of such a frame would move these. Captured at seed 11 from the
/// engine that scheduled every reception as an event of its own.
const FAULTY_PINS: [&str; 2] = [
    "Flooding|sent=45 dlvd=15 dup=0 pdr=0.3333333333333333 delay=0.002412063894330648 hops=0.7999999999999999 ctrl=0 ctrlB=0 dtx=333 drops=716 nbr=1.7865384615384612 stored=0 fwd=0 events=1632",
    "Epidemic|sent=45 dlvd=8 dup=0 pdr=0.17777777777777778 delay=3.9245246722664735 hops=2.25 ctrl=1196 ctrlB=41892 dtx=1029 drops=19 nbr=3.369230769230767 stored=222 fwd=1029 events=4904",
];

#[test]
fn faulted_runs_match_their_pinned_reports_and_event_counts() {
    for (kind, pin) in FAULTY_KINDS.into_iter().zip(FAULTY_PINS) {
        let mut sim = Simulation::new(faulty_scenario(), kind);
        let report = sim.run();
        let counters = sim.counters();
        assert_eq!(
            fingerprint(&report, counters.events),
            pin,
            "{kind:?} under the fault plan diverged from its pin"
        );
        assert_eq!(counters.check_books(sim.node_count()), Ok(()), "{kind:?}");
    }
}

#[test]
fn fault_plan_participates_in_the_content_hash() {
    let plain = Scenario::highway(24).with_seed(11);
    let faulty = Scenario::highway(24)
        .with_seed(11)
        .with_faults(FaultPlan::new().burst_loss(0.5, 1.0, 2.0));
    assert_ne!(
        plain.content_hash(),
        faulty.content_hash(),
        "a non-empty fault plan must invalidate cached results"
    );
}

#[test]
fn total_burst_blackout_delivers_nothing() {
    let base = Scenario::highway(30)
        .with_seed(7)
        .with_rsus(2)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(30.0));
    let healthy = run_scenario(base.clone(), ProtocolKind::Flooding);
    assert!(
        healthy.data_delivered > 0,
        "baseline must deliver something for the blackout to be observable"
    );
    let blacked_out = run_scenario(
        base.with_faults(FaultPlan::new().burst_loss(1.0, 0.0, f64::INFINITY)),
        ProtocolKind::Flooding,
    );
    assert_eq!(
        blacked_out.data_delivered, 0,
        "loss 1.0 for the whole run must black out every delivery"
    );
}

#[test]
fn outage_windows_degrade_but_do_not_crash_protocols() {
    // Every protocol family must survive a scenario where nodes and an RSU
    // die mid-run — failures arrive only via normal loss/expiry channels.
    for kind in ProtocolKind::ALL {
        let report = run_scenario(faulty_scenario(), kind);
        assert!(
            report.data_sent > 0,
            "{kind:?} originated nothing under faults"
        );
    }
}

#[test]
fn telemetry_observes_outages_and_fault_drops() {
    let tap = WindowedTap::new(SimDuration::from_secs(1.0), 4);
    let mut sim = Simulation::with_telemetry(faulty_scenario(), ProtocolKind::Flooding, tap);
    let _report = sim.run();
    let tap = sim.into_telemetry();
    let outages: u64 = tap.windows().iter().map(|w| w.outages).sum();
    // The plan schedules four disruption onsets: node outage, RSU outage,
    // jam activation and burst activation.
    assert_eq!(outages, 4, "every fault onset must register as an outage");
    let fault_losses: u64 = tap
        .windows()
        .iter()
        .map(|w| w.medium.fault_losses.value())
        .sum();
    assert!(
        fault_losses > 0,
        "a 0.8-loss jam plus a burst window must cost some frames"
    );
}
