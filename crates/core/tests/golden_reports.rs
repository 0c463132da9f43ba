//! Golden per-protocol reports pinned against the pre-`ActionSink` engine.
//!
//! The hot-path refactor (protocol `ActionSink` API, `Arc`-shared frames,
//! scratch delivery buffers, batched beacon wheel) must not change a single
//! simulated outcome: for a fixed seed, every protocol has to produce a
//! byte-identical [`Report`]. The pins below were captured from the engine
//! *before* the refactor; any diff here means the refactor altered RNG
//! consumption or event ordering somewhere.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! cargo test -p vanet-core --test golden_reports -- --ignored --nocapture regenerate
//! ```

use vanet_core::{ChannelModel, ProtocolKind, Report, Scenario, Simulation, TrafficRegime};
use vanet_net::{InterferenceCounts, WindowCounts};
use vanet_sim::SimDuration;

/// The fixed scenario every protocol is pinned on: a 30-vehicle highway with
/// RSUs (exercises DRR's backbone) and buses (exercises the bus ferry).
fn golden_scenario() -> Scenario {
    Scenario::highway(30)
        .with_seed(7)
        .with_rsus(2)
        .with_buses(2)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(30.0))
}

/// A compact, lossless fingerprint of a report. Floats are rendered with
/// `Debug` (shortest round-trip representation), so two fingerprints are
/// equal iff the reports are bit-identical.
fn fingerprint(r: &Report) -> String {
    format!(
        "{}|sent={} dlvd={} dup={} pdr={:?} delay={:?} maxdelay={:?} hops={:?} \
         ctrl={} ctrlB={} dtx={} rerr={} drops={} nbr={:?}",
        r.protocol,
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.max_delay_s,
        r.avg_hops,
        r.control_packets,
        r.control_bytes,
        r.data_transmissions,
        r.route_errors,
        r.drops,
        r.avg_neighbors
    )
}

/// Pinned fingerprints, one per `ProtocolKind` in `ALL` order.
/// Captured from the pre-refactor engine at seed 7.
const PINS: &[&str] = &[
    "Flooding|sent=75 dlvd=6 dup=0 pdr=0.08 delay=0.01046353144706528 maxdelay=0.012677419095819431 hops=5.0 ctrl=0 ctrlB=0 dtx=627 rerr=0 drops=1280 nbr=2.168750000000002",
    "Biswas|sent=75 dlvd=11 dup=0 pdr=0.14666666666666667 delay=1.0337708339644407 maxdelay=4.566312094358889 hops=5.727272727272727 ctrl=0 ctrlB=0 dtx=922 rerr=0 drops=1757 nbr=2.233333333333333",
    "AODV|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1320 ctrlB=43676 dtx=0 rerr=13 drops=635 nbr=3.813541666666667",
    "DSDV|sent=75 dlvd=3 dup=0 pdr=0.04 delay=0.008124698842881509 maxdelay=0.00848280756930464 hops=6.0 ctrl=480 ctrlB=61872 dtx=58 rerr=0 drops=65 nbr=3.214583333333332",
    "PBR|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1331 ctrlB=44176 dtx=0 rerr=16 drops=627 nbr=3.8135416666666644",
    "Taleb|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1071 ctrlB=34072 dtx=0 rerr=5 drops=257 nbr=3.809375000000001",
    "Abedi|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1319 ctrlB=43608 dtx=0 rerr=14 drops=636 nbr=3.813541666666667",
    "DRR|sent=75 dlvd=15 dup=0 pdr=0.2 delay=10.50042384368885 maxdelay=19.757498930173277 hops=3.0 ctrl=982 ctrlB=42424 dtx=195 rerr=0 drops=0 nbr=3.8020833333333313",
    "Bus|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=960 ctrlB=30720 dtx=25 rerr=0 drops=0 nbr=3.802083333333331",
    "Greedy|sent=75 dlvd=4 dup=0 pdr=0.05333333333333334 delay=0.11262254551842908 maxdelay=0.4234308530027473 hops=6.0 ctrl=960 ctrlB=30720 dtx=251 rerr=0 drops=0 nbr=3.8031250000000014",
    "Zone|sent=75 dlvd=7 dup=0 pdr=0.09333333333333334 delay=0.011501307937278325 maxdelay=0.014028192284975205 hops=5.142857142857143 ctrl=960 ctrlB=30720 dtx=623 rerr=0 drops=1255 nbr=3.814583333333338",
    "ROVER|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1320 ctrlB=43676 dtx=0 rerr=13 drops=635 nbr=3.813541666666667",
    "Yan|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1139 ctrlB=37692 dtx=0 rerr=0 drops=95 nbr=3.8031250000000023",
    "Yan-TBPSS|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1139 ctrlB=37704 dtx=0 rerr=0 drops=96 nbr=3.807291666666665",
    "CAR|sent=75 dlvd=4 dup=0 pdr=0.05333333333333334 delay=0.11262254551842908 maxdelay=0.4234308530027473 hops=6.0 ctrl=960 ctrlB=30720 dtx=250 rerr=0 drops=0 nbr=3.8031250000000014",
    "REAR|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=0.010873164722845274 maxdelay=0.010873164722845274 hops=7.0 ctrl=960 ctrlB=30720 dtx=313 rerr=0 drops=0 nbr=3.805208333333331",
    "GVGrid|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=0.015663958650240062 maxdelay=0.015663958650240062 hops=8.0 ctrl=960 ctrlB=30720 dtx=305 rerr=0 drops=0 nbr=3.805208333333332",
    "Epidemic|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=13.42289873314268 maxdelay=13.42289873314268 hops=9.0 ctrl=2362 ctrlB=115852 dtx=1953 rerr=0 drops=66 nbr=3.8510416666666645",
    "PRoPHET|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=2008 ctrlB=181984 dtx=507 rerr=0 drops=6 nbr=3.8489583333333344",
    "SprayWait|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=2094 ctrlB=77628 dtx=330 rerr=0 drops=3 nbr=3.842708333333332",
    "ProbFlood|sent=75 dlvd=7 dup=0 pdr=0.09333333333333334 delay=3.668832132403559 maxdelay=17.10116248617009 hops=5.7142857142857135 ctrl=957 ctrlB=30624 dtx=1265 rerr=0 drops=1835 nbr=3.8187499999999943",
];

/// Runs `scenario` under `kind`; returns the report and the number of
/// scheduler events the run processed.
fn run_counted(scenario: Scenario, kind: ProtocolKind) -> (Report, u64) {
    let mut sim = Simulation::new(scenario, kind);
    let report = sim.run();
    (report, sim.processed_events())
}

/// Runs `scenario` under each of `kinds` and panics, naming `what`, with
/// every fingerprint that differs from its pin.
fn assert_pinned(
    what: &str,
    kinds: &[ProtocolKind],
    pins: &[&str],
    scenario: impl Fn() -> Scenario,
    fingerprint: impl Fn(&Report, u64) -> String,
) {
    assert_eq!(pins.len(), kinds.len(), "pin list out of sync — regenerate");
    let mut failures = Vec::new();
    for (&kind, pin) in kinds.iter().zip(pins) {
        let (report, events) = run_counted(scenario(), kind);
        let got = fingerprint(&report, events);
        if got != *pin {
            failures.push(format!("{kind:?}:\n  pinned: {pin}\n  got:    {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{what} for {} protocol(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_protocol_matches_its_pinned_report() {
    assert_pinned(
        "golden reports diverged",
        &ProtocolKind::ALL,
        PINS,
        golden_scenario,
        |r, _| fingerprint(r),
    );
}

/// An *empty* fault plan must be invisible: attaching `FaultPlan::new()`
/// explicitly schedules no events, draws no RNG, and changes no seq numbers,
/// so every protocol must still match its pre-fault-support pin exactly.
#[test]
fn empty_fault_plan_is_byte_identical_for_every_protocol() {
    assert_pinned(
        "an empty FaultPlan changed the engine",
        &ProtocolKind::ALL,
        PINS,
        || golden_scenario().with_faults(vanet_core::FaultPlan::new()),
        |r, _| fingerprint(r),
    );
}

/// The regime the repo benchmark's `dtn-epidemic` workload measures and the
/// 30-vehicle pins above never reach: counterflow, buffer capacity 1024, a
/// 20 s bundle TTL so `expire_due` retires bundles from t = 25 s on, and the
/// scenario's node outage live from t = 20 s.
fn disrupted_scenario() -> Scenario {
    Scenario::disrupted_highway(60)
        .with_seed(7)
        .with_flows(8)
        .with_dtn_ttl(SimDuration::from_secs(20.0))
        .with_duration(SimDuration::from_secs(30.0))
}

/// [`fingerprint`] plus the six bundle metrics: slot order inside the
/// `BundleBuffer` decides transmission order, and these counters are where a
/// change to it shows first.
fn dtn_fingerprint(r: &Report) -> String {
    format!(
        "{} stored={} fwd={} expired={} evicted={} custody={} peak={}",
        fingerprint(r),
        r.bundles_stored,
        r.bundles_forwarded,
        r.bundles_expired,
        r.bundles_evicted,
        r.custody_transfers,
        r.buffer_peak
    )
}

const DTN_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Epidemic,
    ProtocolKind::Prophet,
    ProtocolKind::SprayWait,
    ProtocolKind::ProbFlood,
];

/// Pinned [`dtn_fingerprint`]s on [`disrupted_scenario`], in `DTN_KINDS`
/// order. Captured at seed 7 from the engine with fully preallocated buffer
/// slots and a per-frame interference recount.
const DTN_PINS: &[&str] = &[
    "Epidemic|sent=200 dlvd=7 dup=0 pdr=0.035 delay=10.540918490786582 maxdelay=14.533402038005491 hops=3.285714285714286 ctrl=4481 ctrlB=219156 dtx=14748 rerr=0 drops=564 nbr=4.755000000000008 stored=1115 fwd=14748 expired=478 evicted=0 custody=162 peak=43",
    "PRoPHET|sent=200 dlvd=10 dup=0 pdr=0.05 delay=3.4371400650727337 maxdelay=10.536183960462374 hops=1.6 ctrl=3712 ctrlB=511976 dtx=478 rerr=0 drops=88 nbr=4.754444444444448 stored=343 fwd=478 expired=82 evicted=0 custody=34 peak=25",
    "SprayWait|sent=200 dlvd=13 dup=0 pdr=0.065 delay=4.895472825817613 maxdelay=16.8693320323818 hops=1.6153846153846154 ctrl=3963 ctrlB=163828 dtx=911 rerr=0 drops=149 nbr=4.759444444444449 stored=591 fwd=911 expired=138 evicted=0 custody=122 peak=30",
    "ProbFlood|sent=200 dlvd=30 dup=0 pdr=0.15 delay=4.338794586049616 maxdelay=15.582766315181313 hops=2.3666666666666663 ctrl=1789 ctrlB=57248 dtx=12926 rerr=0 drops=12623 nbr=4.668888888888887 stored=2903 fwd=10429 expired=826 evicted=0 custody=0 peak=76",
];

#[test]
fn dtn_protocols_match_their_pins_on_the_disrupted_highway() {
    assert_pinned(
        "disrupted-highway DTN reports diverged",
        &DTN_KINDS,
        DTN_PINS,
        disrupted_scenario,
        |r, _| dtn_fingerprint(r),
    );
}

/// The regime the repo benchmark's `highway-yan` and `highway-aodv` workloads
/// measure and the 30-vehicle pins above never reach (mean degree 3.8, a
/// 3-entry contention window, nothing delivered): the congested Table-I
/// highway, 480 vehicles and ≈58 neighbours each, so every ticket hop ranks
/// dozens of candidates by link stability and every RREQ or data flood is a
/// broadcast storm — contention windows of 50 and more entries, the regime
/// the medium's interference counts are sized for. 8 s puts 3 s of live
/// flows after the scenario's 5 s warm-up.
fn congested_scenario() -> Scenario {
    Scenario::highway_regime(TrafficRegime::Congested)
        .with_seed(7)
        .with_flows(32)
        .with_duration(SimDuration::from_secs(8.0))
}

/// [`fingerprint`] plus the number of scheduler events processed: every
/// frame here reaches dozens of receivers a fraction of a microsecond apart,
/// and each of those receptions is one event whichever way the engine queues
/// them.
fn congested_fingerprint(r: &Report, events: u64) -> String {
    format!("{} events={events}", fingerprint(r))
}

const CONGESTED_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Yan,
    ProtocolKind::YanTbpss,
    ProtocolKind::Aodv,
    ProtocolKind::Flooding,
];

/// Pinned [`congested_fingerprint`]s on [`congested_scenario`], in
/// `CONGESTED_KINDS` order. Captured at seed 7: the two ticket-probing lines from the engine
/// whose `expected_link_duration` evaluated `Normal::pdf` at every quadrature
/// sample, the two storm lines from the engine whose interference count
/// branched per window entry and called `powi` per receiver.
const CONGESTED_PINS: &[&str] = &[
    "Yan|sent=96 dlvd=6 dup=0 pdr=0.0625 delay=0.3440361181262269 maxdelay=2.012383372964573 hops=2.5 ctrl=4296 ctrlB=142320 dtx=30 rerr=0 drops=21 nbr=58.03776041666673 events=234365",
    "Yan-TBPSS|sent=96 dlvd=3 dup=0 pdr=0.03125 delay=0.002247248680540418 maxdelay=0.004552204258257753 hops=1.0 ctrl=4298 ctrlB=142076 dtx=3 rerr=0 drops=24 nbr=58.04114583333327 events=233383",
    "AODV|sent=96 dlvd=2 dup=2 pdr=0.020833333333333332 delay=0.008032546026759402 maxdelay=0.008327361118486643 hops=4.5 ctrl=26919 ctrlB=1481224 dtx=17 rerr=0 drops=127836 nbr=58.07968750000001 events=339352",
    "Flooding|sent=96 dlvd=85 dup=0 pdr=0.8854166666666666 delay=0.049953376428885365 maxdelay=0.1780082161615093 hops=7.6000000000000005 ctrl=0 ctrlB=0 dtx=39888 rerr=0 drops=219442 nbr=21.52421875000002 events=263271",
];

#[test]
fn yan_aodv_and_flooding_match_their_pins_on_the_congested_highway() {
    assert_pinned(
        "congested-highway reports diverged",
        &CONGESTED_KINDS,
        CONGESTED_PINS,
        congested_scenario,
        congested_fingerprint,
    );
}

/// The medium's collision self-metric on the AODV storm of
/// [`congested_scenario`], pinned exactly: the survival bracket decides most
/// receivers' collision draws without counting their contention window, and
/// a change to when it applies or falls back shows here even while every
/// report stays byte-identical.
#[test]
fn the_survival_bracket_decides_most_of_the_congested_aodv_storm() {
    let mut sim = Simulation::new(congested_scenario(), ProtocolKind::Aodv);
    sim.run();
    let counts = sim.interference_counts();
    assert_eq!(
        counts,
        InterferenceCounts {
            frames: 26_936,
            continued: 2,
            receivers: 1_559_047,
            bracketed: 1_458_126,
            decided: 1_182_335,
            scanned: 340_229,
        }
    );
    assert!(
        counts.decided as f64 >= 0.7 * counts.receivers as f64,
        "{counts:?}"
    );
}

/// The medium's run-length contention window on the Epidemic run of
/// [`disrupted_scenario`], pinned exactly: summary-vector answers are
/// bursts of frames from one place at one instant, so the fresh snapshots
/// collect more copies than distinct entries, and a change to how the
/// window stores or gathers them shows here even while every report stays
/// byte-identical.
#[test]
fn the_run_length_window_compresses_the_epidemic_bursts() {
    let mut sim = Simulation::new(disrupted_scenario(), ProtocolKind::Epidemic);
    sim.run();
    let counts = sim.window_counts();
    assert_eq!(
        counts,
        WindowCounts {
            snapshots: 6_863,
            entries: 124_813,
            copies: 453_578,
        }
    );
    assert!(counts.copies > counts.entries, "{counts:?}");
}

/// [`congested_scenario`] on the log-normal shadowing channel, cut to one
/// second of live flows: the only whole-simulation run on a channel whose
/// reception inside `max_range` is not certain, so every candidate copy
/// draws its propagation outcome before its collision outcome.
fn shadowed_scenario() -> Scenario {
    congested_scenario()
        .with_channel(ChannelModel::Shadowing {
            alpha: 2.7,
            sigma_db: 4.0,
        })
        .with_duration(SimDuration::from_secs(6.0))
}

const SHADOWED_KINDS: [ProtocolKind; 2] = [ProtocolKind::Yan, ProtocolKind::Aodv];

/// Pinned [`congested_fingerprint`]s on [`shadowed_scenario`], in
/// `SHADOWED_KINDS` order. Captured at seed 7 from the engine that counted
/// every receiver's interferers before its collision draw.
const SHADOWED_PINS: &[&str] = &[
    "Yan|sent=32 dlvd=1 dup=0 pdr=0.03125 delay=0.0042868875436932186 maxdelay=0.0042868875436932186 hops=1.0 ctrl=3068 ctrlB=99172 dtx=1 rerr=0 drops=6 nbr=72.1708333333332 events=176768",
    "AODV|sent=32 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=15707 ctrlB=763168 dtx=2 rerr=0 drops=70787 nbr=73.89999999999996 events=238657",
];

#[test]
fn yan_and_aodv_match_their_pins_on_the_shadowed_congested_highway() {
    assert_pinned(
        "shadowed congested-highway reports diverged",
        &SHADOWED_KINDS,
        SHADOWED_PINS,
        shadowed_scenario,
        congested_fingerprint,
    );
}

/// Prints the pin lists for pasting into `PINS`, `DTN_PINS`,
/// `CONGESTED_PINS` and `SHADOWED_PINS`.
/// Run with `--ignored`.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    for kind in ProtocolKind::ALL {
        let (report, _) = run_counted(golden_scenario(), kind);
        println!("    {:?},", fingerprint(&report));
    }
    println!();
    for kind in DTN_KINDS {
        let (report, _) = run_counted(disrupted_scenario(), kind);
        println!("    {:?},", dtn_fingerprint(&report));
    }
    println!();
    for kind in CONGESTED_KINDS {
        let (report, events) = run_counted(congested_scenario(), kind);
        println!("    {:?},", congested_fingerprint(&report, events));
    }
    println!();
    for kind in SHADOWED_KINDS {
        let (report, events) = run_counted(shadowed_scenario(), kind);
        println!("    {:?},", congested_fingerprint(&report, events));
    }
}
