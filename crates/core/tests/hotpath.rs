//! Stress-tier checks for the zero-allocation event hot path: a 10k-vehicle
//! megacity smoke run (bounded wall-clock, pinned deterministic report) and
//! the determinism of the batched-beacon scheduler at scale.

mod counters;

use std::time::Instant;
use vanet_core::{ProtocolKind, Report, Scenario, Simulation};
use vanet_sim::SimDuration;

fn fingerprint(r: &Report, events: u64) -> String {
    format!(
        "{}|sent={} dlvd={} dup={} pdr={:?} delay={:?} hops={:?} ctrl={} dtx={} drops={} nbr={:?} events={events}",
        r.protocol,
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.avg_hops,
        r.control_packets,
        r.data_transmissions,
        r.drops,
        r.avg_neighbors
    )
}

/// Two simulated seconds of the full 10 000-vehicle megacity. The report pin
/// makes any nondeterminism (or behaviour change) in the hot path visible,
/// its event count that every reception is still one scheduler event (the
/// run is dense enough that frames are re-queued between receptions), and
/// the engine-counter row how the run loop, the arena and the grid did the
/// work (see `counters/mod.rs`). The wall-clock bound keeps the stress tier
/// honest about throughput.
///
/// Regenerate the pins with:
/// `cargo test -p vanet-core --test hotpath -- --ignored --nocapture`
#[test]
fn megacity_10k_smoke_is_deterministic_and_bounded() {
    const PIN: &str = "Greedy|sent=14 dlvd=0 dup=0 pdr=0.0 delay=0.0 hops=0.0 ctrl=20025 dtx=56 drops=0 nbr=38.56545000000036 events=767362";
    let started = Instant::now();
    let mut sim = Simulation::new(megacity_second(), ProtocolKind::Greedy);
    assert_eq!(sim.node_count(), 10_000);
    let report = sim.run();
    let wall = started.elapsed();
    let counters = sim.counters();
    assert_eq!(
        fingerprint(&report, counters.events),
        PIN,
        "10k-vehicle megacity report or event count diverged from its pin"
    );
    assert_eq!(counters.check_books(sim.node_count()), Ok(()));
    counters::assert_row(MEGACITY_ROW, &counters);
    // Generous bound (debug builds are ~10-20x slower than release); the
    // point is that the stress tier cannot silently become quadratic.
    assert!(
        wall.as_secs() < 300,
        "megacity smoke took {wall:?} — hot path has regressed badly"
    );
}

const MEGACITY_ROW: &str = "megacity-10k Greedy";

fn megacity_second() -> Scenario {
    let mut scenario = Scenario::megacity(10_000)
        .with_flows(8)
        .with_duration(SimDuration::from_secs(2.0));
    // Shrink the warm-up so application flows actually send within the
    // shortened horizon (the full megacity default is 2 s of warm-up).
    scenario.warmup = SimDuration::from_secs(0.5);
    scenario
}

#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    let mut sim = Simulation::new(megacity_second(), ProtocolKind::Greedy);
    let report = sim.run();
    let counters = sim.counters();
    println!("PIN: {:?}", fingerprint(&report, counters.events));
    counters::print_row(MEGACITY_ROW, &counters);
}
