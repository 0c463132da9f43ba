//! Property-style tests of the core invariants: event ordering,
//! link-lifetime closed forms vs numeric integration, probability models
//! staying in [0, 1], path-metric algebra and greedy forwarding monotonicity.
//!
//! Inputs are sampled from seeded `SimRng` streams rather than a
//! property-testing framework (the offline build has no proptest), so every
//! case is deterministic and reproducible by seed.

use vanet::links::lifetime::{
    link_lifetime_constant_acceleration, link_lifetime_constant_speed, link_lifetime_numeric,
    link_lifetime_planar,
};
use vanet::links::probability::{
    link_availability, receipt_probability, segment_connectivity_probability,
};
use vanet::links::{path_lifetime, path_reliability};
use vanet::mobility::geometry::distance;
use vanet::mobility::Vec2;
use vanet::net::NeighborTable;
use vanet::sim::{NodeId, Scheduler, SimDuration, SimRng, SimTime};

const CASES: usize = 128;

/// The scheduler's three tiers merged, seen through the public API: a random
/// mix of absolute-time events (calendar or heap, by distance) and batched
/// timers (wheel, or heap when too far out) on a coarse time grid, so that
/// ties abound. Pops must come in non-decreasing time, and equal times in
/// scheduling order — the payload is the scheduling index.
#[test]
fn event_queue_pops_in_nondecreasing_time_order() {
    let mut rng = SimRng::new(0xE0E0);
    for _ in 0..CASES {
        let count = 1 + rng.uniform_usize(199);
        let mut scheduler = Scheduler::new();
        scheduler.enable_batching(SimDuration::from_secs(0.1));
        scheduler.enable_calendar(SimDuration::from_secs(0.01), 64);
        for i in 0..count {
            // Quarter-second steps over 0–1,000 s: near ones land in the
            // calendar's window, far ones beyond the wheel's.
            let steps = if rng.chance(0.5) {
                rng.uniform_usize(4)
            } else {
                rng.uniform_usize(4_000)
            };
            let secs = 0.25 * steps as f64;
            if rng.chance(0.5) {
                scheduler.schedule_at(SimTime::from_secs(secs), i).unwrap();
            } else {
                scheduler.schedule_batched_after(SimDuration::from_secs(secs), i);
            }
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = scheduler.next_event() {
            if let Some((last_t, last_i)) = last {
                assert!(t >= last_t, "popped {t} after {last_t}");
                assert!(
                    t > last_t || i > last_i,
                    "tie at {t} fired {i} after {last_i}"
                );
            }
            last = Some((t, i));
        }
        assert_eq!(scheduler.processed_events(), count as u64);
    }
}

#[test]
fn constant_speed_lifetime_matches_numeric_integration() {
    let mut rng = SimRng::new(0xC5C5);
    for _ in 0..CASES {
        let d0 = rng.uniform_range(-240.0, 240.0);
        let vi = rng.uniform_range(0.0, 40.0);
        let vj = rng.uniform_range(0.0, 40.0);
        let closed = link_lifetime_constant_speed(d0, vi, vj, 250.0);
        let numeric = link_lifetime_numeric(d0, |_| vi, |_| vj, 250.0, 0.005, 2_000.0);
        if closed.is_finite() && closed.duration_s < 1_900.0 {
            assert!(
                (closed.duration_s - numeric.duration_s).abs() < 0.05,
                "closed {} vs numeric {} (d0 {d0}, vi {vi}, vj {vj})",
                closed.duration_s,
                numeric.duration_s
            );
        }
    }
}

#[test]
fn acceleration_lifetime_matches_numeric_integration() {
    let mut rng = SimRng::new(0xACCE);
    for _ in 0..CASES {
        let d0 = rng.uniform_range(-200.0, 200.0);
        let vi = rng.uniform_range(0.0, 40.0);
        let vj = rng.uniform_range(0.0, 40.0);
        let ai = rng.uniform_range(-2.0, 2.0);
        let aj = rng.uniform_range(-2.0, 2.0);
        let closed = link_lifetime_constant_acceleration(d0, vi, vj, ai, aj, 250.0);
        let numeric = link_lifetime_numeric(
            d0,
            move |t| vi + ai * t,
            move |t| vj + aj * t,
            250.0,
            0.002,
            500.0,
        );
        if closed.is_finite() && closed.duration_s < 450.0 && numeric.is_finite() {
            assert!(
                (closed.duration_s - numeric.duration_s).abs() < 0.1,
                "closed {} vs numeric {} (d0 {d0}, vi {vi}, vj {vj}, ai {ai}, aj {aj})",
                closed.duration_s,
                numeric.duration_s
            );
        }
    }
}

#[test]
fn planar_lifetime_is_never_negative_and_breaks_at_range() {
    let mut rng = SimRng::new(0x9A9A);
    for _ in 0..CASES {
        let px = rng.uniform_range(-200.0, 200.0);
        let py = rng.uniform_range(-5.0, 5.0);
        let vix = rng.uniform_range(-40.0, 40.0);
        let vjx = rng.uniform_range(-40.0, 40.0);
        let p_i = Vec2::new(0.0, 0.0);
        let p_j = Vec2::new(px, py);
        let lt = link_lifetime_planar(p_i, Vec2::new(vix, 0.0), p_j, Vec2::new(vjx, 0.0), 250.0);
        assert!(lt.duration_s >= 0.0);
        if lt.is_finite() && lt.duration_s > 0.0 && distance(p_i, p_j) <= 250.0 {
            // At the predicted break instant the separation is exactly the range.
            let t = lt.duration_s;
            let a = p_i + Vec2::new(vix, 0.0) * t;
            let b = p_j + Vec2::new(vjx, 0.0) * t;
            assert!((distance(a, b) - 250.0).abs() < 1e-6);
        }
    }
}

#[test]
fn probability_models_stay_in_unit_interval() {
    let mut rng = SimRng::new(0x1111);
    for _ in 0..CASES {
        let separation = rng.uniform_range(-300.0, 300.0);
        let mean = rng.uniform_range(-60.0, 60.0);
        let std = rng.uniform_range(0.0, 20.0);
        let horizon = rng.uniform_range(0.0, 120.0);
        let density = rng.uniform_range(0.0, 0.2);
        let length = rng.uniform_range(0.0, 5_000.0);
        let dist = rng.uniform_range(1.0, 1_000.0);
        let a = link_availability(separation, mean, std, 250.0, horizon);
        assert!((0.0..=1.0).contains(&a));
        let c = segment_connectivity_probability(density, length, 250.0);
        assert!((0.0..=1.0).contains(&c));
        let r = receipt_probability(dist, 250.0, 2.7, 6.0);
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn availability_is_monotone_nonincreasing_in_horizon() {
    let mut rng = SimRng::new(0xA0A0);
    for _ in 0..CASES {
        let mean = rng.uniform_range(-30.0, 30.0);
        let std = rng.uniform_range(0.1, 10.0);
        let d0 = rng.uniform_range(-200.0, 200.0);
        let t1 = rng.uniform_range(0.0, 60.0);
        let dt = rng.uniform_range(0.0, 60.0);
        let early = link_availability(d0, mean, std, 250.0, t1);
        let late = link_availability(d0, mean, std, 250.0, t1 + dt);
        assert!(late <= early + 1e-9);
    }
}

#[test]
fn receipt_probability_is_monotone_in_distance() {
    let mut rng = SimRng::new(0x4E4E);
    for _ in 0..CASES {
        let d1 = rng.uniform_range(1.0, 2_000.0);
        let extra = rng.uniform_range(0.0, 500.0);
        let sigma = rng.uniform_range(0.1, 12.0);
        let near = receipt_probability(d1, 250.0, 2.7, sigma);
        let far = receipt_probability(d1 + extra, 250.0, 2.7, sigma);
        assert!(far <= near + 1e-9);
    }
}

#[test]
fn path_metrics_algebra() {
    let mut rng = SimRng::new(0x9878);
    for _ in 0..CASES {
        let lifetimes: Vec<f64> = (0..rng.uniform_usize(12))
            .map(|_| rng.uniform_range(0.0, 1_000.0))
            .collect();
        let rels: Vec<f64> = (0..rng.uniform_usize(12))
            .map(|_| rng.uniform_range(0.0, 1.0))
            .collect();
        let pl = path_lifetime(&lifetimes);
        for l in &lifetimes {
            assert!(pl <= *l + 1e-12);
        }
        let pr = path_reliability(&rels);
        assert!((0.0..=1.0).contains(&pr));
        for r in &rels {
            assert!(pr <= *r + 1e-12);
        }
    }
}

#[test]
fn greedy_next_hop_always_makes_progress() {
    let mut rng = SimRng::new(0x64EE);
    for _ in 0..CASES {
        let count = 1 + rng.uniform_usize(29);
        let mut table = NeighborTable::new();
        let mut positions = Vec::new();
        for i in 0..count {
            let pos = Vec2::new(
                rng.uniform_range(-1_000.0, 1_000.0),
                rng.uniform_range(-1_000.0, 1_000.0),
            );
            positions.push(pos);
            table.observe(
                NodeId(i as u32 + 1),
                pos,
                Vec2::ZERO,
                SimTime::ZERO,
                SimDuration::from_secs(10.0),
            );
        }
        let own = Vec2::new(0.0, 0.0);
        let dest = Vec2::new(
            rng.uniform_range(-2_000.0, 2_000.0),
            rng.uniform_range(-2_000.0, 2_000.0),
        );
        let own_distance = distance(own, dest);
        if let Some(next) = table.view().greedy_next_hop(dest, own_distance) {
            assert!(distance(next.position, dest) < own_distance);
        } else {
            // Local maximum: indeed no neighbour is closer.
            for p in &positions {
                assert!(distance(*p, dest) >= own_distance);
            }
        }
    }
}

#[test]
fn seqno_and_routing_table_freshness() {
    use vanet::routing::{RouteEntry, RoutingTable};
    use vanet::sim::SeqNo;
    let mut rng = SimRng::new(0x5E05);
    for _ in 0..CASES {
        let count = 1 + rng.uniform_usize(39);
        let mut table = RoutingTable::new();
        let mut best_seq = 0;
        for i in 0..count {
            let s = rng.uniform_usize(50) as u64;
            table.upsert(RouteEntry {
                destination: NodeId(9),
                next_hop: NodeId(i as u32),
                hops: 3,
                seq: SeqNo(s),
                metric: 0.0,
                expires_at: SimTime::from_secs(1_000.0),
            });
            best_seq = best_seq.max(s);
        }
        let entry = table.route(NodeId(9), SimTime::ZERO).unwrap();
        assert_eq!(entry.seq, SeqNo(best_seq));
    }
}
