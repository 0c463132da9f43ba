//! Validates the analytic link models (Eq. 1–4 and the Sec. VII probability
//! models) against the simulated mobility substrate: the closed-form lifetime
//! must match the break time observed when actually moving the vehicles.

use vanet::links::lifetime::{link_lifetime_constant_speed, link_lifetime_planar};
use vanet::links::path_lifetime;
use vanet::links::probability::{link_availability, segment_connectivity_probability};
use vanet::mobility::geometry::distance;
use vanet::mobility::{HighwayBuilder, MobilityModel, Vec2};
use vanet::sim::{NodeId, SimDuration, SimRng};

/// Simulates two constant-speed vehicles and measures when their separation
/// first exceeds the range.
fn simulate_break_time(p0: Vec2, v0: Vec2, p1: Vec2, v1: Vec2, range: f64) -> Option<f64> {
    let dt = 0.01;
    let mut t = 0.0;
    while t < 600.0 {
        let a = p0 + v0 * t;
        let b = p1 + v1 * t;
        if distance(a, b) > range {
            return Some(t);
        }
        t += dt;
    }
    None
}

#[test]
fn planar_lifetime_matches_simulated_two_vehicle_motion() {
    let cases = [
        (
            Vec2::new(0.0, 0.0),
            Vec2::new(33.0, 0.0),
            Vec2::new(80.0, 4.0),
            Vec2::new(25.0, 0.0),
        ),
        (
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(120.0, 4.0),
            Vec2::new(-28.0, 0.0),
        ),
        (
            Vec2::new(50.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(0.0, 0.0),
            Vec2::new(31.0, 0.0),
        ),
    ];
    for (p0, v0, p1, v1) in cases {
        let predicted = link_lifetime_planar(p0, v0, p1, v1, 250.0);
        let simulated = simulate_break_time(p0, v0, p1, v1, 250.0);
        match simulated {
            Some(t) => {
                assert!(
                    (predicted.duration_s - t).abs() < 0.05,
                    "predicted {} vs simulated {t}",
                    predicted.duration_s
                );
            }
            None => assert!(!predicted.is_finite()),
        }
    }
}

#[test]
fn analytic_lifetime_matches_highway_mobility_model() {
    // Take two same-direction vehicles from the highway generator, freeze
    // their current kinematics and compare the analytic prediction with the
    // straight-line extrapolation of the mobility state.
    let mut rng = SimRng::new(13);
    let hw = HighwayBuilder::new()
        .length_m(100_000.0) // long ring so the wrap never interferes
        .vehicles(40)
        .lane_changes(false)
        .build(&mut rng);
    let states = hw.states();
    let mut checked = 0;
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            let (a, b) = (states[i], states[j]);
            if distance(a.position, b.position) > 200.0 {
                continue;
            }
            let predicted =
                link_lifetime_planar(a.position, a.velocity, b.position, b.velocity, 250.0);
            let simulated =
                simulate_break_time(a.position, a.velocity, b.position, b.velocity, 250.0);
            match simulated {
                Some(t) => assert!(
                    (predicted.duration_s - t).abs() < 0.1,
                    "predicted {} vs simulated {t}",
                    predicted.duration_s
                ),
                // The simulation horizon is 600 s: beyond it we only require
                // the prediction to agree that the link outlives the horizon.
                None => assert!(predicted.duration_s > 590.0),
            }
            checked += 1;
        }
    }
    assert!(checked > 5, "expected several vehicle pairs within range");
}

#[test]
fn one_dimensional_and_planar_models_agree_on_same_lane_traffic() {
    for (d0, vi, vj) in [
        (-100.0, 32.0, 27.0),
        (60.0, 25.0, 30.0),
        (-20.0, 35.0, 10.0),
    ] {
        let linear = link_lifetime_constant_speed(d0, vi, vj, 250.0);
        let planar = link_lifetime_planar(
            Vec2::new(0.0, 0.0),
            Vec2::new(vi, 0.0),
            Vec2::new(-d0, 0.0),
            Vec2::new(vj, 0.0),
            250.0,
        );
        assert!((linear.duration_s - planar.duration_s).abs() < 1e-6);
    }
}

#[test]
fn path_lifetime_is_bottleneck_of_measured_links() {
    // Three links with known lifetimes: the path must break when the weakest
    // link breaks.
    let links = [
        (
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(28.0, 0.0),
        ),
        (
            Vec2::new(100.0, 0.0),
            Vec2::new(28.0, 0.0),
            Vec2::new(250.0, 0.0),
            Vec2::new(22.0, 0.0),
        ),
        (
            Vec2::new(250.0, 0.0),
            Vec2::new(22.0, 0.0),
            Vec2::new(350.0, 0.0),
            Vec2::new(30.0, 0.0),
        ),
    ];
    let lifetimes: Vec<f64> = links
        .iter()
        .map(|(pa, va, pb, vb)| link_lifetime_planar(*pa, *va, *pb, *vb, 250.0).duration_s)
        .collect();
    let path = path_lifetime(&lifetimes);
    let min = lifetimes.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(path, min);
    assert!(path.is_finite());
}

#[test]
fn availability_model_tracks_empirical_survival_frequency() {
    // Empirically: draw relative speeds from the assumed normal distribution,
    // check the fraction of links still alive at horizon T, compare with the
    // analytic availability.
    use vanet::mobility::distributions::{Normal, Sampler};
    let range = 250.0;
    let (mean, std, d0, horizon) = (4.0, 3.0, 50.0, 20.0);
    let analytic = link_availability(d0, mean, std, range, horizon);
    let dist = Normal::new(mean, std);
    let mut rng = SimRng::new(33);
    let n = 20_000;
    let mut alive = 0;
    for _ in 0..n {
        let v = dist.sample(&mut rng);
        let future = d0 + v * horizon;
        if (-range..=range).contains(&future) {
            alive += 1;
        }
    }
    let empirical = f64::from(alive) / f64::from(n);
    assert!(
        (analytic - empirical).abs() < 0.02,
        "analytic {analytic} vs empirical {empirical}"
    );
}

#[test]
fn segment_connectivity_tracks_empirical_gap_statistics() {
    // Place Poisson traffic on a segment and measure how often all gaps are
    // below the radio range; the analytic formula should be in the right
    // ballpark (it uses the expected vehicle count).
    use vanet::mobility::distributions::{Exponential, Sampler};
    let mut rng = SimRng::new(44);
    let density = 0.012; // vehicles per metre
    let length = 2_000.0;
    let range = 250.0;
    let analytic = segment_connectivity_probability(density, length, range);
    let gaps = Exponential::new(density);
    let trials = 4_000;
    let mut connected = 0;
    for _ in 0..trials {
        let mut pos = 0.0;
        let mut ok = true;
        loop {
            let gap = gaps.sample(&mut rng);
            if pos + gap > length {
                break;
            }
            if gap > range {
                ok = false;
                break;
            }
            pos += gap;
        }
        if ok {
            connected += 1;
        }
    }
    let empirical = f64::from(connected) / f64::from(trials);
    assert!(
        (analytic - empirical).abs() < 0.12,
        "analytic {analytic} vs empirical {empirical}"
    );
}

#[test]
fn highway_neighbour_counts_scale_with_density() {
    // Sanity check tying mobility and the radio range together: the expected
    // number of single-hop neighbours grows with vehicle density.
    let count_neighbors = |vehicles: usize| -> f64 {
        let mut rng = SimRng::new(5);
        let hw = HighwayBuilder::new()
            .length_m(4_000.0)
            .vehicles(vehicles)
            .build(&mut rng);
        let states = hw.states();
        let mut total = 0usize;
        for a in states {
            total += states
                .iter()
                .filter(|b| b.id != a.id && distance(a.position, b.position) <= 250.0)
                .count();
        }
        total as f64 / states.len() as f64
    };
    let sparse = count_neighbors(20);
    let dense = count_neighbors(160);
    assert!(dense > sparse * 4.0, "dense {dense} vs sparse {sparse}");
    // NodeId sanity for the generated vehicles.
    let mut rng = SimRng::new(5);
    let hw = HighwayBuilder::new().vehicles(10).build(&mut rng);
    assert_eq!(hw.states()[0].id, NodeId(0));
    let _ = SimDuration::from_secs(1.0);
}
