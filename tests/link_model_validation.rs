//! Validates the analytic link models (Eq. 1–4 and the Sec. VII probability
//! models) against the simulated mobility substrate: the closed-form lifetime
//! must match the break time observed when actually moving the vehicles.

use vanet::links::lifetime::{
    indicator, link_lifetime_constant_acceleration, link_lifetime_constant_speed,
    link_lifetime_planar, link_lifetime_with_speed_limit, LinkBreakSide,
};
use vanet::links::path::select_most_stable;
use vanet::links::probability::{link_availability, segment_connectivity_probability};
use vanet::links::{path_lifetime, same_direction, velocity_projection};
use vanet::links::{LinkDurationModel, PathMetrics};
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
        for a in &states {
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

/// Integrates one-dimensional motion (Eq. 1, midpoint rule at 1 ms) from
/// separation `d0` until `|d_t| > range` (Eq. 2); returns the break time and
/// the separation just past it.
fn simulate_1d_break(d0: f64, vi: impl Fn(f64) -> f64, vj: impl Fn(f64) -> f64) -> (f64, f64) {
    let (dt, mut t, mut d) = (1e-3, 0.0, d0);
    while d.abs() <= 250.0 {
        d += (vi(t + 0.5 * dt) - vj(t + 0.5 * dt)) * dt;
        t += dt;
        assert!(t < 600.0, "the link must break");
    }
    (t, d)
}

#[test]
fn eq3_indicator_names_the_side_the_simulated_separation_leaves_by() {
    // Eq. 3–4: the link breaks at d_t = r·I(i,j), so the indicator of the
    // closed-form break side is the sign of the simulated separation there.
    for (d0, vi, vj) in [(-50.0, 30.0, 25.0), (80.0, 22.0, 31.0), (0.0, 18.0, 33.0)] {
        let predicted = link_lifetime_constant_speed(d0, vi, vj, 250.0);
        let (t, d) = simulate_1d_break(d0, |_| vi, |_| vj);
        assert!(
            (predicted.duration_s - t).abs() < 0.01,
            "{predicted:?} vs {t}"
        );
        assert_eq!(predicted.side.indicator(), indicator(d));
        assert!((d - 250.0 * f64::from(indicator(d))).abs() < 0.1);
    }
    let parallel = link_lifetime_constant_speed(10.0, 25.0, 25.0, 250.0);
    assert_eq!(
        (parallel.side, parallel.side.indicator()),
        (LinkBreakSide::Never, 0)
    );
}

#[test]
fn speed_limited_lifetime_matches_clamped_motion() {
    // Eq. 1–4 with speeds saturating in [0, v_m]: the link outlives the
    // unbounded constant-acceleration prediction.
    let clamp = |v: f64| v.clamp(0.0, 30.0);
    for (d0, vi, vj, ai, aj) in [
        (0.0, 20.0, 20.0, 1.0, 0.0),
        (50.0, 10.0, 20.0, -2.0, 0.5),
        (-100.0, 25.0, 28.0, 1.5, -1.0),
    ] {
        let predicted = link_lifetime_with_speed_limit(d0, vi, vj, ai, aj, 250.0, 30.0);
        let (t, _) = simulate_1d_break(d0, |t| clamp(vi + ai * t), |t| clamp(vj + aj * t));
        assert!(
            (predicted.duration_s - t).abs() < 0.05,
            "{predicted:?} vs {t}"
        );
    }
    let unbounded = link_lifetime_constant_acceleration(0.0, 20.0, 20.0, 1.0, 0.0, 250.0);
    let limited = link_lifetime_with_speed_limit(0.0, 20.0, 20.0, 1.0, 0.0, 250.0, 30.0);
    assert!(limited.duration_s > unbounded.duration_s + 5.0);
}

#[test]
fn fig4_projections_decompose_highway_velocities() {
    // Sec. IV-A.2, Fig. 4: the two axes are orthonormal, so each velocity's
    // projections keep its speed; on a straight two-way highway the
    // same-direction predicate holds exactly for pairs driving the same way.
    let mut rng = SimRng::new(17);
    let hw = HighwayBuilder::new()
        .length_m(4_000.0)
        .vehicles(80)
        .lane_changes(false)
        .build(&mut rng);
    let states = hw.states();
    let mut same_way = [0, 0];
    for (i, a) in states.iter().enumerate() {
        for b in states[i + 1..]
            .iter()
            .filter(|b| distance(a.position, b.position) <= 250.0)
        {
            let p = velocity_projection(a.position, a.velocity, b.position, b.velocity);
            assert!((p.a_horizontal.hypot(p.a_vertical) - a.velocity.norm()).abs() < 1e-9);
            assert!((p.b_horizontal.hypot(p.b_vertical) - b.velocity.norm()).abs() < 1e-9);
            let along = a.velocity.dot(b.velocity) > 0.0;
            assert_eq!(
                same_direction(a.position, a.velocity, b.position, b.velocity),
                along
            );
            same_way[usize::from(along)] += 1;
        }
    }
    assert!(same_way.iter().all(|&n| n > 5), "{same_way:?}");
}

#[test]
fn most_stable_path_is_the_one_that_survives_longest() {
    // Sec. IV-A.1: a path lives as long as its weakest link, so the selected
    // chain of vehicles must be the last to break when they actually move.
    let chains: [&[(f64, f64)]; 3] = [
        &[(0.0, 30.0), (200.0, 26.0), (400.0, 31.0)],
        &[(0.0, 30.0), (150.0, 29.0), (300.0, 30.5), (450.0, 30.0)],
        &[(0.0, 30.0), (240.0, 30.0), (480.0, 22.0)],
    ];
    let (mut candidates, mut survived) = (Vec::new(), Vec::new());
    for chain in chains {
        let hops: Vec<_> = chain
            .windows(2)
            .map(|h| {
                let (pa, va) = (Vec2::new(h[0].0, 0.0), Vec2::new(h[0].1, 0.0));
                let (pb, vb) = (Vec2::new(h[1].0, 0.0), Vec2::new(h[1].1, 0.0));
                let simulated = simulate_break_time(pa, va, pb, vb, 250.0);
                let predicted = link_lifetime_planar(pa, va, pb, vb, 250.0).duration_s;
                (predicted, simulated.unwrap_or(f64::INFINITY))
            })
            .collect();
        let lifetimes: Vec<f64> = hops.iter().map(|h| h.0).collect();
        let metrics = PathMetrics::from_links(&lifetimes, &vec![1.0; lifetimes.len()]);
        assert_eq!(
            (metrics.hops, metrics.lifetime_s),
            (lifetimes.len(), path_lifetime(&lifetimes))
        );
        candidates.push(metrics);
        survived.push(hops.iter().map(|h| h.1).fold(f64::INFINITY, f64::min));
    }
    let best = select_most_stable(&candidates).expect("three candidates");
    assert!(
        survived.iter().all(|&t| t <= survived[best]),
        "{survived:?}, chose {best}"
    );
    assert_eq!((best, select_most_stable(&[])), (1, None));
}

#[test]
fn expected_duration_matches_monte_carlo_lifetimes() {
    // Sec. VII: E[T] under a normally distributed relative speed is the mean
    // of the constant-speed lifetimes over sampled speeds.
    use vanet::mobility::distributions::{Normal, Sampler};
    let mut rng = SimRng::new(61);
    for (mean, std, d0) in [(10.0, 2.0, 50.0), (-8.0, 1.5, -30.0)] {
        let analytic = LinkDurationModel::new(mean, std, d0, 250.0).expected_duration();
        let dist = Normal::new(mean, std);
        let n = 40_000;
        let total: f64 = (0..n)
            .map(|_| link_lifetime_constant_speed(d0, dist.sample(&mut rng), 0.0, 250.0).duration_s)
            .sum();
        let empirical = total / f64::from(n);
        assert!(
            (analytic - empirical).abs() < 0.01 * analytic,
            "{analytic} vs {empirical}"
        );
    }
}
