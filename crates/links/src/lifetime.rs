//! Link lifetime: Equations (1)–(4) of the paper.
//!
//! Two vehicles `i` (sender) and `j` (receiver) are connected while their
//! separation is at most the communication range `r`. With
//! `S(t) = ∫₀ᵗ v(x) dx` (Eq. 1) the signed separation evolves as
//! `d_t = S_i(t) − S_j(t) + d_0` (Eq. 2); the indicator `I(i,j)` (Eq. 3) tells
//! which vehicle is ahead when the link finally breaks, and the break itself
//! happens when `d_t = r · I(i,j)` (Eq. 4).
//!
//! Sign convention: `d_0 > 0` means vehicle `i` starts ahead of vehicle `j`
//! along the direction of travel; speeds and accelerations are signed scalars
//! along the same axis (the 1-D highway abstraction of Fig. 3).

/// Which side of the range window the link breaks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBreakSide {
    /// The link breaks with vehicle `i` ahead of `j` (`d_t = +r`), i.e.
    /// `I(i,j) = 1`.
    Ahead,
    /// The link breaks with vehicle `i` behind `j` (`d_t = −r`), i.e.
    /// `I(i,j) = −1`.
    Behind,
    /// The link never breaks under the given motion model.
    Never,
}

impl LinkBreakSide {
    /// The paper's indicator function `I(i,j)`: `+1` when `i` ends up ahead,
    /// `−1` when it ends up behind, `0` when the link never breaks.
    #[must_use]
    pub fn indicator(self) -> i8 {
        match self {
            LinkBreakSide::Ahead => 1,
            LinkBreakSide::Behind => -1,
            LinkBreakSide::Never => 0,
        }
    }
}

/// The predicted lifetime of a communication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLifetime {
    /// Time until the link breaks, in seconds (`f64::INFINITY` if never).
    pub duration_s: f64,
    /// Which boundary the separation reaches.
    pub side: LinkBreakSide,
}

impl LinkLifetime {
    /// A link that never breaks.
    #[must_use]
    pub fn never() -> Self {
        LinkLifetime {
            duration_s: f64::INFINITY,
            side: LinkBreakSide::Never,
        }
    }

    /// Whether the link eventually breaks.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.duration_s.is_finite()
    }
}

fn validate_inputs(d0: f64, range: f64) {
    assert!(range > 0.0, "communication range must be positive");
    assert!(
        d0.abs() <= range,
        "vehicles must start within range (|d0| = {} > r = {})",
        d0.abs(),
        range
    );
}

/// Link lifetime for two vehicles travelling at constant speeds `vi` and `vj`
/// (Fig. 3 case (a)): `d_t = d_0 + (v_i − v_j)·t`, solved against `±r`.
///
/// # Panics
///
/// Panics if `range <= 0` or the vehicles do not start within range.
#[must_use]
pub fn link_lifetime_constant_speed(d0: f64, vi: f64, vj: f64, range: f64) -> LinkLifetime {
    validate_inputs(d0, range);
    let dv = vi - vj;
    if dv == 0.0 {
        return LinkLifetime::never();
    }
    if dv > 0.0 {
        LinkLifetime {
            duration_s: (range - d0) / dv,
            side: LinkBreakSide::Ahead,
        }
    } else {
        LinkLifetime {
            duration_s: (-range - d0) / dv,
            side: LinkBreakSide::Behind,
        }
    }
}

/// Smallest positive root of `a·t² + b·t + c = 0`, if any.
fn smallest_positive_root(a: f64, b: f64, c: f64) -> Option<f64> {
    const EPS: f64 = 1e-12;
    if a.abs() < EPS {
        if b.abs() < EPS {
            return None;
        }
        let t = -c / b;
        return if t > EPS { Some(t) } else { None };
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let t1 = (-b - sq) / (2.0 * a);
    let t2 = (-b + sq) / (2.0 * a);
    let mut best: Option<f64> = None;
    for t in [t1, t2] {
        if t > EPS {
            best = Some(match best {
                Some(b) if b <= t => b,
                _ => t,
            });
        }
    }
    best
}

/// Link lifetime for constant accelerations `ai`, `aj` (Fig. 3 case (b)),
/// ignoring speed limits: `d_t = d_0 + Δv·t + ½·Δa·t²` solved against `±r`.
///
/// # Panics
///
/// Panics if `range <= 0` or the vehicles do not start within range.
#[must_use]
pub fn link_lifetime_constant_acceleration(
    d0: f64,
    vi: f64,
    vj: f64,
    ai: f64,
    aj: f64,
    range: f64,
) -> LinkLifetime {
    validate_inputs(d0, range);
    let dv = vi - vj;
    let da = ai - aj;
    if da == 0.0 {
        return link_lifetime_constant_speed(d0, vi, vj, range);
    }
    // d(t) - (+r) = 0  and  d(t) - (-r) = 0
    let ahead = smallest_positive_root(0.5 * da, dv, d0 - range);
    let behind = smallest_positive_root(0.5 * da, dv, d0 + range);
    match (ahead, behind) {
        (None, None) => LinkLifetime::never(),
        (Some(t), None) => LinkLifetime {
            duration_s: t,
            side: LinkBreakSide::Ahead,
        },
        (None, Some(t)) => LinkLifetime {
            duration_s: t,
            side: LinkBreakSide::Behind,
        },
        (Some(ta), Some(tb)) => {
            if ta <= tb {
                LinkLifetime {
                    duration_s: ta,
                    side: LinkBreakSide::Ahead,
                }
            } else {
                LinkLifetime {
                    duration_s: tb,
                    side: LinkBreakSide::Behind,
                }
            }
        }
    }
}

/// Link lifetime under constant acceleration *with the speed limit `v_m`*
/// (and a floor of 0 m/s): speeds saturate, after which the motion continues
/// at constant speed. Solved by exact piecewise integration of the three
/// phases (both accelerating, one saturated, both saturated).
///
/// # Panics
///
/// Panics if `range <= 0`, `vm <= 0`, or the vehicles do not start in range.
#[must_use]
pub fn link_lifetime_with_speed_limit(
    d0: f64,
    vi: f64,
    vj: f64,
    ai: f64,
    aj: f64,
    range: f64,
    vm: f64,
) -> LinkLifetime {
    validate_inputs(d0, range);
    assert!(vm > 0.0, "speed limit must be positive");
    let clamp = move |v: f64| v.clamp(0.0, vm);
    let vi0 = clamp(vi);
    let vj0 = clamp(vj);
    let speed_i = move |t: f64| clamp(vi0 + ai * t);
    let speed_j = move |t: f64| clamp(vj0 + aj * t);
    link_lifetime_numeric(d0, speed_i, speed_j, range, 0.01, 7_200.0)
}

/// Numeric link lifetime for arbitrary speed profiles `v_i(t)`, `v_j(t)`
/// (Eq. 1 integrated with the trapezoidal rule at step `dt_s`), searched up
/// to `t_max_s`.
///
/// Returns [`LinkLifetime::never`] if the link survives the whole horizon.
///
/// # Panics
///
/// Panics if `range <= 0`, the vehicles do not start within range, or
/// `dt_s <= 0`.
#[must_use]
pub fn link_lifetime_numeric<F, G>(
    d0: f64,
    speed_i: F,
    speed_j: G,
    range: f64,
    dt_s: f64,
    t_max_s: f64,
) -> LinkLifetime
where
    F: Fn(f64) -> f64,
    G: Fn(f64) -> f64,
{
    validate_inputs(d0, range);
    assert!(dt_s > 0.0, "integration step must be positive");
    let mut t = 0.0;
    let mut d = d0;
    let mut prev_rel = speed_i(0.0) - speed_j(0.0);
    while t < t_max_s {
        let next_t = t + dt_s;
        let rel = speed_i(next_t) - speed_j(next_t);
        let next_d = d + 0.5 * (prev_rel + rel) * dt_s;
        if next_d > range || next_d < -range {
            // Linear interpolation of the crossing instant inside the step.
            let boundary = if next_d > range { range } else { -range };
            let frac = if (next_d - d).abs() < 1e-15 {
                1.0
            } else {
                (boundary - d) / (next_d - d)
            };
            return LinkLifetime {
                duration_s: t + frac.clamp(0.0, 1.0) * dt_s,
                side: if next_d > range {
                    LinkBreakSide::Ahead
                } else {
                    LinkBreakSide::Behind
                },
            };
        }
        d = next_d;
        t = next_t;
        prev_rel = rel;
    }
    LinkLifetime::never()
}

/// The paper's Eq. (3) indicator evaluated directly from a separation value:
/// `1` if `d > 0` (vehicle `i` ahead), `−1` otherwise.
#[must_use]
pub fn indicator(separation: f64) -> i8 {
    if separation > 0.0 {
        1
    } else {
        -1
    }
}

/// Planar generalisation of the constant-speed lifetime: the time until two
/// vehicles at `pos_i`, `pos_j` moving with constant velocities `vel_i`,
/// `vel_j` are more than `range` metres apart, i.e. the positive root of
/// `|Δp + Δv·t| = r`.
///
/// Returns 0 if they are already out of range and [`LinkLifetime::never`] if
/// the relative velocity keeps them within range forever. The break side is
/// reported relative to the direction of relative motion (`Ahead` when the
/// separation is growing along the relative-velocity axis at break time).
#[must_use]
pub fn link_lifetime_planar(
    pos_i: vanet_mobility::Position,
    vel_i: vanet_mobility::Velocity,
    pos_j: vanet_mobility::Position,
    vel_j: vanet_mobility::Velocity,
    range: f64,
) -> LinkLifetime {
    assert!(range > 0.0, "communication range must be positive");
    let dp = pos_i - pos_j;
    let dv = vel_i - vel_j;
    if dp.norm() > range {
        return LinkLifetime {
            duration_s: 0.0,
            side: LinkBreakSide::Ahead,
        };
    }
    let a = dv.norm_sq();
    if a < 1e-12 {
        return LinkLifetime::never();
    }
    let b = 2.0 * dp.dot(dv);
    let c = dp.norm_sq() - range * range;
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return LinkLifetime::never();
    }
    let t = (-b + disc.sqrt()) / (2.0 * a);
    if t <= 0.0 {
        return LinkLifetime {
            duration_s: 0.0,
            side: LinkBreakSide::Ahead,
        };
    }
    // Ahead if vehicle i is moving away from j along the axis at break time.
    let future_dp = dp + dv * t;
    let side = if future_dp.dot(dv) > 0.0 {
        LinkBreakSide::Ahead
    } else {
        LinkBreakSide::Behind
    };
    LinkLifetime {
        duration_s: t,
        side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: f64 = 250.0;

    #[test]
    fn equal_speeds_never_break() {
        let lt = link_lifetime_constant_speed(100.0, 30.0, 30.0, R);
        assert!(!lt.is_finite());
        assert_eq!(lt.side, LinkBreakSide::Never);
        assert_eq!(lt.side.indicator(), 0);
    }

    #[test]
    fn faster_follower_breaks_ahead() {
        // i starts 50 m behind j, closes at 5 m/s: travels 50+250 = 300 m
        // relative before the +r boundary.
        let lt = link_lifetime_constant_speed(-50.0, 30.0, 25.0, R);
        assert!((lt.duration_s - 60.0).abs() < 1e-9);
        assert_eq!(lt.side, LinkBreakSide::Ahead);
        assert_eq!(lt.side.indicator(), 1);
    }

    #[test]
    fn slower_follower_breaks_behind() {
        // i starts 50 m behind j and falls further behind at 5 m/s: 200 m to go.
        let lt = link_lifetime_constant_speed(-50.0, 25.0, 30.0, R);
        assert!((lt.duration_s - 40.0).abs() < 1e-9);
        assert_eq!(lt.side, LinkBreakSide::Behind);
        assert_eq!(lt.side.indicator(), -1);
    }

    #[test]
    fn opposite_directions_break_quickly() {
        // Head-on traffic: i eastbound 30 m/s, j westbound 30 m/s, i behind.
        let lt = link_lifetime_constant_speed(-100.0, 30.0, -30.0, R);
        assert!((lt.duration_s - (350.0 / 60.0)).abs() < 1e-9);
        // Same geometry but already past each other.
        let lt2 = link_lifetime_constant_speed(100.0, 30.0, -30.0, R);
        assert!((lt2.duration_s - (150.0 / 60.0)).abs() < 1e-9);
        assert!(lt2.duration_s < lt.duration_s);
    }

    #[test]
    fn lifetime_decreases_with_relative_speed() {
        let mut last = f64::INFINITY;
        for dv in [1.0, 2.0, 5.0, 10.0, 20.0] {
            let lt = link_lifetime_constant_speed(0.0, 30.0 + dv, 30.0, R);
            assert!(lt.duration_s < last);
            last = lt.duration_s;
        }
    }

    #[test]
    fn acceleration_case_matches_quadratic() {
        // i accelerates from equal speed: d(t) = 0.5*1*t^2, reaches 250 at t = sqrt(500).
        let lt = link_lifetime_constant_acceleration(0.0, 30.0, 30.0, 1.0, 0.0, R);
        assert!((lt.duration_s - 500.0_f64.sqrt()).abs() < 1e-9);
        assert_eq!(lt.side, LinkBreakSide::Ahead);
    }

    #[test]
    fn relative_deceleration_reverses_break_side() {
        // i closes at 10 m/s but decelerates relative to j at 1 m/s²: it never
        // reaches the +r boundary (only 50 m gained before the relative motion
        // reverses) and instead falls out of range behind j at
        // t = 10 + sqrt(100 + 500) ≈ 34.49 s.
        let lt = link_lifetime_constant_acceleration(0.0, 40.0, 30.0, -1.0, 0.0, R);
        assert_eq!(lt.side, LinkBreakSide::Behind);
        assert!((lt.duration_s - (10.0 + 600.0_f64.sqrt())).abs() < 1e-9);
    }

    #[test]
    fn acceleration_with_zero_da_falls_back_to_constant_speed() {
        let a = link_lifetime_constant_acceleration(-50.0, 30.0, 25.0, 0.5, 0.5, R);
        let b = link_lifetime_constant_speed(-50.0, 30.0, 25.0, R);
        assert!((a.duration_s - b.duration_s).abs() < 1e-9);
        assert_eq!(a.side, b.side);
    }

    #[test]
    fn numeric_matches_closed_form_constant_speed() {
        let closed = link_lifetime_constant_speed(-50.0, 30.0, 25.0, R);
        let numeric = link_lifetime_numeric(-50.0, |_| 30.0, |_| 25.0, R, 0.01, 1_000.0);
        assert!((closed.duration_s - numeric.duration_s).abs() < 0.02);
        assert_eq!(closed.side, numeric.side);
    }

    #[test]
    fn numeric_matches_closed_form_acceleration() {
        let closed = link_lifetime_constant_acceleration(0.0, 30.0, 30.0, 1.0, 0.0, R);
        let numeric = link_lifetime_numeric(0.0, |t| 30.0 + 1.0 * t, |_| 30.0, R, 0.005, 1_000.0);
        assert!((closed.duration_s - numeric.duration_s).abs() < 0.02);
    }

    #[test]
    fn numeric_horizon_returns_never() {
        let lt = link_lifetime_numeric(0.0, |_| 30.0, |_| 30.0, R, 0.1, 10.0);
        assert!(!lt.is_finite());
    }

    #[test]
    fn speed_limit_extends_lifetime() {
        // i accelerates hard but saturates at the speed limit, so the link
        // lives longer than the unclamped quadratic predicts.
        let unclamped = link_lifetime_constant_acceleration(0.0, 30.0, 30.0, 2.0, 0.0, R);
        let clamped = link_lifetime_with_speed_limit(0.0, 30.0, 30.0, 2.0, 0.0, R, 33.0);
        assert!(clamped.duration_s > unclamped.duration_s);
        // With saturation the relative speed ends up at 3 m/s, so the link
        // must still break eventually.
        assert!(clamped.is_finite());
    }

    #[test]
    fn speed_limit_equal_saturated_speeds_never_break() {
        // Both accelerate and both saturate at the limit: after saturation the
        // relative speed is zero and the link survives.
        let lt = link_lifetime_with_speed_limit(10.0, 30.0, 29.0, 2.0, 2.0, R, 33.0);
        assert!(!lt.is_finite());
    }

    #[test]
    fn indicator_function() {
        assert_eq!(indicator(5.0), 1);
        assert_eq!(indicator(-5.0), -1);
        assert_eq!(indicator(0.0), -1);
    }

    #[test]
    fn planar_matches_one_dimensional_case() {
        use vanet_mobility::Vec2;
        // Same-lane geometry: i 50 m behind j, closing at 5 m/s.
        let planar = link_lifetime_planar(
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(50.0, 0.0),
            Vec2::new(25.0, 0.0),
            R,
        );
        let linear = link_lifetime_constant_speed(-50.0, 30.0, 25.0, R);
        assert!((planar.duration_s - linear.duration_s).abs() < 1e-9);
        assert_eq!(planar.side, LinkBreakSide::Ahead);
    }

    #[test]
    fn planar_edge_cases() {
        use vanet_mobility::Vec2;
        // Already out of range.
        let out = link_lifetime_planar(
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(400.0, 0.0),
            Vec2::new(25.0, 0.0),
            R,
        );
        assert_eq!(out.duration_s, 0.0);
        // Identical velocities never break.
        let never = link_lifetime_planar(
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(100.0, 4.0),
            Vec2::new(30.0, 0.0),
            R,
        );
        assert!(!never.is_finite());
        // Opposite carriageways break fast.
        let opposite = link_lifetime_planar(
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(100.0, 4.0),
            Vec2::new(-30.0, 0.0),
            R,
        );
        assert!(opposite.is_finite());
        assert!(opposite.duration_s < 10.0);
    }

    #[test]
    #[should_panic(expected = "within range")]
    fn starting_out_of_range_is_rejected() {
        let _ = link_lifetime_constant_speed(300.0, 30.0, 25.0, R);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_range_is_rejected() {
        let _ = link_lifetime_constant_speed(0.0, 30.0, 25.0, 0.0);
    }
}
