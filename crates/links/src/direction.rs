//! Direction of mobility (Sec. IV-A.2, Fig. 4).
//!
//! The two velocity vectors are projected onto the *horizontal* axis — the
//! line through the two vehicles — and the *vertical* axis perpendicular to
//! it. Two vehicles are "on the same direction" when both pairs of projections
//! agree in sign, which is the predicate Taleb- and Abedi-style protocols use
//! to prefer long-lived links.

use vanet_mobility::{Position, Vec2, Velocity};

/// The projections of both velocities onto the inter-vehicle axis (horizontal)
/// and its normal (vertical), as drawn in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedVelocities {
    /// Horizontal (along the a→b axis) projection of vehicle a's velocity.
    pub a_horizontal: f64,
    /// Vertical projection of vehicle a's velocity.
    pub a_vertical: f64,
    /// Horizontal projection of vehicle b's velocity.
    pub b_horizontal: f64,
    /// Vertical projection of vehicle b's velocity.
    pub b_vertical: f64,
}

impl ProjectedVelocities {
    /// The paper's same-direction test: both horizontal and vertical
    /// projection products are positive. Projections with magnitude below
    /// `tolerance` are treated as zero and ignored (a vehicle moving exactly
    /// along the axis has no meaningful vertical component).
    #[must_use]
    pub fn same_direction_with_tolerance(&self, tolerance: f64) -> bool {
        let horiz_ok =
            if self.a_horizontal.abs() <= tolerance || self.b_horizontal.abs() <= tolerance {
                true
            } else {
                self.a_horizontal * self.b_horizontal > 0.0
            };
        let vert_ok = if self.a_vertical.abs() <= tolerance || self.b_vertical.abs() <= tolerance {
            true
        } else {
            self.a_vertical * self.b_vertical > 0.0
        };
        horiz_ok && vert_ok
    }
}

/// Projects the velocities of two vehicles onto the axis joining them
/// (horizontal) and its perpendicular (vertical), per Fig. 4.
///
/// If the two positions coincide the x-axis is used as the horizontal axis.
#[must_use]
pub fn velocity_projection(
    pos_a: Position,
    vel_a: Velocity,
    pos_b: Position,
    vel_b: Velocity,
) -> ProjectedVelocities {
    let axis = {
        let d = pos_b - pos_a;
        if d.norm() == 0.0 {
            Vec2::new(1.0, 0.0)
        } else {
            d.normalized()
        }
    };
    let normal = axis.perpendicular();
    ProjectedVelocities {
        a_horizontal: vel_a.dot(axis),
        a_vertical: vel_a.dot(normal),
        b_horizontal: vel_b.dot(axis),
        b_vertical: vel_b.dot(normal),
    }
}

/// The paper's same-direction predicate for two vehicles given their
/// positions and velocities: `v_ah·v_bh > 0 ∧ v_av·v_bv > 0`, with
/// near-zero projections ignored.
#[must_use]
pub fn same_direction(pos_a: Position, vel_a: Velocity, pos_b: Position, vel_b: Velocity) -> bool {
    velocity_projection(pos_a, vel_a, pos_b, vel_b).same_direction_with_tolerance(1e-6)
}

/// Taleb-style velocity-vector grouping: vehicles are partitioned into four
/// groups according to the quadrant of their velocity vector; vehicles in the
/// same group are expected to keep their links longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectionGroup {
    /// Velocity angle in `[−45°, 45°)` — roughly eastbound.
    East,
    /// Velocity angle in `[45°, 135°)` — roughly northbound.
    North,
    /// Velocity angle in `[135°, 225°)` — roughly westbound.
    West,
    /// Velocity angle in `[225°, 315°)` — roughly southbound.
    South,
}

impl DirectionGroup {
    /// Classifies a velocity vector into its group. Stationary vehicles are
    /// assigned to [`DirectionGroup::East`] by convention.
    #[must_use]
    pub fn of(velocity: Velocity) -> Self {
        if velocity.norm() == 0.0 {
            return DirectionGroup::East;
        }
        let deg = velocity.angle().to_degrees();
        if (-45.0..45.0).contains(&deg) {
            DirectionGroup::East
        } else if (45.0..135.0).contains(&deg) {
            DirectionGroup::North
        } else if !(-135.0..135.0).contains(&deg) {
            DirectionGroup::West
        } else {
            DirectionGroup::South
        }
    }

    /// Whether two velocities fall in the same group.
    #[must_use]
    pub fn same_group(a: Velocity, b: Velocity) -> bool {
        Self::of(a) == Self::of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_lane_same_direction() {
        // Two eastbound vehicles one behind the other.
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(100.0, 0.0);
        assert!(same_direction(
            a,
            Vec2::new(30.0, 0.0),
            b,
            Vec2::new(25.0, 0.0)
        ));
    }

    #[test]
    fn opposite_carriageways_differ() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(100.0, 4.0);
        assert!(!same_direction(
            a,
            Vec2::new(30.0, 0.0),
            b,
            Vec2::new(-30.0, 0.0)
        ));
    }

    #[test]
    fn perpendicular_streets_differ() {
        // A vehicle heading east and one heading north on a cross street,
        // positioned diagonally so both projections are non-degenerate.
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(100.0, 60.0);
        assert!(!same_direction(
            a,
            Vec2::new(10.0, 0.1),
            b,
            Vec2::new(-0.1, 10.0)
        ));
    }

    #[test]
    fn projection_values_match_geometry() {
        let p = velocity_projection(
            Vec2::new(0.0, 0.0),
            Vec2::new(3.0, 4.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(-2.0, 1.0),
        );
        assert!((p.a_horizontal - 3.0).abs() < 1e-12);
        assert!((p.a_vertical - 4.0).abs() < 1e-12);
        assert!((p.b_horizontal + 2.0).abs() < 1e-12);
        assert!((p.b_vertical - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coincident_positions_use_x_axis() {
        let p = velocity_projection(
            Vec2::new(5.0, 5.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(5.0, 5.0),
            Vec2::new(1.0, 0.0),
        );
        assert_eq!(p.a_horizontal, 1.0);
        assert_eq!(p.b_horizontal, 1.0);
    }

    #[test]
    fn pure_axis_motion_ignores_vertical_component() {
        // Both vehicles move exactly along the joining axis: vertical
        // projections are zero and must not veto the same-direction verdict.
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(50.0, 0.0);
        assert!(same_direction(
            a,
            Vec2::new(20.0, 0.0),
            b,
            Vec2::new(22.0, 0.0)
        ));
    }

    #[test]
    fn direction_groups() {
        assert_eq!(
            DirectionGroup::of(Vec2::new(10.0, 1.0)),
            DirectionGroup::East
        );
        assert_eq!(
            DirectionGroup::of(Vec2::new(-10.0, 1.0)),
            DirectionGroup::West
        );
        assert_eq!(
            DirectionGroup::of(Vec2::new(1.0, 10.0)),
            DirectionGroup::North
        );
        assert_eq!(
            DirectionGroup::of(Vec2::new(1.0, -10.0)),
            DirectionGroup::South
        );
        assert_eq!(DirectionGroup::of(Vec2::ZERO), DirectionGroup::East);
        assert!(DirectionGroup::same_group(
            Vec2::new(10.0, 1.0),
            Vec2::new(8.0, -1.0)
        ));
        assert!(!DirectionGroup::same_group(
            Vec2::new(10.0, 0.0),
            Vec2::new(-10.0, 0.0)
        ));
    }

    #[test]
    fn group_boundaries() {
        // 45° exactly goes to North, 135° to West, -45° to East... check the
        // half-open interval convention.
        let at_45 = Vec2::from_angle(std::f64::consts::FRAC_PI_4);
        assert_eq!(DirectionGroup::of(at_45), DirectionGroup::North);
        let at_minus_45 = Vec2::from_angle(-std::f64::consts::FRAC_PI_4);
        assert_eq!(DirectionGroup::of(at_minus_45), DirectionGroup::East);
    }
}
