//! Car-following behaviour (Intelligent Driver Model).
//!
//! Congestion and platooning in the scenarios are not scripted; they emerge
//! from the IDM acceleration law, so the "congested traffic" regime that
//! Table I talks about (mobility prediction becomes inaccurate) can actually
//! be generated by raising the vehicle density.

/// Parameters of the Intelligent Driver Model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdmParams {
    /// Maximum acceleration, m/s².
    pub max_acceleration: f64,
    /// Comfortable deceleration, m/s².
    pub comfortable_deceleration: f64,
    /// Minimum bumper-to-bumper gap, metres.
    pub min_gap: f64,
    /// Desired time headway, seconds.
    pub time_headway: f64,
    /// Acceleration exponent (4 in the original model).
    pub exponent: f64,
    /// Vehicle length, metres (used when computing gaps).
    pub vehicle_length: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams {
            max_acceleration: 1.4,
            comfortable_deceleration: 2.0,
            min_gap: 2.0,
            time_headway: 1.5,
            exponent: 4.0,
            vehicle_length: 5.0,
        }
    }
}

impl IdmParams {
    /// Parameters for a heavy vehicle such as a bus.
    #[must_use]
    pub fn bus() -> Self {
        IdmParams {
            max_acceleration: 0.8,
            comfortable_deceleration: 1.5,
            min_gap: 3.0,
            time_headway: 2.0,
            vehicle_length: 12.0,
            ..Self::default()
        }
    }

    /// IDM acceleration for a vehicle travelling at `speed` towards a desired
    /// speed `desired_speed`, with a leader `gap` metres ahead closing at
    /// `approach_rate` m/s (positive when closing). Pass `None` for a free
    /// road.
    ///
    /// The returned acceleration is clamped to
    /// `[-8 m/s² (emergency braking), max_acceleration]`.
    #[must_use]
    pub fn acceleration(&self, speed: f64, desired_speed: f64, leader: Option<LeaderInfo>) -> f64 {
        let desired_speed = desired_speed.max(0.1);
        let free_term = 1.0 - (speed / desired_speed).powf(self.exponent);
        let interaction = match leader {
            None => 0.0,
            Some(l) => {
                let gap = l.gap.max(0.01);
                let s_star = self.min_gap
                    + (speed * self.time_headway
                        + speed * l.approach_rate
                            / (2.0
                                * (self.max_acceleration * self.comfortable_deceleration).sqrt()))
                    .max(0.0);
                (s_star / gap).powi(2)
            }
        };
        (self.max_acceleration * (free_term - interaction)).clamp(-8.0, self.max_acceleration)
    }
}

/// Information about the vehicle immediately ahead in the same lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderInfo {
    /// Bumper-to-bumper gap in metres.
    pub gap: f64,
    /// Rate at which the gap is closing (own speed − leader speed), m/s.
    pub approach_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_road_accelerates_towards_desired_speed() {
        let idm = IdmParams::default();
        let a_slow = idm.acceleration(5.0, 30.0, None);
        let a_at_speed = idm.acceleration(30.0, 30.0, None);
        let a_over = idm.acceleration(35.0, 30.0, None);
        assert!(a_slow > 0.5, "should accelerate when slow, got {a_slow}");
        assert!(a_at_speed.abs() < 0.05, "should cruise at desired speed");
        assert!(a_over < 0.0, "should slow down when over desired speed");
    }

    #[test]
    fn close_leader_forces_braking() {
        let idm = IdmParams::default();
        let a = idm.acceleration(
            30.0,
            30.0,
            Some(LeaderInfo {
                gap: 5.0,
                approach_rate: 10.0,
            }),
        );
        assert!(a < -2.0, "must brake hard near a slower leader, got {a}");
        assert!(a >= -8.0, "braking is bounded by the emergency limit");
    }

    #[test]
    fn distant_leader_is_ignored() {
        let idm = IdmParams::default();
        let free = idm.acceleration(20.0, 30.0, None);
        let with_far_leader = idm.acceleration(
            20.0,
            30.0,
            Some(LeaderInfo {
                gap: 500.0,
                approach_rate: 0.0,
            }),
        );
        assert!((free - with_far_leader).abs() < 0.05);
    }

    #[test]
    fn acceleration_monotone_in_gap() {
        let idm = IdmParams::default();
        let mut last = f64::NEG_INFINITY;
        for gap in [3.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let a = idm.acceleration(
                25.0,
                30.0,
                Some(LeaderInfo {
                    gap,
                    approach_rate: 0.0,
                }),
            );
            assert!(a >= last, "acceleration should not decrease as gap grows");
            last = a;
        }
    }

    #[test]
    fn profiles_differ() {
        assert!(IdmParams::bus().vehicle_length > IdmParams::default().vehicle_length);
    }

    #[test]
    fn zero_desired_speed_does_not_divide_by_zero() {
        let idm = IdmParams::default();
        let a = idm.acceleration(5.0, 0.0, None);
        assert!(a.is_finite());
        assert!(a < 0.0);
    }
}
