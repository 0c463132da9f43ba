//! Vehicle state: the kinematic snapshot every other subsystem consumes.

use crate::geometry::{Position, Velocity};
use vanet_sim::NodeId;

/// The kind of a mobile (or fixed) node in the scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum VehicleKind {
    /// A private car: the default VANET participant.
    #[default]
    Car,
    /// A bus travelling a regular route; larger storage, used as a message
    /// ferry by infrastructure-based routing (Kitani et al.).
    Bus,
    /// A fixed road-side unit; not generated by mobility models but shares the
    /// same state representation so the network layer can treat every node
    /// uniformly.
    RoadSideUnit,
}

/// Kinematic state of one vehicle at the current simulation instant: the
/// position, velocity and acceleration the link models (Eq. 1–4) read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleState {
    /// The node this state belongs to.
    pub id: NodeId,
    /// What kind of node it is.
    pub kind: VehicleKind,
    /// Position in metres.
    pub position: Position,
    /// Velocity vector in metres per second.
    pub velocity: Velocity,
    /// Signed acceleration along the direction of travel, in m/s².
    pub acceleration: f64,
}

// The fleet's one kinematics store holds one of these per node; a field
// added back fails the build here.
const _: () = assert!(std::mem::size_of::<VehicleState>() == 48);

impl VehicleState {
    /// Creates a stationary vehicle at `position`.
    #[must_use]
    pub fn stationary(id: NodeId, kind: VehicleKind, position: Position) -> Self {
        VehicleState {
            id,
            kind,
            position,
            velocity: Velocity::ZERO,
            acceleration: 0.0,
        }
    }

    /// Current speed (magnitude of the velocity), in m/s.
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.velocity.norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;

    fn car(id: u32, pos: (f64, f64), vel: (f64, f64)) -> VehicleState {
        VehicleState {
            id: NodeId(id),
            kind: VehicleKind::Car,
            position: Vec2::new(pos.0, pos.1),
            velocity: Vec2::new(vel.0, vel.1),
            acceleration: 0.0,
        }
    }

    #[test]
    fn speed_and_distance() {
        let a = car(1, (0.0, 0.0), (3.0, 4.0));
        let b = car(2, (30.0, 40.0), (0.0, 0.0));
        assert_eq!(a.speed(), 5.0);
        assert_eq!(crate::geometry::distance(a.position, b.position), 50.0);
    }

    #[test]
    fn stationary_constructor() {
        let s = VehicleState::stationary(NodeId(9), VehicleKind::RoadSideUnit, Vec2::new(1.0, 2.0));
        assert_eq!(s.speed(), 0.0);
        assert_eq!(s.position, Vec2::new(1.0, 2.0));
        assert_eq!(s.kind, VehicleKind::RoadSideUnit);
        assert_eq!(VehicleKind::default(), VehicleKind::Car);
    }
}
