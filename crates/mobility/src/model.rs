//! The mobility model abstraction consumed by the network layer.

use crate::geometry::Position;
use crate::vehicle::VehicleState;
use vanet_sim::{SimDuration, SimRng};

/// Axis-aligned bounding box of the simulated region, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionBounds {
    /// Minimum corner.
    pub min: Position,
    /// Maximum corner.
    pub max: Position,
}

impl RegionBounds {
    /// Creates bounds from two corners.
    #[must_use]
    pub fn new(min: Position, max: Position) -> Self {
        RegionBounds { min, max }
    }

    /// Width of the region (x extent).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the region (y extent).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether a position lies inside the bounds (inclusive).
    #[must_use]
    pub fn contains(&self, p: Position) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The geometric centre of the region.
    #[must_use]
    pub fn center(&self) -> Position {
        Position::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

/// A mobility model: owns vehicle kinematics and advances them in time.
///
/// Implementations must be deterministic given the same RNG stream so that
/// simulation runs are reproducible.
pub trait MobilityModel {
    /// Advances all vehicles by `dt`.
    fn step(&mut self, dt: SimDuration, rng: &mut SimRng);

    /// Snapshot of every vehicle's current state.
    fn states(&self) -> &[VehicleState];

    /// Bounding box of the simulated region.
    fn bounds(&self) -> RegionBounds;

    /// Number of vehicles managed by the model.
    fn len(&self) -> usize {
        self.states().len()
    }

    /// Whether the model manages no vehicles.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;

    #[test]
    fn bounds_geometry() {
        let b = RegionBounds::new(Vec2::new(0.0, -10.0), Vec2::new(100.0, 10.0));
        assert_eq!(b.width(), 100.0);
        assert_eq!(b.height(), 20.0);
        assert!(b.contains(Vec2::new(50.0, 0.0)));
        assert!(!b.contains(Vec2::new(150.0, 0.0)));
        assert_eq!(b.center(), Vec2::new(50.0, 0.0));
    }
}
