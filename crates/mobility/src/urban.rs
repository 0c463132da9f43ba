//! Manhattan-grid urban scenario.
//!
//! Vehicles travel along the streets of a regular grid, choose to go
//! straight, turn left or turn right at every intersection, and wrap around
//! the grid borders (torus) so the vehicle density stays constant. The urban
//! scenario is what exercises the geographic/zone protocols (Fig. 6) and the
//! RSU deployments of the infrastructure experiments (Fig. 5).

use crate::distributions::TruncatedNormal;
use crate::geometry::{Heading, Position, Vec2};
use crate::model::{MobilityModel, RegionBounds};
use crate::vehicle::{VehicleKind, VehicleState};
use vanet_sim::{NodeId, SimDuration, SimRng};

/// The chance that a vehicle turns, left or right alike, at an
/// intersection; otherwise it goes straight.
const TURN_PROBABILITY: f64 = 0.4;

/// Configuration and builder for an [`UrbanGridModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct UrbanGridBuilder {
    blocks_x: usize,
    blocks_y: usize,
    block_m: f64,
    vehicles: usize,
    buses: usize,
    speed_limit_mps: f64,
    speed_mean_mps: f64,
    speed_std_mps: f64,
    /// Always 0, the id the simulation requires of the first vehicle; kept
    /// so `Debug` renderings and content hashes stay as they are until the
    /// ROADMAP 5(c) epoch drops it.
    first_node_id: u32,
}

impl Default for UrbanGridBuilder {
    fn default() -> Self {
        UrbanGridBuilder {
            blocks_x: 5,
            blocks_y: 5,
            block_m: 300.0,
            vehicles: 60,
            buses: 0,
            speed_limit_mps: 14.0, // ~50 km/h
            speed_mean_mps: 11.0,
            speed_std_mps: 2.0,
            first_node_id: 0,
        }
    }
}

impl UrbanGridBuilder {
    /// Creates a builder with defaults (5×5 blocks of 300 m, 60 vehicles).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of blocks in each direction.
    #[must_use]
    pub fn blocks(mut self, x: usize, y: usize) -> Self {
        self.blocks_x = x.max(1);
        self.blocks_y = y.max(1);
        self
    }

    /// Sets the block edge length in metres.
    #[must_use]
    pub fn block_m(mut self, m: f64) -> Self {
        self.block_m = m;
        self
    }

    /// Sets the number of vehicles.
    #[must_use]
    pub fn vehicles(mut self, count: usize) -> Self {
        self.vehicles = count;
        self
    }

    /// The configured number of vehicles.
    #[must_use]
    pub fn vehicle_count(&self) -> usize {
        self.vehicles
    }

    /// Sets how many of the vehicles are buses.
    #[must_use]
    pub fn buses(mut self, count: usize) -> Self {
        self.buses = count;
        self
    }

    /// Sets the mean desired speed in m/s.
    #[must_use]
    pub fn speed_mean_mps(mut self, v: f64) -> Self {
        self.speed_mean_mps = v;
        self
    }

    /// Side length of the simulated area along x, metres.
    #[must_use]
    fn width_m(&self) -> f64 {
        self.blocks_x as f64 * self.block_m
    }

    /// Side length of the simulated area along y, metres.
    #[must_use]
    fn height_m(&self) -> f64 {
        self.blocks_y as f64 * self.block_m
    }

    /// Vehicle `index`'s kind: the first `buses` vehicles are buses.
    fn kind_of(&self, index: usize) -> VehicleKind {
        if index < self.buses {
            VehicleKind::Bus
        } else {
            VehicleKind::Car
        }
    }

    /// Builds the urban model, placing vehicles at random street positions.
    #[must_use]
    pub fn build(self, rng: &mut SimRng) -> UrbanGridModel {
        let speed_dist = TruncatedNormal::new(
            self.speed_mean_mps,
            self.speed_std_mps,
            2.0,
            self.speed_limit_mps,
        );
        let mut vehicles = Vec::with_capacity(self.vehicles);
        for i in 0..self.vehicles {
            let kind = self.kind_of(i);
            // Choose a random street (horizontal or vertical) and a position on it.
            let heading = match rng.uniform_usize(4) {
                0 => Heading::EAST,
                1 => Heading::WEST,
                2 => Heading::NORTH,
                _ => Heading::SOUTH,
            };
            let horizontal = matches!(heading, Heading { .. })
                && (heading == Heading::EAST || heading == Heading::WEST);
            let position = if horizontal {
                let street = rng.uniform_usize(self.blocks_y + 1) as f64 * self.block_m;
                Vec2::new(rng.uniform_range(0.0, self.width_m()), street)
            } else {
                let street = rng.uniform_usize(self.blocks_x + 1) as f64 * self.block_m;
                Vec2::new(street, rng.uniform_range(0.0, self.height_m()))
            };
            let speed = match kind {
                VehicleKind::Bus => self.speed_mean_mps * 0.8,
                _ => speed_dist.sample(rng),
            };
            vehicles.push(UrbanVehicle {
                position,
                heading,
                speed,
            });
        }
        UrbanGridModel {
            config: self,
            vehicles,
        }
    }
}

/// One vehicle's kinematics. Its id and kind follow from its index
/// ([`MobilityModel::state`]), so they are not stored.
#[derive(Debug, Clone, PartialEq)]
struct UrbanVehicle {
    position: Position,
    heading: Heading,
    speed: f64,
}

const _: () = assert!(std::mem::size_of::<UrbanVehicle>() == 40);

/// Vehicles moving on a Manhattan street grid with random turns.
#[derive(Debug, Clone, PartialEq)]
pub struct UrbanGridModel {
    config: UrbanGridBuilder,
    vehicles: Vec<UrbanVehicle>,
}

impl UrbanGridModel {
    fn wrap(&self, mut p: Position) -> Position {
        let w = self.config.width_m();
        let h = self.config.height_m();
        while p.x < 0.0 {
            p.x += w;
        }
        while p.x > w {
            p.x -= w;
        }
        while p.y < 0.0 {
            p.y += h;
        }
        while p.y > h {
            p.y -= h;
        }
        p
    }

    /// Distance to the next intersection along the current heading.
    fn distance_to_next_intersection(&self, v: &UrbanVehicle) -> f64 {
        let block = self.config.block_m;
        let unit = v.heading.unit();
        if unit.x > 0.5 {
            let next = ((v.position.x / block).floor() + 1.0) * block;
            next - v.position.x
        } else if unit.x < -0.5 {
            let prev = (v.position.x / block).ceil() - 1.0;
            v.position.x - prev * block
        } else if unit.y > 0.5 {
            let next = ((v.position.y / block).floor() + 1.0) * block;
            next - v.position.y
        } else {
            let prev = (v.position.y / block).ceil() - 1.0;
            v.position.y - prev * block
        }
    }

    fn turn(heading: Heading, rng: &mut SimRng) -> Heading {
        if !rng.chance(TURN_PROBABILITY) {
            return heading;
        }
        // Turn left or right with equal probability.
        let unit = heading.unit();
        let left = Heading::from_vec(unit.perpendicular());
        let right = Heading::from_vec(-unit.perpendicular());
        if rng.chance(0.5) {
            left
        } else {
            right
        }
    }
}

impl MobilityModel for UrbanGridModel {
    fn step(&mut self, dt: SimDuration, rng: &mut SimRng) {
        let dt = dt.as_secs();
        if dt <= 0.0 {
            return;
        }
        let block = self.config.block_m;
        let width = self.config.width_m();
        let height = self.config.height_m();
        for idx in 0..self.vehicles.len() {
            let mut remaining = self.vehicles[idx].speed * dt;
            // A vehicle may cross at most a couple of intersections per step.
            for _ in 0..8 {
                let v = &self.vehicles[idx];
                let to_next = self.distance_to_next_intersection(v);
                if remaining < to_next || to_next <= 0.0 {
                    let unit = v.heading.unit();
                    let new_pos = v.position + unit * remaining;
                    self.vehicles[idx].position =
                        Position::new(new_pos.x.clamp(0.0, width), new_pos.y.clamp(0.0, height));
                    break;
                }
                // Advance to the intersection, then possibly turn.
                let unit = v.heading.unit();
                let at_intersection = v.position + unit * to_next;
                remaining -= to_next;
                let snapped = Position::new(
                    (at_intersection.x / block).round() * block,
                    (at_intersection.y / block).round() * block,
                );
                let new_heading = {
                    let candidate = Self::turn(self.vehicles[idx].heading, rng);
                    // Do not head straight off the grid: reverse instead.
                    let probe = snapped + candidate.unit() * (block * 0.5);
                    if probe.x < -1.0
                        || probe.x > width + 1.0
                        || probe.y < -1.0
                        || probe.y > height + 1.0
                    {
                        candidate.reversed()
                    } else {
                        candidate
                    }
                };
                let v = &mut self.vehicles[idx];
                v.position = snapped;
                v.heading = new_heading;
            }
            let wrapped = self.wrap(self.vehicles[idx].position);
            self.vehicles[idx].position = wrapped;
        }
    }

    fn state(&self, index: usize) -> VehicleState {
        let v = &self.vehicles[index];
        VehicleState {
            id: NodeId(self.config.first_node_id + index as u32),
            kind: self.config.kind_of(index),
            position: v.position,
            velocity: v.heading.unit() * v.speed,
            acceleration: 0.0,
        }
    }

    fn len(&self) -> usize {
        self.vehicles.len()
    }

    fn bounds(&self) -> RegionBounds {
        RegionBounds::new(
            Position::new(0.0, 0.0),
            Position::new(self.config.width_m(), self.config.height_m()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(vehicles: usize, seed: u64) -> UrbanGridModel {
        let mut rng = SimRng::new(seed);
        UrbanGridBuilder::new()
            .blocks(4, 4)
            .block_m(250.0)
            .vehicles(vehicles)
            .build(&mut rng)
    }

    #[test]
    fn builder_places_vehicles_on_streets() {
        let m = build(50, 1);
        assert_eq!(m.states().len(), 50);
        for s in m.states() {
            let on_horizontal = (s.position.y / 250.0).fract().abs() < 1e-9
                || ((s.position.y / 250.0).fract() - 1.0).abs() < 1e-9;
            let on_vertical = (s.position.x / 250.0).fract().abs() < 1e-9
                || ((s.position.x / 250.0).fract() - 1.0).abs() < 1e-9;
            assert!(
                on_horizontal || on_vertical,
                "vehicle not on a street: {}",
                s.position
            );
        }
    }

    #[test]
    fn vehicles_stay_in_bounds() {
        let mut m = build(40, 2);
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            m.step(SimDuration::from_secs(1.0), &mut rng);
        }
        let b = m.bounds();
        for s in m.states() {
            assert!(
                b.contains(s.position),
                "vehicle left the grid: {}",
                s.position
            );
        }
    }

    #[test]
    fn vehicles_move() {
        let mut m = build(20, 4);
        let before: Vec<Position> = m.states().iter().map(|s| s.position).collect();
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            m.step(SimDuration::from_secs(1.0), &mut rng);
        }
        let moved = m
            .states()
            .iter()
            .zip(&before)
            .filter(|(s, b)| (s.position - **b).norm() > 1.0)
            .count();
        assert!(moved > 15, "most vehicles should have moved, got {moved}");
    }

    #[test]
    fn headings_change_over_time() {
        let mut m = build(30, 6);
        let before: Vec<Heading> = m.vehicles.iter().map(|v| v.heading).collect();
        let mut rng = SimRng::new(7);
        for _ in 0..120 {
            m.step(SimDuration::from_secs(1.0), &mut rng);
        }
        let changed = m
            .vehicles
            .iter()
            .zip(&before)
            .filter(|(v, b)| v.heading != **b)
            .count();
        assert!(
            changed > 5,
            "some vehicles should have turned, got {changed}"
        );
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mut a = build(25, 8);
        let mut b = build(25, 8);
        let mut ra = SimRng::new(9);
        let mut rb = SimRng::new(9);
        for _ in 0..50 {
            a.step(SimDuration::from_secs(0.5), &mut ra);
            b.step(SimDuration::from_secs(0.5), &mut rb);
        }
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn buses_created_and_ids_offset() {
        let mut rng = SimRng::new(10);
        let m = UrbanGridBuilder::new()
            .vehicles(10)
            .buses(2)
            .build(&mut rng);
        assert_eq!(
            m.states()
                .iter()
                .filter(|s| s.kind == VehicleKind::Bus)
                .count(),
            2
        );
    }
}
