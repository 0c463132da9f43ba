//! Manhattan-grid urban scenario.
//!
//! Vehicles travel along the streets of a regular grid, choose to go
//! straight, turn left or turn right at every intersection, and wrap around
//! the grid borders (torus) so the vehicle density stays constant. The urban
//! scenario is what exercises the geographic/zone protocols (Fig. 6) and the
//! RSU deployments of the infrastructure experiments (Fig. 5).

use crate::distributions::{Sampler, TruncatedNormal};
use crate::geometry::{Heading, Position, Vec2};
use crate::model::{state_by_id, MobilityModel, RegionBounds};
use crate::road::RoadNetwork;
use crate::vehicle::{VehicleKind, VehicleState};
use vanet_sim::{NodeId, SimDuration, SimRng};

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
    turn_probability: f64,
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
            turn_probability: 0.4,
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

    /// Sets the urban speed limit in m/s.
    #[must_use]
    pub fn speed_limit_mps(mut self, v: f64) -> Self {
        self.speed_limit_mps = v;
        self
    }

    /// Sets the mean desired speed in m/s.
    #[must_use]
    pub fn speed_mean_mps(mut self, v: f64) -> Self {
        self.speed_mean_mps = v;
        self
    }

    /// Sets the probability of turning (rather than continuing straight) at an
    /// intersection.
    #[must_use]
    pub fn turn_probability(mut self, p: f64) -> Self {
        self.turn_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the node id assigned to the first vehicle.
    #[must_use]
    pub fn first_node_id(mut self, id: u32) -> Self {
        self.first_node_id = id;
        self
    }

    /// Side length of the simulated area along x, metres.
    #[must_use]
    pub fn width_m(&self) -> f64 {
        self.blocks_x as f64 * self.block_m
    }

    /// Side length of the simulated area along y, metres.
    #[must_use]
    pub fn height_m(&self) -> f64 {
        self.blocks_y as f64 * self.block_m
    }

    /// The road network corresponding to this grid (for map-aware protocols).
    #[must_use]
    pub fn road_network(&self) -> RoadNetwork {
        RoadNetwork::manhattan_grid(
            self.blocks_x + 1,
            self.blocks_y + 1,
            self.block_m,
            1,
            3.5,
            self.speed_limit_mps,
        )
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
            let kind = if i < self.buses {
                VehicleKind::Bus
            } else {
                VehicleKind::Car
            };
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
            let desired = match kind {
                VehicleKind::Bus => self.speed_mean_mps * 0.8,
                _ => speed_dist.sample(rng),
            };
            vehicles.push(UrbanVehicle {
                id: NodeId(self.first_node_id + i as u32),
                kind,
                position,
                heading,
                speed: desired,
                desired_speed: desired,
            });
        }
        let mut model = UrbanGridModel {
            config: self,
            vehicles,
            states: Vec::new(),
        };
        model.refresh_states();
        model
    }
}

#[derive(Debug, Clone, PartialEq)]
struct UrbanVehicle {
    id: NodeId,
    kind: VehicleKind,
    position: Position,
    heading: Heading,
    speed: f64,
    desired_speed: f64,
}

/// Vehicles moving on a Manhattan street grid with random turns.
#[derive(Debug, Clone, PartialEq)]
pub struct UrbanGridModel {
    config: UrbanGridBuilder,
    vehicles: Vec<UrbanVehicle>,
    states: Vec<VehicleState>,
}

impl UrbanGridModel {
    /// The builder/configuration this model was constructed from.
    #[must_use]
    pub fn config(&self) -> &UrbanGridBuilder {
        &self.config
    }

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

    fn turn(&self, heading: Heading, rng: &mut SimRng) -> Heading {
        if !rng.chance(self.config.turn_probability) {
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

    fn refresh_states(&mut self) {
        self.states = self
            .vehicles
            .iter()
            .map(|v| VehicleState {
                id: v.id,
                kind: v.kind,
                position: v.position,
                velocity: v.heading.unit() * v.speed,
                acceleration: 0.0,
                heading: v.heading,
                lane: 0,
                desired_speed: v.desired_speed,
            })
            .collect();
    }

    /// The road network underlying this scenario.
    #[must_use]
    pub fn road_network(&self) -> RoadNetwork {
        self.config.road_network()
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
                    let candidate = self.turn(self.vehicles[idx].heading, rng);
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
        self.refresh_states();
    }

    fn states(&self) -> &[VehicleState] {
        &self.states
    }

    fn state(&self, id: NodeId) -> Option<&VehicleState> {
        state_by_id(&self.states, id)
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
        let before: Vec<Heading> = m.states().iter().map(|s| s.heading).collect();
        let mut rng = SimRng::new(7);
        for _ in 0..120 {
            m.step(SimDuration::from_secs(1.0), &mut rng);
        }
        let changed = m
            .states()
            .iter()
            .zip(&before)
            .filter(|(s, b)| s.heading != **b)
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
    fn road_network_matches_grid() {
        let b = UrbanGridBuilder::new().blocks(4, 4).block_m(250.0);
        let net = b.road_network();
        assert!(!net.is_empty());
        assert_eq!(b.width_m(), 1000.0);
        assert_eq!(b.height_m(), 1000.0);
    }

    #[test]
    fn buses_created_and_ids_offset() {
        let mut rng = SimRng::new(10);
        let m = UrbanGridBuilder::new()
            .vehicles(10)
            .buses(2)
            .first_node_id(50)
            .build(&mut rng);
        assert_eq!(
            m.states()
                .iter()
                .filter(|s| s.kind == VehicleKind::Bus)
                .count(),
            2
        );
        assert_eq!(m.states()[0].id, NodeId(50));
    }
}
