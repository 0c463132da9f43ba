//! Multi-lane bidirectional highway scenario.
//!
//! The highway is modelled as a ring of configurable length: vehicles that
//! pass the end re-enter at the beginning, which keeps the density constant
//! over arbitrarily long runs (equivalent to "a vehicle leaves the stretch and
//! another one enters"). Vehicles follow the IDM car-following law within
//! their lane and may change lanes when blocked, so raising the vehicle count
//! produces genuine congestion.

use crate::car_following::{IdmParams, LeaderInfo};
use crate::distributions::TruncatedNormal;
use crate::geometry::{Heading, Position, Vec2};
use crate::model::{MobilityModel, RegionBounds};
use crate::vehicle::{VehicleKind, VehicleState};
use std::cmp::Ordering;
use vanet_sim::{NodeId, SimDuration, SimRng};

/// Configuration and builder for a [`HighwayModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct HighwayBuilder {
    length_m: f64,
    lanes_per_direction: usize,
    lane_width_m: f64,
    vehicles: usize,
    buses: usize,
    speed_limit_mps: f64,
    speed_mean_mps: f64,
    speed_std_mps: f64,
    bidirectional: bool,
    /// When set, westbound lanes genuinely travel in decreasing `s` instead
    /// of sharing the eastbound integration direction. Off by default: the
    /// historical behaviour (westbound vehicles report a westward velocity
    /// vector but advance in `s` like everyone else) is baked into every
    /// pinned golden report, so real counterflow is strictly opt-in.
    counterflow: bool,
    idm: IdmParams,
    lane_change_enabled: bool,
    /// Always 0, the id the simulation requires of the first vehicle; kept
    /// so `Debug` renderings and content hashes stay as they are until the
    /// ROADMAP 5(c) epoch drops it.
    first_node_id: u32,
}

impl Default for HighwayBuilder {
    fn default() -> Self {
        HighwayBuilder {
            length_m: 5_000.0,
            lanes_per_direction: 2,
            lane_width_m: 4.0,
            vehicles: 50,
            buses: 0,
            speed_limit_mps: 36.0, // ~130 km/h
            speed_mean_mps: 30.0,  // ~108 km/h
            speed_std_mps: 4.0,
            bidirectional: true,
            counterflow: false,
            idm: IdmParams::default(),
            lane_change_enabled: true,
            first_node_id: 0,
        }
    }
}

impl HighwayBuilder {
    /// Creates a builder with defaults (5 km, 2+2 lanes, 50 vehicles).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the highway length in metres.
    #[must_use]
    pub fn length_m(mut self, length: f64) -> Self {
        self.length_m = length;
        self
    }

    /// Sets the number of lanes per direction.
    #[cfg(test)]
    #[must_use]
    fn lanes_per_direction(mut self, lanes: usize) -> Self {
        self.lanes_per_direction = lanes.max(1);
        self
    }

    /// Sets the total number of vehicles (cars + buses).
    #[must_use]
    pub fn vehicles(mut self, count: usize) -> Self {
        self.vehicles = count;
        self
    }

    /// The configured total number of vehicles (cars + buses).
    #[must_use]
    pub fn vehicle_count(&self) -> usize {
        self.vehicles
    }

    /// Sets how many of the vehicles are buses (message ferries).
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

    /// Sets the standard deviation of desired speed in m/s.
    #[must_use]
    pub fn speed_std_mps(mut self, v: f64) -> Self {
        self.speed_std_mps = v;
        self
    }

    /// Enables or disables the opposite carriageway.
    #[cfg(test)]
    #[must_use]
    fn bidirectional(mut self, yes: bool) -> Self {
        self.bidirectional = yes;
        self
    }

    /// Makes westbound lanes genuinely travel in decreasing `s` (see the
    /// field note: off by default to keep pinned behaviour). With real
    /// counterflow, opposite carriageways close at twice the mean speed and
    /// act as natural bundle ferries between partitioned clusters — the
    /// contact pattern the store-carry-forward protocols rely on.
    #[must_use]
    pub fn counterflow(mut self, yes: bool) -> Self {
        self.counterflow = yes;
        self
    }

    /// Enables or disables lane changing.
    #[must_use]
    pub fn lane_changes(mut self, yes: bool) -> Self {
        self.lane_change_enabled = yes;
        self
    }

    /// Vehicle density per direction in vehicles/km (informational).
    #[must_use]
    pub fn density_per_km(&self) -> f64 {
        let directions = if self.bidirectional { 2.0 } else { 1.0 };
        self.vehicles as f64 / directions / (self.length_m / 1_000.0)
    }

    /// Vehicle `index`'s kind: the first `buses` vehicles are buses.
    fn kind_of(&self, index: usize) -> VehicleKind {
        if index < self.buses {
            VehicleKind::Bus
        } else {
            VehicleKind::Car
        }
    }

    /// Vehicle `index`'s car-following parameters: a bus's, or the
    /// configured ones.
    fn idm_of(&self, index: usize) -> IdmParams {
        match self.kind_of(index) {
            VehicleKind::Bus => IdmParams::bus(),
            _ => self.idm,
        }
    }

    /// Builds the highway, placing vehicles uniformly along the ring with
    /// per-vehicle desired speeds drawn from a truncated normal distribution.
    #[must_use]
    pub fn build(self, rng: &mut SimRng) -> HighwayModel {
        let lane_count = if self.bidirectional {
            self.lanes_per_direction * 2
        } else {
            self.lanes_per_direction
        };
        let speed_dist = TruncatedNormal::new(
            self.speed_mean_mps,
            self.speed_std_mps,
            5.0_f64.min(self.speed_mean_mps * 0.5),
            self.speed_limit_mps,
        );
        let mut vehicles = Vec::with_capacity(self.vehicles);
        for i in 0..self.vehicles {
            let kind = self.kind_of(i);
            let lane = rng.uniform_usize(lane_count.max(1));
            let s = rng.uniform_range(0.0, self.length_m.max(1.0));
            let desired = match kind {
                VehicleKind::Bus => (self.speed_mean_mps * 0.7).min(self.speed_limit_mps),
                _ => speed_dist.sample(rng),
            };
            vehicles.push(HighwayVehicle {
                lane,
                s,
                speed: desired * rng.uniform_range(0.85, 1.0),
                desired_speed: desired,
                acceleration: 0.0,
            });
        }
        HighwayModel {
            config: self,
            vehicles,
            lane_count,
            lane_order: Vec::new(),
            accels: Vec::new(),
        }
    }
}

/// The `(s, index)` order of two vehicles, which is the order within a lane.
fn lane_cmp(vehicles: &[HighwayVehicle], a: usize, b: usize) -> Ordering {
    vehicles[a]
        .s
        .total_cmp(&vehicles[b].s)
        .then_with(|| a.cmp(&b))
}

/// One vehicle's kinematics. Its id, kind and car-following parameters
/// follow from its index ([`HighwayBuilder::kind_of`]), so they are not
/// stored.
#[derive(Debug, Clone, PartialEq)]
struct HighwayVehicle {
    lane: usize,
    /// Longitudinal position along the ring, metres in `[0, length)`.
    s: f64,
    speed: f64,
    desired_speed: f64,
    acceleration: f64,
}

const _: () = assert!(std::mem::size_of::<HighwayVehicle>() == 40);

/// A multi-lane (optionally bidirectional) ring highway.
#[derive(Debug, Clone)]
pub struct HighwayModel {
    config: HighwayBuilder,
    vehicles: Vec<HighwayVehicle>,
    lane_count: usize,
    /// Scratch of [`MobilityModel::step`], rebuilt at its top: per lane, the
    /// indices of the vehicles in it, sorted by `(s, index)`. Stale between
    /// steps (the integration moves `s`), so nothing else may read it.
    lane_order: Vec<Vec<usize>>,
    /// Scratch of [`MobilityModel::step`]: one acceleration per vehicle.
    accels: Vec<f64>,
}

/// Two models are equal when their vehicles are; the step's scratch is not
/// part of a model's state.
impl PartialEq for HighwayModel {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.vehicles == other.vehicles
            && self.lane_count == other.lane_count
    }
}

impl HighwayModel {
    /// Whether a lane index belongs to the eastbound (forward) carriageway.
    fn lane_is_eastbound(&self, lane: usize) -> bool {
        lane < self.config.lanes_per_direction
    }

    fn lane_y(&self, lane: usize) -> f64 {
        let w = self.config.lane_width_m;
        if self.lane_is_eastbound(lane) {
            -((lane as f64 + 0.5) * w)
        } else {
            ((lane - self.config.lanes_per_direction) as f64 + 0.5) * w + w
        }
    }

    fn heading_of_lane(&self, lane: usize) -> Heading {
        if self.lane_is_eastbound(lane) {
            Heading::EAST
        } else {
            Heading::WEST
        }
    }

    /// Gap in metres from `behind` to `ahead` travelling around the ring.
    fn ring_gap(&self, behind: f64, ahead: f64) -> f64 {
        let l = self.config.length_m;
        let mut gap = ahead - behind;
        if gap < 0.0 {
            gap += l;
        }
        gap
    }

    /// Whether vehicles in `lane` advance in decreasing `s` (opt-in
    /// counterflow on the westbound carriageway).
    fn lane_reversed(&self, lane: usize) -> bool {
        self.config.counterflow && !self.lane_is_eastbound(lane)
    }

    /// Gap in metres from vehicle `idx` to vehicle `j` in the travel
    /// direction of a lane (`reversed`: decreasing `s`).
    fn gap_between(&self, idx: usize, j: usize, reversed: bool) -> f64 {
        let (me, other) = (self.vehicles[idx].s, self.vehicles[j].s);
        if reversed {
            self.ring_gap(other, me)
        } else {
            self.ring_gap(me, other)
        }
    }

    /// Rebuilds `lane_order` from the vehicles' current lanes and positions.
    fn derive_lane_order(&mut self) {
        self.lane_order.resize_with(self.lane_count, Vec::new);
        for lane in &mut self.lane_order {
            lane.clear();
        }
        for (idx, v) in self.vehicles.iter().enumerate() {
            self.lane_order[v.lane].push(idx);
        }
        let vehicles = &self.vehicles;
        for lane in &mut self.lane_order {
            lane.sort_unstable_by(|&a, &b| lane_cmp(vehicles, a, b));
        }
    }

    /// Where vehicle `idx` sits, or would sit, in `lane`'s order.
    fn lane_position(&self, idx: usize, lane: usize) -> usize {
        self.lane_order[lane].partition_point(|&j| lane_cmp(&self.vehicles, j, idx).is_lt())
    }

    /// The first positive gap from `idx` along `walk`, as `(gap, index)`.
    /// The computed gap must never decrease along the walk; entries whose
    /// gap rounds to the same value resolve to the lowest index, which is
    /// the one a scan of the fleet in index order keeps.
    fn first_ahead(
        &self,
        idx: usize,
        reversed: bool,
        walk: impl Iterator<Item = usize>,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for j in walk {
            let gap = self.gap_between(idx, j, reversed);
            match best {
                None if gap <= 0.0 => {}
                None => best = Some((gap, j)),
                Some((g, b)) if gap == g => best = Some((g, b.min(j))),
                Some(_) => break,
            }
        }
        best
    }

    /// The `(gap, index)` of the vehicle nearest ahead of `idx` in `lane`
    /// (which need not be `idx`'s own), read off `lane_order`. Vehicles at
    /// exactly `idx`'s position are beside it, not ahead (gap 0). Of the
    /// others, those further along in the travel direction are reached
    /// without crossing the ring's seam and those behind across it; within
    /// each group the computed gap grows monotonically with distance, so
    /// each is searched from its near end — the successor and, wrapping,
    /// the lane's first entry; on a reversed lane the predecessor and the
    /// last. Across the groups rounding can reorder two gaps that differ by
    /// less than an ulp of the ring length, hence both candidates.
    fn nearest_ahead(&self, idx: usize, lane: usize) -> Option<(f64, usize)> {
        let order = &self.lane_order[lane];
        let s = self.vehicles[idx].s;
        let below = &order[..order.partition_point(|&j| self.vehicles[j].s < s)];
        let above = &order[order.partition_point(|&j| self.vehicles[j].s <= s)..];
        let (direct, wrapped) = if self.lane_reversed(lane) {
            (
                self.first_ahead(idx, true, below.iter().rev().copied()),
                self.first_ahead(idx, true, above.iter().rev().copied()),
            )
        } else {
            (
                self.first_ahead(idx, false, above.iter().copied()),
                self.first_ahead(idx, false, below.iter().copied()),
            )
        };
        match (direct, wrapped) {
            (Some(a), Some(b)) => Some(if b < a { b } else { a }),
            (a, b) => a.or(b),
        }
    }

    /// The vehicle `idx` would follow in `lane`, as the car-following law
    /// sees it. Valid only while `lane_order` is (inside `step`).
    fn leader_of(&self, idx: usize, lane: usize) -> Option<LeaderInfo> {
        let me = &self.vehicles[idx];
        self.nearest_ahead(idx, lane).map(|(gap, j)| LeaderInfo {
            gap: (gap - self.config.idm_of(j).vehicle_length).max(0.01),
            approach_rate: me.speed - self.vehicles[j].speed,
        })
    }

    /// The search `nearest_ahead` replaces: every vehicle of the fleet, in
    /// index order, keeping the first smallest positive gap.
    #[cfg(test)]
    fn nearest_ahead_scan(&self, idx: usize, lane: usize) -> Option<(f64, usize)> {
        let reversed = self.lane_reversed(lane);
        let mut best: Option<(f64, usize)> = None;
        for (j, other) in self.vehicles.iter().enumerate() {
            if j == idx || other.lane != lane {
                continue;
            }
            let gap = self.gap_between(idx, j, reversed);
            if gap <= 0.0 {
                continue;
            }
            match best {
                Some((g, _)) if g <= gap => {}
                _ => best = Some((gap, j)),
            }
        }
        best
    }

    fn try_lane_change(&mut self, idx: usize, rng: &mut SimRng) {
        let me = &self.vehicles[idx];
        let current_lane = me.lane;
        let blocked = match self.leader_of(idx, current_lane) {
            Some(l) => l.gap < 20.0 && me.speed < me.desired_speed * 0.8,
            None => false,
        };
        if !blocked || !rng.chance(0.3) {
            return;
        }
        // Candidate lanes: adjacent lanes on the same carriageway.
        let eastbound = self.lane_is_eastbound(current_lane);
        let candidates = [current_lane.wrapping_sub(1), current_lane + 1];
        let mut best: Option<(usize, f64)> = None;
        for cand in candidates {
            if cand >= self.lane_count || self.lane_is_eastbound(cand) != eastbound {
                continue;
            }
            let gap = self.leader_of(idx, cand).map_or(f64::INFINITY, |l| l.gap);
            if gap > 30.0 {
                match best {
                    Some((_, g)) if g >= gap => {}
                    _ => best = Some((cand, gap)),
                }
            }
        }
        if let Some((lane, _)) = best {
            // The vehicles after `idx` in this pass must see the move.
            let from = self.lane_position(idx, current_lane);
            debug_assert_eq!(self.lane_order[current_lane][from], idx);
            self.lane_order[current_lane].remove(from);
            let to = self.lane_position(idx, lane);
            self.lane_order[lane].insert(to, idx);
            self.vehicles[idx].lane = lane;
        }
    }
}

impl MobilityModel for HighwayModel {
    fn step(&mut self, dt: SimDuration, rng: &mut SimRng) {
        let dt = dt.as_secs();
        if dt <= 0.0 {
            return;
        }
        self.derive_lane_order();
        if self.config.lane_change_enabled {
            for idx in 0..self.vehicles.len() {
                self.try_lane_change(idx, rng);
            }
        }
        // Compute accelerations from the current snapshot, then integrate.
        let mut accels = std::mem::take(&mut self.accels);
        accels.clear();
        accels.extend(self.vehicles.iter().enumerate().map(|(idx, v)| {
            let leader = self.leader_of(idx, v.lane);
            self.config
                .idm_of(idx)
                .acceleration(v.speed, v.desired_speed, leader)
        }));
        let length = self.config.length_m;
        let counterflow = self.config.counterflow;
        let eastbound_lanes = self.config.lanes_per_direction;
        for (v, &a) in self.vehicles.iter_mut().zip(&accels) {
            v.acceleration = a;
            v.speed = (v.speed + a * dt).clamp(0.0, self.config.speed_limit_mps);
            if counterflow && v.lane >= eastbound_lanes {
                v.s -= v.speed * dt;
                while v.s < 0.0 {
                    v.s += length;
                }
            } else {
                v.s += v.speed * dt;
                while v.s >= length {
                    v.s -= length;
                }
            }
        }
        self.accels = accels;
    }

    fn state(&self, index: usize) -> VehicleState {
        let v = &self.vehicles[index];
        VehicleState {
            id: NodeId(self.config.first_node_id + index as u32),
            kind: self.config.kind_of(index),
            position: Vec2::new(v.s, self.lane_y(v.lane)),
            velocity: self.heading_of_lane(v.lane).unit() * v.speed,
            acceleration: v.acceleration,
        }
    }

    fn len(&self) -> usize {
        self.vehicles.len()
    }

    fn bounds(&self) -> RegionBounds {
        let half_width = self.config.lane_width_m * (self.config.lanes_per_direction as f64 + 1.0);
        RegionBounds::new(
            Position::new(0.0, -half_width),
            Position::new(self.config.length_m, half_width),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(vehicles: usize, seed: u64) -> HighwayModel {
        let mut rng = SimRng::new(seed);
        HighwayBuilder::new()
            .length_m(2_000.0)
            .lanes_per_direction(2)
            .vehicles(vehicles)
            .build(&mut rng)
    }

    #[test]
    fn builder_creates_requested_vehicles() {
        let hw = build(30, 1);
        assert_eq!(hw.states().len(), 30);
        assert_eq!(hw.len(), 30);
        assert!(!hw.is_empty());
        for s in hw.states() {
            assert!(s.position.x >= 0.0 && s.position.x < 2_000.0);
            assert!(s.speed() > 0.0);
        }
        assert!(hw.vehicles.iter().all(|v| v.desired_speed <= 36.0));
    }

    #[test]
    fn vehicles_move_and_wrap() {
        let mut hw = build(20, 2);
        let before: Vec<f64> = hw.states().iter().map(|s| s.position.x).collect();
        let mut rng = SimRng::new(99);
        for _ in 0..100 {
            hw.step(SimDuration::from_secs(1.0), &mut rng);
        }
        let after: Vec<f64> = hw.states().iter().map(|s| s.position.x).collect();
        assert_ne!(before, after);
        for x in &after {
            assert!(
                (0.0..2_000.0).contains(x),
                "positions must stay on the ring, got {x}"
            );
        }
    }

    #[test]
    fn eastbound_and_westbound_headings() {
        let mut rng = SimRng::new(3);
        let hw = HighwayBuilder::new()
            .vehicles(60)
            .bidirectional(true)
            .build(&mut rng);
        let east = hw.states().iter().filter(|s| s.velocity.x > 0.0).count();
        let west = hw.states().iter().filter(|s| s.velocity.x < 0.0).count();
        assert_eq!(east + west, 60);
        assert!(
            east > 0 && west > 0,
            "both carriageways should be populated"
        );
    }

    #[test]
    fn counterflow_moves_westbound_vehicles_backwards_along_the_ring() {
        let displacements = |counterflow: bool| -> Vec<(f64, f64)> {
            let mut rng = SimRng::new(17);
            let mut hw = HighwayBuilder::new()
                .length_m(2_000.0)
                .vehicles(40)
                .bidirectional(true)
                .counterflow(counterflow)
                .build(&mut rng);
            let before: Vec<f64> = hw.states().iter().map(|s| s.position.x).collect();
            hw.step(SimDuration::from_secs(1.0), &mut rng);
            hw.states()
                .iter()
                .zip(before)
                .map(|(s, b)| {
                    let mut d = s.position.x - b;
                    // Unwrap ring crossings: one second of motion is far
                    // shorter than half the ring.
                    if d > 1_000.0 {
                        d -= 2_000.0;
                    } else if d < -1_000.0 {
                        d += 2_000.0;
                    }
                    (d, s.velocity.x)
                })
                .collect()
        };
        // Default behaviour: everyone advances in increasing `s`, even the
        // vehicles whose velocity vector points west. This quirk is baked
        // into every pinned golden report, so it must stay the default.
        for (d, _) in displacements(false) {
            assert!(d > 0.0, "without counterflow all vehicles advance, got {d}");
        }
        // Opt-in counterflow: displacement sign follows the carriageway.
        let with = displacements(true);
        assert!(with.iter().any(|&(_, vx)| vx < 0.0), "westbound lane empty");
        for (d, vx) in with {
            assert!(
                d.signum() == vx.signum(),
                "displacement {d} must match heading {vx}"
            );
        }
    }

    #[test]
    fn unidirectional_has_single_heading() {
        let mut rng = SimRng::new(4);
        let hw = HighwayBuilder::new()
            .vehicles(40)
            .bidirectional(false)
            .build(&mut rng);
        assert!(hw.states().iter().all(|s| s.velocity.x > 0.0));
    }

    /// Mean speed over all vehicles, m/s.
    fn mean_speed(hw: &HighwayModel) -> f64 {
        hw.vehicles.iter().map(|v| v.speed).sum::<f64>() / hw.vehicles.len() as f64
    }

    #[test]
    fn dense_traffic_is_slower_than_sparse() {
        let mut rng = SimRng::new(5);
        let mut sparse = HighwayBuilder::new()
            .length_m(2_000.0)
            .lanes_per_direction(1)
            .bidirectional(false)
            .vehicles(10)
            .lane_changes(false)
            .build(&mut rng);
        let mut dense = HighwayBuilder::new()
            .length_m(2_000.0)
            .lanes_per_direction(1)
            .bidirectional(false)
            .vehicles(150)
            .lane_changes(false)
            .build(&mut rng);
        let mut r1 = SimRng::new(6);
        let mut r2 = SimRng::new(6);
        for _ in 0..300 {
            sparse.step(SimDuration::from_secs(0.5), &mut r1);
            dense.step(SimDuration::from_secs(0.5), &mut r2);
        }
        let (dense, sparse) = (mean_speed(&dense), mean_speed(&sparse));
        assert!(
            dense < sparse * 0.8,
            "congestion should reduce mean speed: dense {dense} vs sparse {sparse}"
        );
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mut a = build(25, 7);
        let mut b = build(25, 7);
        let mut ra = SimRng::new(8);
        let mut rb = SimRng::new(8);
        for _ in 0..50 {
            a.step(SimDuration::from_secs(0.5), &mut ra);
            b.step(SimDuration::from_secs(0.5), &mut rb);
        }
        assert_eq!(a.states(), b.states());
    }

    const RING_M: f64 = 4_000.0;

    /// A fleet placed by hand on three lanes a side: `lanes_used` of the six
    /// hold every vehicle (the rest stay empty), and positions come from a
    /// coarse grid (duplicates abound), from the ring's seam, or from
    /// anywhere. `lane_order` is derived, as at the top of a step.
    fn placed_fleet(rng: &mut SimRng, vehicles: usize, counterflow: bool) -> HighwayModel {
        let mut hw = HighwayBuilder::new()
            .length_m(RING_M)
            .lanes_per_direction(3)
            .vehicles(vehicles)
            .counterflow(counterflow)
            .build(rng);
        let seam = [
            0.0,
            5e-324,
            1.0,
            1.0 + f64::EPSILON,
            RING_M - 1.0,
            RING_M - RING_M * f64::EPSILON / 2.0,
            RING_M,
        ];
        let lanes_used = 1 + rng.uniform_usize(hw.lane_count);
        for v in &mut hw.vehicles {
            v.lane = rng.uniform_usize(lanes_used);
            v.s = match rng.uniform_usize(10) {
                0..=4 => rng.uniform_usize(40) as f64 * (RING_M / 40.0),
                5 | 6 => seam[rng.uniform_usize(seam.len())],
                _ => rng.uniform_range(0.0, RING_M),
            };
        }
        hw.derive_lane_order();
        hw
    }

    fn bits(found: Option<(f64, usize)>) -> Option<(u64, usize)> {
        found.map(|(gap, j)| (gap.to_bits(), j))
    }

    #[test]
    fn lane_order_finds_the_leader_the_fleet_scan_finds() {
        let mut rng = SimRng::new(0x1ead);
        let (mut some, mut none, mut tied) = (0, 0, 0);
        for round in 0..120 {
            let vehicles = match round % 4 {
                0 => 1 + rng.uniform_usize(6),
                _ => 1 + rng.uniform_usize(300),
            };
            let hw = placed_fleet(&mut rng, vehicles, round % 2 == 1);
            assert!(round % 4 != 0 || hw.lane_order.iter().any(|lane| lane.len() <= 1));
            for idx in 0..vehicles {
                for lane in 0..hw.lane_count {
                    let found = hw.nearest_ahead(idx, lane);
                    assert_eq!(
                        bits(found),
                        bits(hw.nearest_ahead_scan(idx, lane)),
                        "round {round}: vehicle {idx} (s = {:e}) looking into lane {lane}",
                        hw.vehicles[idx].s
                    );
                    match found {
                        None => none += 1,
                        Some((gap, j)) => {
                            some += 1;
                            let same_gap = |&k: &usize| {
                                k != j && hw.gap_between(idx, k, hw.lane_reversed(lane)) == gap
                            };
                            tied += usize::from(hw.lane_order[lane].iter().any(same_gap));
                        }
                    }
                }
            }
        }
        assert!(some > 50_000 && none > 1_000 && tied > 5_000);
    }

    /// Across the seam the gap is a sum rounded at the scale of the ring, so
    /// it can come out *below* the gap to a vehicle that is reached without
    /// crossing and is nearer by less than that rounding. The scan takes the
    /// smaller computed gap, and so must the lane-order search: the
    /// successor alone is not enough.
    #[test]
    fn a_gap_across_the_seam_can_round_below_a_nearer_one() {
        let mut rng = SimRng::new(1);
        let mut hw = HighwayBuilder::new()
            .length_m(RING_M)
            .vehicles(3)
            .counterflow(true)
            .build(&mut rng);
        let westbound = hw.config.lanes_per_direction;
        for (v, s) in hw
            .vehicles
            .iter_mut()
            .zip([1.0 + f64::EPSILON, 0.0, RING_M])
        {
            v.lane = westbound;
            v.s = s;
        }
        hw.derive_lane_order();
        // Travelling towards decreasing `s`, vehicle 1 is 1 m + 1 ulp ahead
        // of vehicle 0 and vehicle 2, across the seam, an exact 1 m + 1 ulp
        // too — computed as 1 m.
        assert_eq!(hw.gap_between(0, 1, true), 1.0 + f64::EPSILON);
        assert_eq!(hw.gap_between(0, 2, true), 1.0);
        assert_eq!(hw.nearest_ahead_scan(0, westbound), Some((1.0, 2)));
        assert_eq!(hw.nearest_ahead(0, westbound), Some((1.0, 2)));
    }

    /// `leader_of` as it was before lane order.
    fn leader_by_scan(hw: &HighwayModel, idx: usize, lane: usize) -> Option<LeaderInfo> {
        hw.nearest_ahead_scan(idx, lane).map(|(gap, j)| LeaderInfo {
            gap: (gap - hw.config.idm_of(j).vehicle_length).max(0.01),
            approach_rate: hw.vehicles[idx].speed - hw.vehicles[j].speed,
        })
    }

    /// `HighwayModel::step` as it was before lane order: every leader found
    /// by scanning the fleet, every buffer allocated afresh.
    fn step_by_scan(hw: &mut HighwayModel, dt: f64, rng: &mut SimRng) {
        if hw.config.lane_change_enabled {
            for idx in 0..hw.vehicles.len() {
                let me = &hw.vehicles[idx];
                let current_lane = me.lane;
                let blocked = leader_by_scan(hw, idx, current_lane)
                    .is_some_and(|l| l.gap < 20.0 && me.speed < me.desired_speed * 0.8);
                if !blocked || !rng.chance(0.3) {
                    continue;
                }
                let eastbound = hw.lane_is_eastbound(current_lane);
                let candidates: Vec<usize> = [current_lane.wrapping_sub(1), current_lane + 1]
                    .into_iter()
                    .filter(|&l| l < hw.lane_count && hw.lane_is_eastbound(l) == eastbound)
                    .collect();
                let mut best: Option<(usize, f64)> = None;
                for &cand in &candidates {
                    let gap = leader_by_scan(hw, idx, cand).map_or(f64::INFINITY, |l| l.gap);
                    if gap > 30.0 {
                        match best {
                            Some((_, g)) if g >= gap => {}
                            _ => best = Some((cand, gap)),
                        }
                    }
                }
                if let Some((lane, _)) = best {
                    hw.vehicles[idx].lane = lane;
                }
            }
        }
        let accels: Vec<f64> = (0..hw.vehicles.len())
            .map(|idx| {
                let v = &hw.vehicles[idx];
                hw.config.idm_of(idx).acceleration(
                    v.speed,
                    v.desired_speed,
                    leader_by_scan(hw, idx, v.lane),
                )
            })
            .collect();
        let length = hw.config.length_m;
        for (v, a) in hw.vehicles.iter_mut().zip(accels) {
            v.acceleration = a;
            v.speed = (v.speed + a * dt).clamp(0.0, hw.config.speed_limit_mps);
            if hw.config.counterflow && v.lane >= hw.config.lanes_per_direction {
                v.s -= v.speed * dt;
                while v.s < 0.0 {
                    v.s += length;
                }
            } else {
                v.s += v.speed * dt;
                while v.s >= length {
                    v.s -= length;
                }
            }
        }
    }

    #[test]
    fn two_hundred_steps_match_the_fleet_scan_bit_for_bit() {
        for counterflow in [false, true] {
            let mut rng = SimRng::new(0xd1ff);
            // Dense enough to block: lane changes happen throughout.
            let mut by_order = HighwayBuilder::new()
                .length_m(1_500.0)
                .lanes_per_direction(3)
                .vehicles(280)
                .buses(12)
                .counterflow(counterflow)
                .build(&mut rng);
            let mut by_scan = by_order.clone();
            let (mut rng_order, mut rng_scan) = (SimRng::new(77), SimRng::new(77));
            let mut lane_changes = 0;
            for step in 0..200 {
                let lanes: Vec<usize> = by_scan.vehicles.iter().map(|v| v.lane).collect();
                by_order.step(SimDuration::from_secs(0.5), &mut rng_order);
                step_by_scan(&mut by_scan, 0.5, &mut rng_scan);
                for (i, (a, b)) in by_order.vehicles.iter().zip(&by_scan.vehicles).enumerate() {
                    let state = |v: &HighwayVehicle| {
                        (
                            v.lane,
                            v.s.to_bits(),
                            v.speed.to_bits(),
                            v.acceleration.to_bits(),
                        )
                    };
                    assert_eq!(state(a), state(b), "step {step}, vehicle {i}");
                }
                assert_eq!(by_order, by_scan, "step {step}");
                assert_eq!(rng_order.next_u64(), rng_scan.next_u64(), "step {step}");
                lane_changes += lanes
                    .iter()
                    .zip(&by_scan.vehicles)
                    .filter(|(&lane, v)| lane != v.lane)
                    .count();
            }
            assert!(lane_changes > 100, "{lane_changes} lane changes");
        }
    }

    #[test]
    fn equality_ignores_the_step_scratch() {
        let mut stepped = build(25, 7);
        stepped.step(SimDuration::from_secs(0.5), &mut SimRng::new(8));
        let mut bare = stepped.clone();
        bare.lane_order.clear();
        bare.accels.clear();
        assert_ne!(stepped.lane_order, bare.lane_order);
        assert_eq!(stepped, bare);
    }

    #[test]
    fn buses_are_created() {
        let mut rng = SimRng::new(9);
        let hw = HighwayBuilder::new().vehicles(10).buses(3).build(&mut rng);
        let buses = hw
            .states()
            .iter()
            .filter(|s| s.kind == VehicleKind::Bus)
            .count();
        assert_eq!(buses, 3);
    }

    #[test]
    fn state_lookup_by_id() {
        // Ids run from 0 by default, so a vehicle's id is its index.
        let hw = build(10, 10);
        for (i, s) in hw.states().iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
    }

    #[test]
    fn bounds_contain_all_vehicles() {
        let hw = build(40, 12);
        let b = hw.bounds();
        for s in hw.states() {
            assert!(b.contains(s.position), "vehicle outside bounds");
        }
    }

    #[test]
    fn density_helper() {
        let b = HighwayBuilder::new()
            .length_m(1_000.0)
            .vehicles(40)
            .bidirectional(true);
        assert!((b.density_per_km() - 20.0).abs() < 1e-9);
    }
}
