//! Position-based next-hop forwarding: the geographic family (Sec. VI) and
//! the probability-model protocols that select next hops by a per-link score
//! (Sec. VII: REAR, CAR, GVGrid).
//!
//! All of them share the same forwarding skeleton — look up the destination's
//! position, pick the best-scoring neighbour, hand the packet over, carry it
//! briefly when no neighbour qualifies (local maximum) — and differ only in
//! the scoring function, captured by [`NextHopScorer`].

use crate::common::CarryQueue;
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use std::fmt::Debug;
use vanet_links::probability::{
    link_availability, receipt_probability, segment_connectivity_probability,
};
use vanet_mobility::geometry::distance;
use vanet_mobility::Position;
use vanet_net::{GeoAddress, NeighborInfo, Packet, PacketKind};
use vanet_sim::SimDuration;

/// Scores candidate next hops for position-based forwarding.
pub trait NextHopScorer: Debug + Send {
    /// Protocol name.
    fn name(&self) -> &'static str;

    /// Taxonomy category ([`Category::Geographic`] or [`Category::Probability`]).
    fn category(&self) -> Category;

    /// Score of forwarding via `neighbor` towards `dest_pos`; `None` marks the
    /// neighbour ineligible. Higher scores are better.
    fn score(
        &self,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
        dest_pos: Position,
    ) -> Option<f64>;
}

/// How long a packet may be carried at a local maximum before it is dropped
/// (store–carry–forward grace period), seconds.
const CARRY_TIMEOUT_S: f64 = 5.0;
/// Maximum number of packets carried while waiting for a neighbour.
const CARRY_CAPACITY: usize = 32;

/// Generic position-based forwarding protocol, parameterised by the scorer.
#[derive(Debug)]
pub struct GeoRouting<S: NextHopScorer> {
    scorer: S,
    carried: CarryQueue,
}

impl<S: NextHopScorer> GeoRouting<S> {
    /// Creates a position-based protocol around `scorer`.
    #[must_use]
    pub fn new(scorer: S) -> Self {
        GeoRouting {
            scorer,
            carried: CarryQueue::default(),
        }
    }

    /// Number of packets currently carried while waiting for a next hop.
    #[cfg(test)]
    #[must_use]
    fn carried_packets(&self) -> usize {
        self.carried.len()
    }

    fn destination_position(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> Option<Position> {
        packet
            .destination
            .and_then(|d| ctx.position_of(d))
            .or(packet.geo.map(|g| g.position))
    }

    fn forward(&mut self, ctx: &mut ProtocolContext<'_>, mut packet: Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(&packet, DropReason::NoRoute);
            return;
        };
        if dest == ctx.node {
            ctx.deliver(&packet);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(&packet, DropReason::TtlExpired);
            return;
        }
        let Some(dest_pos) = self.destination_position(ctx, &packet) else {
            ctx.drop_packet(&packet, DropReason::NoRoute);
            return;
        };
        packet.geo = Some(GeoAddress {
            position: dest_pos,
            zone_radius: ctx.range_m,
        });
        // If the destination itself is a fresh neighbour, hand over directly.
        if ctx.neighbors.contains(dest) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(dest)));
            ctx.transmit(fwd);
            return;
        }
        // Otherwise pick the best-scoring neighbour.
        let mut best: Option<(f64, vanet_sim::NodeId)> = None;
        for n in ctx.neighbors.iter() {
            if n.id == packet.prev_hop {
                continue;
            }
            if let Some(score) = self.scorer.score(ctx, &n, dest_pos) {
                match best {
                    Some((s, _)) if s >= score => {}
                    _ => best = Some((score, n.id)),
                }
            }
        }
        match best {
            Some((_, next)) => {
                let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next)));
                ctx.transmit(fwd);
            }
            None => {
                // Local maximum: carry the packet briefly.
                self.carried.carry(ctx, packet, CARRY_CAPACITY);
            }
        }
    }
}

impl<S: NextHopScorer> RoutingProtocol for GeoRouting<S> {
    fn name(&self) -> &'static str {
        self.scorer.name()
    }

    fn category(&self) -> Category {
        self.scorer.category()
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.forward(ctx, packet);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        if packet.kind != PacketKind::Data {
            return;
        }
        if packet.destination == Some(ctx.node) {
            ctx.deliver(packet);
            return;
        }
        if overheard {
            return;
        }
        self.forward(ctx, packet.clone());
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        std::mem::take(&mut self.carried).retry(
            ctx,
            SimDuration::from_secs(CARRY_TIMEOUT_S),
            DropReason::LocalMaximum,
            |ctx, packet| self.forward(ctx, packet),
        );
    }
}

/// Predictive directional greedy forwarding (Gong et al. / Lochert et al.):
/// forward to the neighbour closest to the destination among those that make
/// progress, with a bonus for neighbours moving *towards* the destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyScorer;

/// Bonus weight for neighbours whose velocity points at the destination.
const DIRECTION_BONUS: f64 = 0.2;

impl NextHopScorer for GreedyScorer {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn category(&self) -> Category {
        Category::Geographic
    }

    fn score(
        &self,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
        dest_pos: Position,
    ) -> Option<f64> {
        let own = distance(ctx.position(), dest_pos);
        let theirs = distance(neighbor.position, dest_pos);
        if theirs >= own {
            return None;
        }
        let progress = (own - theirs) / ctx.range_m;
        let towards = {
            let to_dest = dest_pos - neighbor.position;
            if to_dest.norm() == 0.0 || neighbor.velocity.norm() == 0.0 {
                0.0
            } else if neighbor.velocity.dot(to_dest) > 0.0 {
                DIRECTION_BONUS
            } else {
                0.0
            }
        };
        Some(progress + towards)
    }
}

/// REAR: the next hop is the progressing neighbour with the highest *receipt
/// probability*, computed from the log-normal shadowing signal-strength model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RearScorer;

/// Path-loss exponent assumed by the receipt-probability model.
const REAR_PATH_LOSS_EXPONENT: f64 = 2.7;
/// Shadow-fading standard deviation in dB.
const REAR_SHADOWING_SIGMA_DB: f64 = 4.0;

impl NextHopScorer for RearScorer {
    fn name(&self) -> &'static str {
        "REAR"
    }

    fn category(&self) -> Category {
        Category::Probability
    }

    fn score(
        &self,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
        dest_pos: Position,
    ) -> Option<f64> {
        let own = distance(ctx.position(), dest_pos);
        let theirs = distance(neighbor.position, dest_pos);
        if theirs >= own {
            return None;
        }
        let link_distance = distance(ctx.position(), neighbor.position);
        let receipt = receipt_probability(
            link_distance,
            ctx.range_m,
            REAR_PATH_LOSS_EXPONENT,
            REAR_SHADOWING_SIGMA_DB,
        );
        // Weight the receipt probability by the (normalised) progress so that
        // among equally reliable neighbours the one closer to the target wins.
        Some(receipt * (1.0 + (own - theirs) / ctx.range_m))
    }
}

/// CAR: connectivity-aware scoring — progress weighted by the probability
/// that the road ahead (towards the destination) is actually connected,
/// estimated from the locally observed vehicle density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarScorer;

/// Length of the road stretch whose connectivity is evaluated, metres.
const CAR_LOOKAHEAD_M: f64 = 1_000.0;

impl NextHopScorer for CarScorer {
    fn name(&self) -> &'static str {
        "CAR"
    }

    fn category(&self) -> Category {
        Category::Probability
    }

    fn score(
        &self,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
        dest_pos: Position,
    ) -> Option<f64> {
        let own = distance(ctx.position(), dest_pos);
        let theirs = distance(neighbor.position, dest_pos);
        if theirs >= own {
            return None;
        }
        // Local density estimate: neighbours per metre of road covered by the
        // radio range (a 2r stretch of road is observable).
        let density_per_m = (ctx.neighbors.len() as f64 + 1.0) / (2.0 * ctx.range_m);
        let remaining = theirs.min(CAR_LOOKAHEAD_M);
        let connectivity =
            segment_connectivity_probability(density_per_m, remaining.max(1.0), ctx.range_m);
        let progress = (own - theirs) / ctx.range_m;
        Some(connectivity * (0.1 + progress))
    }
}

/// GVGrid: the area is partitioned into grid cells of roughly one radio range;
/// next hops are preferred when they sit in the next cell towards the
/// destination and their link is predicted to stay available for the time the
/// packet needs to cross a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GvGridScorer;

/// Grid cell edge length, metres (250 m, the radio range).
const GVGRID_CELL_M: f64 = 250.0;
/// Relative-speed standard deviation assumed by the availability model.
const GVGRID_SPEED_STD: f64 = 5.0;
/// Horizon (seconds) over which the link must stay available.
const GVGRID_HORIZON_S: f64 = 5.0;

impl GvGridScorer {
    fn cell_of(p: Position) -> (i64, i64) {
        (
            (p.x / GVGRID_CELL_M).floor() as i64,
            (p.y / GVGRID_CELL_M).floor() as i64,
        )
    }
}

impl NextHopScorer for GvGridScorer {
    fn name(&self) -> &'static str {
        "GVGrid"
    }

    fn category(&self) -> Category {
        Category::Probability
    }

    fn score(
        &self,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
        dest_pos: Position,
    ) -> Option<f64> {
        let own = distance(ctx.position(), dest_pos);
        let theirs = distance(neighbor.position, dest_pos);
        if theirs >= own {
            return None;
        }
        let separation = distance(ctx.position(), neighbor.position);
        let relative_speed = (ctx.velocity() - neighbor.velocity).norm();
        let availability = link_availability(
            separation.min(ctx.range_m),
            relative_speed,
            GVGRID_SPEED_STD,
            ctx.range_m,
            GVGRID_HORIZON_S,
        );
        let my_cell = Self::cell_of(ctx.position());
        let their_cell = Self::cell_of(neighbor.position);
        let cell_bonus = if their_cell != my_cell { 0.5 } else { 0.0 };
        let progress = (own - theirs) / ctx.range_m;
        Some(availability * (progress + cell_bonus))
    }
}

/// The Greedy geographic protocol type.
pub type Greedy = GeoRouting<GreedyScorer>;
/// The REAR protocol type.
pub type Rear = GeoRouting<RearScorer>;
/// The CAR protocol type.
pub type Car = GeoRouting<CarScorer>;
/// The GVGrid protocol type.
pub type GvGrid = GeoRouting<GvGridScorer>;

/// Creates a Greedy (predictive directional greedy) instance.
#[must_use]
pub fn greedy() -> Greedy {
    Greedy::new(GreedyScorer)
}

/// Creates a REAR instance.
#[must_use]
pub fn rear() -> Rear {
    Rear::new(RearScorer)
}

/// Creates a CAR instance.
#[must_use]
pub fn car() -> Car {
    Car::new(CarScorer)
}

/// Creates a GVGrid instance.
#[must_use]
pub fn gvgrid() -> GvGrid {
    GvGrid::new(GvGridScorer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::testkit::Harness;
    use vanet_mobility::{Vec2, VehicleKind};
    use vanet_sim::NodeId;

    /// Car 0 at the origin, driving east at 20 m/s.
    fn eastbound() -> Harness {
        let mut h = Harness::new(0);
        h.place(0, VehicleKind::Car, Vec2::ZERO, Vec2::new(20.0, 0.0));
        h
    }

    #[test]
    fn greedy_forwards_to_closest_progressing_neighbor() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(1_000.0, 0.0), Vec2::ZERO);
        h.add_neighbor(1, 100.0, 20.0);
        h.add_neighbor(2, 200.0, 20.0);
        h.add_neighbor(3, -100.0, 20.0); // backwards, never chosen
        let mut proto = greedy();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
            ctx.take_actions()
        };
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Transmit(p) => assert_eq!(p.next_hop, Some(NodeId(2))),
            other => panic!("expected transmit, got {other:?}"),
        }
    }

    #[test]
    fn greedy_prefers_neighbors_moving_towards_destination_on_ties() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(1_000.0, 0.0), Vec2::ZERO);
        // Two neighbours at the same progress; one drives towards the
        // destination, the other away.
        h.add_neighbor(1, 150.0, -20.0);
        h.add_neighbor(2, 150.0, 20.0);
        let mut proto = greedy();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
            ctx.take_actions()
        };
        match &actions[0] {
            Action::Transmit(p) => assert_eq!(p.next_hop, Some(NodeId(2))),
            other => panic!("expected transmit, got {other:?}"),
        }
    }

    #[test]
    fn local_maximum_carries_then_drops() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(1_000.0, 0.0), Vec2::ZERO);
        h.add_neighbor(3, -100.0, 20.0); // only a backwards neighbour
        let mut proto = greedy();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
            ctx.take_actions()
        };
        assert!(actions.is_empty(), "packet is carried, not dropped yet");
        assert_eq!(proto.carried_packets(), 1);
        // Within the carry window the packet is retried (and re-carried).
        let retry = {
            let mut ctx = h.ctx(3.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(retry.is_empty());
        assert_eq!(proto.carried_packets(), 1);
        // After the timeout it is dropped as a local maximum.
        let expired = {
            let mut ctx = h.ctx(10.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(matches!(
            expired[0],
            Action::Drop {
                reason: DropReason::LocalMaximum,
                ..
            }
        ));
        assert_eq!(proto.carried_packets(), 0);
    }

    #[test]
    fn carried_packet_is_sent_when_a_neighbor_appears() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(1_000.0, 0.0), Vec2::ZERO);
        let mut proto = greedy();
        {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
        }
        assert_eq!(proto.carried_packets(), 1);
        h.add_neighbor(4, 180.0, 20.0);
        let actions = {
            let mut ctx = h.ctx(2.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(matches!(&actions[0], Action::Transmit(p) if p.next_hop == Some(NodeId(4))));
        assert_eq!(proto.carried_packets(), 0);
    }

    #[test]
    fn direct_delivery_to_neighbor_destination() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(150.0, 0.0), Vec2::ZERO);
        h.add_neighbor(9, 150.0, 20.0);
        let mut proto = greedy();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
            ctx.take_actions()
        };
        assert!(matches!(&actions[0], Action::Transmit(p) if p.next_hop == Some(NodeId(9))));
    }

    #[test]
    fn unknown_destination_position_is_a_drop() {
        let mut h = eastbound();
        let mut proto = greedy();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 100));
            ctx.take_actions()
        };
        assert!(matches!(
            actions[0],
            Action::Drop {
                reason: DropReason::NoRoute,
                ..
            }
        ));
    }

    #[test]
    fn rear_prefers_reliable_links() {
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, Vec2::new(2_000.0, 0.0), Vec2::ZERO);
        // A close reliable neighbour and a distant marginal one.
        h.add_neighbor(1, 120.0, 20.0);
        h.add_neighbor(2, 245.0, 20.0);
        let scorer = RearScorer;
        let (s1, s2) = {
            let ctx = h.ctx(1.0);
            let n1 = ctx.neighbors.get(NodeId(1)).unwrap();
            let n2 = ctx.neighbors.get(NodeId(2)).unwrap();
            (
                scorer.score(&ctx, &n1, Vec2::new(2_000.0, 0.0)).unwrap(),
                scorer.score(&ctx, &n2, Vec2::new(2_000.0, 0.0)).unwrap(),
            )
        };
        assert!(
            s1 > s2,
            "the reliable 120 m link should beat the marginal 245 m link ({s1} vs {s2})"
        );
    }

    #[test]
    fn car_score_grows_with_density() {
        let scorer = CarScorer;
        let dest = Vec2::new(3_000.0, 0.0);
        // Sparse neighbourhood.
        let mut sparse = eastbound();
        sparse.place(9, VehicleKind::Car, dest, Vec2::ZERO);
        sparse.add_neighbor(1, 200.0, 20.0);
        let sparse_score = {
            let ctx = sparse.ctx(1.0);
            let n = ctx.neighbors.get(NodeId(1)).unwrap();
            scorer.score(&ctx, &n, dest).unwrap()
        };
        // Dense neighbourhood.
        let mut dense = eastbound();
        dense.place(9, VehicleKind::Car, dest, Vec2::ZERO);
        for i in 1..30 {
            dense.add_neighbor(i, 10.0 * i as f64, 20.0);
        }
        let dense_score = {
            let ctx = dense.ctx(1.0);
            let n = ctx.neighbors.get(NodeId(20)).unwrap();
            scorer.score(&ctx, &n, dest).unwrap()
        };
        assert!(
            dense_score > sparse_score,
            "denser traffic means better connectivity: {dense_score} vs {sparse_score}"
        );
    }

    #[test]
    fn gvgrid_penalises_unstable_links() {
        let scorer = GvGridScorer;
        let dest = Vec2::new(3_000.0, 0.0);
        let mut h = eastbound();
        h.place(9, VehicleKind::Car, dest, Vec2::ZERO);
        h.add_neighbor(1, 200.0, 20.0); // same direction as us (20 m/s)
        h.add_neighbor(2, 200.0, -20.0); // opposite direction
        let (stable, unstable) = {
            let ctx = h.ctx(1.0);
            let n1 = ctx.neighbors.get(NodeId(1)).unwrap();
            let n2 = ctx.neighbors.get(NodeId(2)).unwrap();
            (
                scorer.score(&ctx, &n1, dest).unwrap(),
                scorer.score(&ctx, &n2, dest).unwrap(),
            )
        };
        assert!(
            stable > unstable,
            "same-direction neighbour should score higher: {stable} vs {unstable}"
        );
    }

    #[test]
    fn protocol_identities() {
        assert_eq!(greedy().name(), "Greedy");
        assert_eq!(greedy().category(), Category::Geographic);
        assert_eq!(rear().name(), "REAR");
        assert_eq!(rear().category(), Category::Probability);
        assert_eq!(car().name(), "CAR");
        assert_eq!(car().category(), Category::Probability);
        assert_eq!(gvgrid().name(), "GVGrid");
        assert_eq!(gvgrid().category(), Category::Probability);
    }
}
