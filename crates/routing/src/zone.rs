//! Zone-based geographic routing (Sec. VI): zone-restricted flooding
//! (Bronsted & Kristensen) and ROVER-style zone-scoped discovery.
//!
//! Both use the destination's geographic zone to bound where packets are
//! relayed: `Zone` floods data but only within a corridor between the source
//! and the destination zone, `Rover` runs the on-demand discovery skeleton
//! with the same corridor as its forwarding filter (control packets are
//! broadcast inside the zone, data is then unicast along the found route).

use crate::aodv::AodvPolicy;
use crate::common::{flood_originate, flood_receive, SeenCache, FLOOD_SEEN_HORIZON_S};
use crate::ondemand::{DiscoveryPolicy, OnDemandRouting};
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use vanet_mobility::geometry::distance;
use vanet_mobility::Position;
use vanet_net::{GeoAddress, Packet, PacketKind};
use vanet_sim::SimDuration;

/// Extra corridor width Zone and ROVER allow around the straight line to the
/// destination zone, metres.
const CORRIDOR_MARGIN_M: f64 = 500.0;

/// Whether `candidate` lies inside the forwarding corridor between `from` and
/// the destination zone centred at `dest` with radius `zone_radius`: the
/// corridor is the set of points whose detour over the straight line is at
/// most [`CORRIDOR_MARGIN_M`] plus `zone_radius` (an ellipse with foci `from`
/// and `dest`).
#[must_use]
fn in_corridor(candidate: Position, from: Position, dest: Position, zone_radius: f64) -> bool {
    let direct = distance(from, dest);
    let detour = distance(from, candidate) + distance(candidate, dest);
    detour <= direct + CORRIDOR_MARGIN_M + zone_radius
}

/// Zone-restricted flooding.
#[derive(Debug)]
pub struct Zone {
    seen: SeenCache,
}

impl Zone {
    /// Creates a zone-flooding instance with a 500 m corridor margin.
    #[must_use]
    pub fn new() -> Self {
        Zone {
            seen: SeenCache::new(FLOOD_SEEN_HORIZON_S),
        }
    }
}

impl Default for Zone {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Zone {
    fn name(&self) -> &'static str {
        "Zone"
    }

    fn category(&self) -> Category {
        Category::Geographic
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, mut packet: Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(&packet, DropReason::NoRoute);
            return;
        };
        let Some(dest_pos) = ctx.position_of(dest) else {
            ctx.drop_packet(&packet, DropReason::NoRoute);
            return;
        };
        packet.geo = Some(GeoAddress {
            position: dest_pos,
            zone_radius: ctx.range_m,
        });
        let copy = flood_originate(&mut self.seen, ctx, packet);
        ctx.transmit(copy);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, _overheard: bool) {
        if packet.kind != PacketKind::Data || !flood_receive(&mut self.seen, ctx, packet) {
            return;
        }
        // Only nodes inside the corridor towards the destination zone relay.
        let inside = match (packet.geo, packet.sender_position) {
            (Some(geo), Some(sender)) => {
                in_corridor(ctx.position(), sender, geo.position, geo.zone_radius)
            }
            (Some(geo), None) => distance(ctx.position(), geo.position) <= geo.zone_radius * 4.0,
            _ => true,
        };
        if !inside {
            ctx.drop_packet(packet, DropReason::OutOfZone);
            return;
        }
        let fwd = ctx.stamp(packet.forwarded_by(ctx.node, None));
        ctx.transmit(fwd);
    }

    fn on_tick(&mut self, _ctx: &mut ProtocolContext<'_>) {}
}

/// The ROVER discovery policy: AODV's hop-count metric and route lifetime,
/// but route requests are relayed only inside the zone/corridor towards the
/// destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoverPolicy;

impl DiscoveryPolicy for RoverPolicy {
    fn name(&self) -> &'static str {
        "ROVER"
    }

    fn category(&self) -> Category {
        Category::Geographic
    }

    fn link_metric(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> f64 {
        AodvPolicy.link_metric(ctx, packet)
    }

    fn combine(&self, path_metric: f64, link_metric: f64) -> f64 {
        AodvPolicy.combine(path_metric, link_metric)
    }

    fn initial_metric(&self) -> f64 {
        AodvPolicy.initial_metric()
    }

    fn should_forward_request(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> bool {
        match (packet.geo, packet.sender_position) {
            (Some(geo), Some(sender)) => {
                in_corridor(ctx.position(), sender, geo.position, geo.zone_radius)
            }
            // Without a known destination zone ROVER degenerates to AODV.
            _ => true,
        }
    }

    fn route_lifetime(&self, metric: f64) -> SimDuration {
        AodvPolicy.route_lifetime(metric)
    }
}

/// The ROVER protocol type.
pub type Rover = OnDemandRouting<RoverPolicy>;

/// Creates a ROVER instance.
#[must_use]
pub fn rover() -> Rover {
    Rover::new(RoverPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::testkit::Harness;
    use vanet_mobility::{Vec2, VehicleKind};
    use vanet_sim::NodeId;

    /// Car `id` standing at `position`.
    fn car_at(id: u32, position: Vec2) -> Harness {
        let mut h = Harness::new(id);
        h.place(id, VehicleKind::Car, position, Vec2::ZERO);
        h
    }

    #[test]
    fn corridor_membership() {
        let from = Vec2::new(0.0, 0.0);
        let dest = Vec2::new(2_000.0, 0.0);
        assert!(in_corridor(Vec2::new(1_000.0, 0.0), from, dest, 250.0));
        assert!(in_corridor(Vec2::new(1_000.0, 300.0), from, dest, 250.0));
        assert!(!in_corridor(Vec2::new(1_000.0, 2_000.0), from, dest, 250.0));
        assert!(!in_corridor(Vec2::new(-1_500.0, 0.0), from, dest, 250.0));
    }

    #[test]
    fn zone_originate_attaches_destination_zone() {
        let mut h = Harness::new(0);
        h.place(9, VehicleKind::Car, Vec2::new(1_500.0, 0.0), Vec2::ZERO);
        let mut proto = Zone::new();
        let actions = {
            let mut ctx = h.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions()
        };
        match &actions[0] {
            Action::Transmit(p) => {
                assert!(p.geo.is_some());
                assert!(p.is_link_broadcast());
            }
            other => panic!("expected transmit, got {other:?}"),
        }
    }

    #[test]
    fn zone_nodes_outside_corridor_do_not_relay() {
        let dest_pos = Vec2::new(2_000.0, 0.0);
        let mut packet = Packet::data(NodeId(0), NodeId(9), 64);
        packet.geo = Some(GeoAddress {
            position: dest_pos,
            zone_radius: 250.0,
        });
        packet.sender_position = Some(Vec2::ZERO);

        // A node on the corridor relays.
        let mut on_path = car_at(3, Vec2::new(800.0, 100.0));
        let mut proto_a = Zone::new();
        let relayed = {
            let mut ctx = on_path.ctx(1.0);
            proto_a.on_packet(&mut ctx, &packet, false);
            ctx.take_actions()
        };
        assert!(matches!(relayed[0], Action::Transmit(_)));

        // A node far off the corridor drops.
        let mut off_path = car_at(4, Vec2::new(800.0, 3_000.0));
        let mut proto_b = Zone::new();
        let dropped = {
            let mut ctx = off_path.ctx(1.0);
            proto_b.on_packet(&mut ctx, &packet, false);
            ctx.take_actions()
        };
        assert!(matches!(
            dropped[0],
            Action::Drop {
                reason: DropReason::OutOfZone,
                ..
            }
        ));
    }

    #[test]
    fn zone_delivers_and_deduplicates() {
        let mut h = car_at(9, Vec2::new(2_000.0, 0.0));
        let mut proto = Zone::new();
        let mut packet = Packet::data(NodeId(0), NodeId(9), 64);
        packet.geo = Some(GeoAddress {
            position: Vec2::new(2_000.0, 0.0),
            zone_radius: 250.0,
        });
        packet.sender_position = Some(Vec2::new(1_800.0, 0.0));
        let first = {
            let mut ctx = h.ctx(1.0);
            proto.on_packet(&mut ctx, &packet, false);
            ctx.take_actions()
        };
        assert!(matches!(first[0], Action::Deliver(_)));
        let dup = {
            let mut ctx = h.ctx(1.1);
            proto.on_packet(&mut ctx, &packet, false);
            ctx.take_actions()
        };
        assert!(matches!(
            dup[0],
            Action::Drop {
                reason: DropReason::Duplicate,
                ..
            }
        ));
    }

    #[test]
    fn rover_policy_filters_by_corridor() {
        let policy = RoverPolicy;
        let mut inside = car_at(1, Vec2::new(900.0, 100.0));
        let mut rreq = Packet::broadcast(
            NodeId(0),
            PacketKind::RouteRequest {
                target: NodeId(9),
                request_id: 1,
                hop_count: 0,
                path: vec![NodeId(0)],
                metric: 0.0,
            },
            0,
        );
        rreq.geo = Some(GeoAddress {
            position: Vec2::new(2_000.0, 0.0),
            zone_radius: 250.0,
        });
        rreq.sender_position = Some(Vec2::ZERO);
        {
            let ctx = inside.ctx(1.0);
            assert!(policy.should_forward_request(&ctx, &rreq));
        }
        let mut outside = car_at(2, Vec2::new(900.0, 4_000.0));
        {
            let ctx = outside.ctx(1.0);
            assert!(!policy.should_forward_request(&ctx, &rreq));
        }
        // Without zone information ROVER behaves like AODV.
        rreq.geo = None;
        {
            let ctx = outside.ctx(1.0);
            assert!(policy.should_forward_request(&ctx, &rreq));
        }
    }

    #[test]
    fn identities() {
        assert_eq!(Zone::new().name(), "Zone");
        assert_eq!(Zone::new().category(), Category::Geographic);
        assert_eq!(rover().name(), "ROVER");
        assert_eq!(rover().category(), Category::Geographic);
    }
}
