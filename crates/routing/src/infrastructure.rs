//! Infrastructure-based routing (Sec. V): DRR-style RSU-assisted relaying and
//! bus message ferries.
//!
//! * **DRR** (He et al.): road-side units act as *virtual equivalent nodes*
//!   connected by a wired backbone. Vehicles hand packets to the nearest RSU
//!   when direct multi-hop delivery is not possible; the RSU ships the packet
//!   over the backbone to the RSU closest to the destination, which delivers
//!   it by radio (buffering it until the destination drives into range).
//! * **Bus** (Kitani et al.): buses on regular routes carry packets across
//!   connectivity gaps (store–carry–forward) thanks to their large storage.

use crate::common::CarryQueue;
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use vanet_mobility::geometry::distance;
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SimDuration};

/// How long an RSU buffers a packet waiting for its destination, seconds.
const RSU_BUFFER_TIMEOUT_S: f64 = 60.0;
/// RSU buffer capacity (packets).
const RSU_BUFFER_CAPACITY: usize = 256;

/// DRR: differentiated reliable routing over road-side units.
#[derive(Debug)]
pub struct Drr {
    /// Packets buffered at this node (used on RSUs as the VEN buffer and on
    /// vehicles while waiting to meet an RSU).
    buffer: CarryQueue,
}

impl Drr {
    /// Creates a DRR instance.
    #[must_use]
    pub fn new() -> Self {
        Drr {
            buffer: CarryQueue::default(),
        }
    }

    /// Number of packets currently buffered at this node.
    #[cfg(test)]
    #[must_use]
    fn buffered_packets(&self) -> usize {
        self.buffer.len()
    }

    /// The RSU (other than this node) whose current position is closest to
    /// `target`, if any.
    fn closest_rsu_to(
        ctx: &ProtocolContext<'_>,
        target: vanet_mobility::Position,
    ) -> Option<NodeId> {
        ctx.rsu_ids
            .iter()
            .filter(|&&r| r != ctx.node)
            .filter_map(|&r| ctx.position_of(r).map(|p| (r, distance(p, target))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(r, _)| r)
    }

    /// An RSU currently within radio range of this node, if any.
    fn rsu_in_range(ctx: &ProtocolContext<'_>) -> Option<NodeId> {
        ctx.rsu_ids
            .iter()
            .filter(|&&r| r != ctx.node)
            .filter_map(|&r| ctx.position_of(r).map(|p| (r, distance(p, ctx.position()))))
            .filter(|(_, d)| *d <= ctx.range_m)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(r, _)| r)
    }

    fn handle_as_rsu(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(packet, DropReason::NoRoute);
            return;
        };
        // Deliver directly if the destination is in radio range of this RSU.
        if let Some(dest_pos) = ctx.position_of(dest) {
            if distance(dest_pos, ctx.position()) <= ctx.range_m {
                let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(dest)));
                ctx.transmit(fwd);
                return;
            }
            // Otherwise ship it over the backbone to the RSU nearest the
            // destination (if that is not us).
            if let Some(better_rsu) = Self::closest_rsu_to(ctx, dest_pos) {
                let own_distance = distance(ctx.position(), dest_pos);
                let their_distance = ctx
                    .position_of(better_rsu)
                    .map_or(f64::INFINITY, |p| distance(p, dest_pos));
                if their_distance + 1.0 < own_distance {
                    ctx.backbone_send(better_rsu, packet.clone());
                    return;
                }
            }
        }
        // We are the best-placed RSU but the destination is out of range:
        // buffer and retry on subsequent ticks (the VEN behaviour).
        self.buffer.carry(ctx, packet.clone(), RSU_BUFFER_CAPACITY);
    }

    fn handle_as_vehicle(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(packet, DropReason::NoRoute);
            return;
        };
        // Direct neighbour? Hand it over.
        if ctx.neighbors.contains(dest) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(dest)));
            ctx.transmit(fwd);
            return;
        }
        // RSU in range? Give the packet to the infrastructure.
        if let Some(rsu) = Self::rsu_in_range(ctx) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(rsu)));
            ctx.transmit(fwd);
            return;
        }
        // Otherwise forward greedily towards the nearest RSU.
        if let Some(rsu) = Self::closest_rsu_to(ctx, ctx.position()) {
            if let Some(rsu_pos) = ctx.position_of(rsu) {
                let own = distance(ctx.position(), rsu_pos);
                if let Some(next) = ctx.neighbors.greedy_next_hop(rsu_pos, own) {
                    let next_id = next.id;
                    let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next_id)));
                    ctx.transmit(fwd);
                    return;
                }
            }
        }
        // Nobody to hand the packet to: carry it for a while.
        self.buffer.carry(ctx, packet.clone(), RSU_BUFFER_CAPACITY);
    }

    fn process(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        if packet.destination == Some(ctx.node) {
            ctx.deliver(packet);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        if ctx.is_rsu() {
            self.handle_as_rsu(ctx, packet);
        } else {
            self.handle_as_vehicle(ctx, packet);
        }
    }
}

impl Default for Drr {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Drr {
    fn name(&self) -> &'static str {
        "DRR"
    }

    fn category(&self) -> Category {
        Category::Infrastructure
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.process(ctx, &packet);
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
        self.process(ctx, packet);
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        std::mem::take(&mut self.buffer).retry(
            ctx,
            SimDuration::from_secs(RSU_BUFFER_TIMEOUT_S),
            DropReason::Expired,
            |ctx, packet| self.process(ctx, &packet),
        );
    }
}

/// Bus buffer timeout, seconds (buses have large storage, so this is
/// generous).
const BUS_BUFFER_TIMEOUT_S: f64 = 300.0;
/// Buffer capacity on buses.
const BUS_BUFFER_CAPACITY: usize = 4_096;
/// Buffer capacity on ordinary cars waiting to meet a bus.
const CAR_BUFFER_CAPACITY: usize = 32;

/// Bus message ferrying: store–carry–forward over buses on regular routes.
#[derive(Debug)]
pub struct BusFerry {
    buffer: CarryQueue,
}

impl BusFerry {
    /// Creates a bus-ferry instance.
    #[must_use]
    pub fn new() -> Self {
        BusFerry {
            buffer: CarryQueue::default(),
        }
    }

    /// Number of packets currently carried by this node.
    #[cfg(test)]
    #[must_use]
    fn buffered_packets(&self) -> usize {
        self.buffer.len()
    }

    fn capacity(ctx: &ProtocolContext<'_>) -> usize {
        if ctx.is_bus() {
            BUS_BUFFER_CAPACITY
        } else {
            CAR_BUFFER_CAPACITY
        }
    }

    fn process(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        if packet.destination == Some(ctx.node) {
            ctx.deliver(packet);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        let Some(dest) = packet.destination else {
            ctx.drop_packet(packet, DropReason::NoRoute);
            return;
        };
        // Destination in range: hand over.
        if ctx.neighbors.contains(dest) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(dest)));
            ctx.transmit(fwd);
            return;
        }
        // A bus in range (and we are not a bus ourselves): hand the packet to
        // the ferry.
        if !ctx.is_bus() {
            let bus_in_range = ctx
                .bus_ids
                .iter()
                .find(|&&b| b != ctx.node && ctx.neighbors.contains(b))
                .copied();
            if let Some(bus) = bus_in_range {
                let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(bus)));
                ctx.transmit(fwd);
                return;
            }
        }
        // Otherwise carry.
        let capacity = Self::capacity(ctx);
        self.buffer.carry(ctx, packet.clone(), capacity);
    }
}

impl Default for BusFerry {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for BusFerry {
    fn name(&self) -> &'static str {
        "Bus"
    }

    fn category(&self) -> Category {
        Category::Infrastructure
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.process(ctx, &packet);
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
        self.process(ctx, packet);
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        std::mem::take(&mut self.buffer).retry(
            ctx,
            SimDuration::from_secs(BUS_BUFFER_TIMEOUT_S),
            DropReason::Expired,
            |ctx, packet| self.process(ctx, &packet),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::testkit::Harness;
    use vanet_mobility::{Vec2, VehicleKind};
    use vanet_sim::SimTime;

    #[test]
    fn vehicle_hands_packets_to_rsu_in_range() {
        let mut h = Harness::new(0);
        h.place(
            100,
            VehicleKind::RoadSideUnit,
            Vec2::new(150.0, 0.0),
            Vec2::ZERO,
        );
        h.place(9, VehicleKind::Car, Vec2::new(5_000.0, 0.0), Vec2::ZERO);
        let mut drr = Drr::new();
        let actions = {
            let mut ctx = h.ctx(1.0);
            drr.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions()
        };
        assert!(matches!(&actions[0], Action::Transmit(p) if p.next_hop == Some(NodeId(100))));
    }

    #[test]
    fn rsu_ships_packets_over_backbone_to_rsu_near_destination() {
        let mut h = Harness::new(100);
        h.place(100, VehicleKind::RoadSideUnit, Vec2::ZERO, Vec2::ZERO);
        h.place(
            101,
            VehicleKind::RoadSideUnit,
            Vec2::new(5_000.0, 0.0),
            Vec2::ZERO,
        );
        h.place(9, VehicleKind::Car, Vec2::new(5_100.0, 0.0), Vec2::ZERO);
        let mut drr = Drr::new();
        let actions = {
            let mut ctx = h.ctx(1.0);
            drr.on_packet(&mut ctx, &Packet::data(NodeId(0), NodeId(9), 64), false);
            ctx.take_actions()
        };
        assert!(matches!(
            &actions[0],
            Action::BackboneSend { to, .. } if *to == NodeId(101)
        ));
    }

    #[test]
    fn rsu_delivers_directly_or_buffers_until_destination_arrives() {
        let mut h = Harness::new(100);
        h.place(100, VehicleKind::RoadSideUnit, Vec2::ZERO, Vec2::ZERO);
        // Destination far away: the RSU buffers.
        h.place(9, VehicleKind::Car, Vec2::new(5_000.0, 0.0), Vec2::ZERO);
        let mut drr = Drr::new();
        let buffered = {
            let mut ctx = h.ctx(1.0);
            drr.on_packet(&mut ctx, &Packet::data(NodeId(0), NodeId(9), 64), false);
            ctx.take_actions()
        };
        assert!(buffered.is_empty());
        assert_eq!(drr.buffered_packets(), 1);
        // The destination drives into range: the next tick delivers it.
        h.place(9, VehicleKind::Car, Vec2::new(100.0, 0.0), Vec2::ZERO);
        let actions = {
            let mut ctx = h.ctx(5.0);
            drr.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(matches!(&actions[0], Action::Transmit(p) if p.next_hop == Some(NodeId(9))));
        assert_eq!(drr.buffered_packets(), 0);
    }

    #[test]
    fn rsu_buffer_expires_packets() {
        let mut h = Harness::new(100);
        h.place(100, VehicleKind::RoadSideUnit, Vec2::ZERO, Vec2::ZERO);
        h.place(9, VehicleKind::Car, Vec2::new(5_000.0, 0.0), Vec2::ZERO);
        let mut drr = Drr::new();
        {
            let mut ctx = h.ctx(1.0);
            drr.on_packet(&mut ctx, &Packet::data(NodeId(0), NodeId(9), 64), false);
        }
        let actions = {
            let mut ctx = h.ctx(500.0);
            drr.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(matches!(
            actions[0],
            Action::Drop {
                reason: DropReason::Expired,
                ..
            }
        ));
    }

    #[test]
    fn car_hands_packets_to_a_bus_and_bus_delivers() {
        // The car sees a bus but not the destination.
        let mut car = Harness::new(0);
        car.place(
            50,
            VehicleKind::Bus,
            Vec2::new(100.0, 0.0),
            Vec2::new(10.0, 0.0),
        );
        car.add_neighbor(50, 100.0, 10.0);
        let mut proto_car = BusFerry::new();
        let handed = {
            let mut ctx = car.ctx(1.0);
            proto_car.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions()
        };
        assert!(matches!(&handed[0], Action::Transmit(p) if p.next_hop == Some(NodeId(50))));

        // The bus carries the packet until the destination shows up.
        let mut bus = Harness::new(50);
        bus.place(50, VehicleKind::Bus, Vec2::new(100.0, 0.0), Vec2::ZERO);
        let mut proto_bus = BusFerry::new();
        let carried = {
            let mut ctx = bus.ctx(2.0);
            proto_bus.on_packet(&mut ctx, &Packet::data(NodeId(0), NodeId(9), 64), false);
            ctx.take_actions()
        };
        assert!(carried.is_empty());
        assert_eq!(proto_bus.buffered_packets(), 1);
        // Destination appears as a neighbour.
        bus.neighbors.observe(
            NodeId(9),
            Vec2::new(150.0, 0.0),
            Vec2::ZERO,
            SimTime::from_secs(100.0),
            SimDuration::from_secs(10.0),
        );
        let delivered = {
            let mut ctx = bus.ctx(101.0);
            proto_bus.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(matches!(&delivered[0], Action::Transmit(p) if p.next_hop == Some(NodeId(9))));
    }

    #[test]
    fn car_without_bus_carries_up_to_capacity() {
        let mut car = Harness::new(0);
        let mut proto = BusFerry::new();
        for i in 0..=CAR_BUFFER_CAPACITY {
            let mut ctx = car.ctx(1.0 + i as f64);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            let actions = ctx.take_actions();
            if i < CAR_BUFFER_CAPACITY {
                assert!(actions.is_empty());
            } else {
                assert!(matches!(
                    actions[0],
                    Action::Drop {
                        reason: DropReason::BufferOverflow,
                        ..
                    }
                ));
            }
        }
        assert_eq!(proto.buffered_packets(), CAR_BUFFER_CAPACITY);
    }

    #[test]
    fn identities() {
        assert_eq!(Drr::new().name(), "DRR");
        assert_eq!(Drr::new().category(), Category::Infrastructure);
        assert_eq!(BusFerry::new().name(), "Bus");
        assert_eq!(BusFerry::new().category(), Category::Infrastructure);
    }
}
