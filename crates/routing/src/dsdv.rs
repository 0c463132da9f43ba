//! DSDV: Destination-Sequenced Distance-Vector routing (Perkins & Bhagwat),
//! the proactive representative of the connectivity-based family.
//!
//! Every node periodically broadcasts its full routing table tagged with
//! destination sequence numbers; receivers merge entries, preferring fresher
//! sequence numbers and, for equal freshness, fewer hops. Data is forwarded
//! hop by hop along the resulting distance-vector routes.

use crate::common::{RouteEntry, RoutingTable};
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SeqNo, SimDuration, SimTime};

/// Interval between periodic full-table broadcasts, seconds.
const UPDATE_INTERVAL_S: f64 = 2.0;
/// Lifetime of a learned route without refresh, seconds.
const ROUTE_LIFETIME_S: f64 = 6.0;

/// The DSDV protocol.
#[derive(Debug)]
pub struct Dsdv {
    table: RoutingTable,
    my_seq: SeqNo,
    last_update: Option<SimTime>,
}

impl Dsdv {
    /// Creates a DSDV instance.
    #[must_use]
    pub fn new() -> Self {
        Dsdv {
            table: RoutingTable::new(),
            my_seq: SeqNo(0),
            last_update: None,
        }
    }

    /// Read access to the routing table.
    #[must_use]
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    fn build_update(&mut self, ctx: &mut ProtocolContext<'_>) -> Packet {
        // Advertise ourselves with an even, monotonically increasing sequence
        // number plus every route we currently hold.
        self.my_seq = SeqNo(self.my_seq.0 + 2);
        let mut entries = vec![(ctx.node, 0u32, self.my_seq)];
        for e in self.table.iter() {
            if e.expires_at >= ctx.now {
                entries.push((e.destination, e.hops, e.seq));
            }
        }
        ctx.new_control_packet(PacketKind::TopologyUpdate { entries })
    }

    fn forward_data(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(packet, DropReason::NoRoute);
            return;
        };
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        match self.table.route(dest, ctx.now) {
            Some(route) => {
                let next = route.next_hop;
                let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next)));
                ctx.transmit(fwd);
            }
            None => ctx.drop_packet(packet, DropReason::NoRoute),
        }
    }
}

impl Default for Dsdv {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Dsdv {
    fn name(&self) -> &'static str {
        "DSDV"
    }

    fn category(&self) -> Category {
        Category::Connectivity
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        None
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.forward_data(ctx, &packet);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        match &packet.kind {
            PacketKind::Data => {
                if packet.destination == Some(ctx.node) {
                    ctx.deliver(packet);
                    return;
                }
                if overheard {
                    return;
                }
                self.forward_data(ctx, packet);
            }
            PacketKind::TopologyUpdate { entries } => {
                let from = packet.prev_hop;
                for &(dest, hops, seq) in entries {
                    if dest == ctx.node {
                        continue;
                    }
                    self.table.upsert(RouteEntry {
                        destination: dest,
                        next_hop: from,
                        hops: hops + 1,
                        seq,
                        metric: -f64::from(hops + 1),
                        expires_at: ctx.now + SimDuration::from_secs(ROUTE_LIFETIME_S),
                    });
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        let due = match self.last_update {
            None => true,
            Some(t) => ctx.now.saturating_since(t) >= SimDuration::from_secs(UPDATE_INTERVAL_S),
        };
        if !due {
            return;
        }
        self.last_update = Some(ctx.now);
        let update = self.build_update(ctx);
        ctx.transmit(update);
    }

    fn on_neighbor_lost(&mut self, _ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        self.table.invalidate_next_hop(neighbor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::testkit::Harness;

    #[test]
    fn periodic_updates_are_rate_limited() {
        let mut dsdv = Dsdv::new();
        let mut h = Harness::new(1);
        let first = {
            let mut ctx = h.ctx(0.0);
            dsdv.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert_eq!(first.len(), 1);
        assert!(
            matches!(&first[0], Action::Transmit(p) if matches!(p.kind, PacketKind::TopologyUpdate { .. }))
        );
        let too_soon = {
            let mut ctx = h.ctx(1.0);
            dsdv.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(too_soon.is_empty());
        let later = {
            let mut ctx = h.ctx(3.0);
            dsdv.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert_eq!(later.len(), 1);
    }

    #[test]
    fn updates_install_routes_via_sender() {
        let mut dsdv = Dsdv::new();
        let mut h = Harness::new(1);
        let mut update = Packet::broadcast(
            NodeId(2),
            PacketKind::TopologyUpdate {
                entries: vec![(NodeId(2), 0, SeqNo(2)), (NodeId(5), 2, SeqNo(4))],
            },
            0,
        );
        update.prev_hop = NodeId(2);
        dsdv.on_packet(&mut h.ctx(1.0), &update, false);
        let to_2 = dsdv
            .routing_table()
            .route(NodeId(2), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(to_2.next_hop, NodeId(2));
        assert_eq!(to_2.hops, 1);
        let to_5 = dsdv
            .routing_table()
            .route(NodeId(5), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(to_5.next_hop, NodeId(2));
        assert_eq!(to_5.hops, 3);
    }

    #[test]
    fn fresher_sequence_number_wins() {
        let mut dsdv = Dsdv::new();
        let mut h = Harness::new(1);
        let mut via_2 = Packet::broadcast(
            NodeId(2),
            PacketKind::TopologyUpdate {
                entries: vec![(NodeId(5), 1, SeqNo(2))],
            },
            0,
        );
        via_2.prev_hop = NodeId(2);
        dsdv.on_packet(&mut h.ctx(1.0), &via_2, false);
        // A stale advert through node 3 with an older sequence is ignored even
        // though it claims fewer hops.
        let mut via_3 = Packet::broadcast(
            NodeId(3),
            PacketKind::TopologyUpdate {
                entries: vec![(NodeId(5), 0, SeqNo(1))],
            },
            0,
        );
        via_3.prev_hop = NodeId(3);
        dsdv.on_packet(&mut h.ctx(1.1), &via_3, false);
        assert_eq!(
            dsdv.routing_table()
                .route(NodeId(5), SimTime::from_secs(1.2))
                .unwrap()
                .next_hop,
            NodeId(2)
        );
    }

    #[test]
    fn data_follows_table_or_is_dropped() {
        let mut dsdv = Dsdv::new();
        let mut h = Harness::new(1);
        let no_route = {
            let mut ctx = h.ctx(1.0);
            dsdv.originate(&mut ctx, Packet::data(NodeId(1), NodeId(9), 10));
            ctx.take_actions()
        };
        assert!(matches!(
            no_route[0],
            Action::Drop {
                reason: DropReason::NoRoute,
                ..
            }
        ));
        let mut update = Packet::broadcast(
            NodeId(4),
            PacketKind::TopologyUpdate {
                entries: vec![(NodeId(9), 1, SeqNo(2))],
            },
            0,
        );
        update.prev_hop = NodeId(4);
        dsdv.on_packet(&mut h.ctx(1.0), &update, false);
        let routed = {
            let mut ctx = h.ctx(1.5);
            dsdv.originate(&mut ctx, Packet::data(NodeId(1), NodeId(9), 10));
            ctx.take_actions()
        };
        assert!(matches!(&routed[0], Action::Transmit(p) if p.next_hop == Some(NodeId(4))));
        // Delivery at destination.
        let deliver = {
            let mut ctx = h.ctx(2.0);
            dsdv.on_packet(&mut ctx, &Packet::data(NodeId(7), NodeId(1), 10), false);
            ctx.take_actions()
        };
        assert!(matches!(deliver[0], Action::Deliver(_)));
    }

    #[test]
    fn neighbor_loss_invalidates_routes() {
        let mut dsdv = Dsdv::new();
        let mut h = Harness::new(1);
        let mut update = Packet::broadcast(
            NodeId(2),
            PacketKind::TopologyUpdate {
                entries: vec![(NodeId(5), 1, SeqNo(2))],
            },
            0,
        );
        update.prev_hop = NodeId(2);
        dsdv.on_packet(&mut h.ctx(1.0), &update, false);
        dsdv.on_neighbor_lost(&mut h.ctx(2.0), NodeId(2));
        assert!(dsdv
            .routing_table()
            .route(NodeId(5), SimTime::from_secs(2.0))
            .is_none());
    }

    #[test]
    fn identity() {
        let d = Dsdv::new();
        assert_eq!(d.name(), "DSDV");
        assert_eq!(d.category(), Category::Connectivity);
    }
}
