//! Epidemic routing: summary-vector anti-entropy on neighbour contact
//! (Vahdat & Becker). Every pair of nodes in contact exchanges the bundles
//! the other lacks, so data spreads like an infection and delivery is
//! maximised at the cost of buffer and channel occupancy — the DTN
//! baseline the smarter protocols are measured against.

use super::{summary_contains, DropPolicy, DtnCore, DtnParams};
use crate::protocol::{BundleOp, Category, ProtocolContext, RoutingProtocol};
use vanet_net::{Packet, PacketKind};
use vanet_sim::NodeId;

/// Epidemic store-carry-forward routing (protocol 18).
///
/// Once per maintenance tick, a node with neighbours broadcasts its summary
/// vector (the sorted keys of bundles it holds or knows delivered). A peer
/// receiving the vector answers by unicasting every bundle the sender
/// lacks; the receiver takes custody and acks, releasing the sender's
/// custody flag so its copy is first in line for `NoCustodyFirst` eviction.
#[derive(Debug)]
pub struct Epidemic {
    core: DtnCore,
}

impl Epidemic {
    /// Creates an epidemic instance with the given scenario knobs.
    #[must_use]
    pub fn new(params: DtnParams) -> Self {
        Epidemic {
            core: DtnCore::new(params, DropPolicy::NoCustodyFirst),
        }
    }

    /// Buffered bundles (test/diagnostic accessor).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.core.buffer.len()
    }

    /// Unicasts every bundle `from`'s summary vector lacks back to `from`.
    fn answer_summary(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        from: NodeId,
        have: &[(NodeId, u64)],
    ) {
        let occupancy = self.core.buffer.len();
        for bundle in self.core.buffer.iter() {
            if summary_contains(have, bundle.key()) {
                continue;
            }
            if !bundle.packet.ttl_allows_forwarding() {
                continue;
            }
            ctx.transmit(ctx.stamp(bundle.packet.forwarded_by(ctx.node, Some(from))));
            ctx.bundle_event(BundleOp::Forwarded, occupancy);
        }
    }
}

impl Default for Epidemic {
    fn default() -> Self {
        Self::new(DtnParams::default())
    }
}

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &'static str {
        "Epidemic"
    }

    fn category(&self) -> Category {
        Category::Dtn
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        // Store-and-carry: the bundle waits in the buffer until the next
        // summary-vector exchange offers it to a contact.
        self.core.store(ctx, packet, true, 0);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        if overheard {
            return;
        }
        match &packet.kind {
            PacketKind::Data => {
                self.core.receive_data(ctx, packet, 0);
            }
            PacketKind::SummaryVector { have, .. } => {
                self.answer_summary(ctx, packet.source, have);
            }
            PacketKind::CustodyAck { origin, bundle_id } => {
                self.core
                    .handle_custody_ack(ctx, packet.source, *origin, *bundle_id);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.core.expire(ctx);
        if !ctx.neighbors.is_empty() {
            self.core.broadcast_summary(ctx, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, DropReason};
    use crate::testkit::Harness;
    use vanet_sim::PacketId;

    fn data_packet(id: u64, src: u32, dst: u32) -> Packet {
        let mut p = Packet::data(NodeId(src), NodeId(dst), 100);
        p.id = PacketId(id);
        p
    }

    #[test]
    fn originate_stores_instead_of_transmitting() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(0);
        let mut ctx = h.ctx(0.0);
        proto.originate(&mut ctx, data_packet(1, 0, 9));
        let actions = ctx.take_actions();
        assert!(actions.iter().all(|a| !matches!(a, Action::Transmit(_))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Stored,
                occupancy: 1
            }
        )));
        assert_eq!(proto.buffered(), 1);
    }

    #[test]
    fn summary_vector_triggers_transfer_of_missing_bundles() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(0);
        {
            let mut ctx = h.ctx(0.0);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        // Peer 5 advertises an empty vector: it lacks our bundle.
        let mut sv = Packet::broadcast(
            NodeId(5),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![],
            },
            0,
        );
        sv.id = PacketId(50);
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &sv, false);
            ctx.take_actions()
        };
        let transmitted: Vec<&Packet> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(transmitted.len(), 1);
        assert_eq!(transmitted[0].next_hop, Some(NodeId(5)));
        assert_eq!(transmitted[0].kind, PacketKind::Data);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Forwarded,
                ..
            }
        )));
        // A peer that already has the bundle gets nothing.
        let mut sv_full = sv.clone();
        sv_full.kind = PacketKind::SummaryVector {
            have: vec![(NodeId(0), 1)],
            predictabilities: vec![],
        };
        let none = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &sv_full, false);
            ctx.take_actions()
        };
        assert!(none.is_empty());
    }

    #[test]
    fn receiver_takes_custody_and_acks_then_destination_ack_retires_the_bundle() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(4);
        let incoming = data_packet(7, 0, 9).forwarded_by(NodeId(0), Some(NodeId(4)));
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &incoming, false);
            ctx.take_actions()
        };
        assert_eq!(proto.buffered(), 1);
        let ack = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .expect("custody ack transmitted");
        assert!(matches!(ack.kind, PacketKind::CustodyAck { .. }));
        assert_eq!(
            ack.next_hop,
            Some(NodeId(0)),
            "ack goes to the previous hop"
        );

        // A custody ack from the *destination* retires the bundle entirely.
        let mut dest_ack = Packet::broadcast(
            NodeId(9),
            PacketKind::CustodyAck {
                origin: NodeId(0),
                bundle_id: 7,
            },
            0,
        );
        dest_ack.id = PacketId(90);
        dest_ack.next_hop = Some(NodeId(4));
        let retire = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &dest_ack, false);
            ctx.take_actions()
        };
        assert!(retire.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Custody,
                ..
            }
        )));
        assert_eq!(proto.buffered(), 0);
    }

    #[test]
    fn delivery_at_destination_is_deduplicated() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(9);
        let incoming = data_packet(3, 0, 9).forwarded_by(NodeId(2), Some(NodeId(9)));
        let first = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &incoming, false);
            ctx.take_actions()
        };
        assert!(first.iter().any(|a| matches!(a, Action::Deliver(_))));
        let second = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &incoming, false);
            ctx.take_actions()
        };
        assert!(second.iter().all(|a| !matches!(a, Action::Deliver(_))));
        assert!(second.iter().any(|a| matches!(
            a,
            Action::Drop {
                reason: DropReason::Duplicate,
                ..
            }
        )));
    }

    #[test]
    fn expired_bundles_are_discarded_on_tick() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(0);
        {
            let mut ctx = h.ctx(0.0);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        let actions = {
            let mut ctx = h.ctx(31.0); // default TTL is 30 s
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Expired,
                occupancy: 0
            }
        )));
        assert_eq!(proto.buffered(), 0);
    }

    #[test]
    fn ticks_broadcast_summary_only_with_neighbors() {
        let mut proto = Epidemic::default();
        let mut h = Harness::new(0);
        let silent = {
            let mut ctx = h.ctx(0.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(silent.is_empty(), "no neighbours, no summary");
        h.add_neighbor(5, 10.0, 0.0);
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        let sv = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .expect("summary vector broadcast");
        assert!(matches!(sv.kind, PacketKind::SummaryVector { .. }));
        assert!(sv.is_link_broadcast());
    }

    #[test]
    fn name_category_and_beacons() {
        let proto = Epidemic::default();
        assert_eq!(proto.name(), "Epidemic");
        assert_eq!(proto.category(), Category::Dtn);
    }
}
