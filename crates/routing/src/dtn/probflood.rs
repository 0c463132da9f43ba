//! Probabilistic flood with carry: a gossip variant of pure flooding that
//! rebroadcasts with fixed probability once a packet is a few hops from its
//! source, and additionally buffers every packet it relays so fresh
//! contacts discovered later (after a partition heals) get another chance
//! to hear it — flooding's reach with a fraction of its channel load, plus
//! DTN-style carrying.

use super::{DropPolicy, DtnCore, DtnParams};
use crate::common::SeenCache;
use crate::protocol::{BundleOp, Category, DropReason, ProtocolContext, RoutingProtocol};
use std::collections::BTreeSet;
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SimDuration};

/// Within this many hops of the source every node rebroadcasts; beyond it
/// the rebroadcast is probabilistic.
const MIN_HOPS: u32 = 2;
/// Rebroadcast probability once past [`MIN_HOPS`].
const REBROADCAST_PROB: f64 = 0.65;

/// Probabilistic flood store-carry-forward routing (protocol 21).
///
/// Unlike the custody protocols this one never unicasts: every relay is a
/// link-layer broadcast, deduplicated at the receivers. The bundle buffer
/// serves purely as a carry store — when the neighbour table gains a node
/// not seen last tick, every buffered bundle is offered through the same
/// hop-gated coin flip.
#[derive(Debug)]
pub struct ProbFlood {
    core: DtnCore,
    seen: SeenCache,
    /// Neighbour set at the previous tick, for contact detection.
    known_neighbors: BTreeSet<NodeId>,
    /// Scratch for the current neighbour set.
    current_neighbors: BTreeSet<NodeId>,
}

impl ProbFlood {
    /// Creates a probabilistic-flood instance with the given scenario knobs.
    #[must_use]
    pub fn new(params: DtnParams) -> Self {
        ProbFlood {
            core: DtnCore::new(params, DropPolicy::DropLargestHopCount),
            // The dedup window must outlive any bundle TTL the scenarios
            // use, or a carried rebroadcast could loop back in.
            seen: SeenCache::new(600.0),
            known_neighbors: BTreeSet::new(),
            current_neighbors: BTreeSet::new(),
        }
    }

    /// Buffered bundles (test/diagnostic accessor).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.core.buffer.len()
    }

    /// The hop-gated coin flip: always rebroadcast near the source, with
    /// probability [`REBROADCAST_PROB`] after that.
    fn gate(hops: u32, ctx: &mut ProtocolContext<'_>) -> bool {
        hops < MIN_HOPS || ctx.rng.chance(REBROADCAST_PROB)
    }

    /// Whether the neighbour table contains a node not present last tick
    /// (swaps the tracked set as a side effect).
    fn fresh_contact(&mut self, ctx: &ProtocolContext<'_>) -> bool {
        self.current_neighbors.clear();
        for info in ctx.neighbors.iter() {
            self.current_neighbors.insert(info.id);
        }
        let fresh = self
            .current_neighbors
            .iter()
            .any(|id| !self.known_neighbors.contains(id));
        std::mem::swap(&mut self.known_neighbors, &mut self.current_neighbors);
        fresh
    }
}

impl Default for ProbFlood {
    fn default() -> Self {
        Self::new(DtnParams::default())
    }
}

impl RoutingProtocol for ProbFlood {
    fn name(&self) -> &'static str {
        "ProbFlood"
    }

    fn category(&self) -> Category {
        Category::Dtn
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(1.0))
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.seen
            .check_and_insert(packet.source, packet.id.value(), ctx.now);
        // Broadcast immediately (hop 0 always passes the gate) and keep a
        // copy to re-offer at future contacts.
        let mut copy = ctx.stamp(packet.clone());
        copy.next_hop = None;
        ctx.transmit(copy);
        self.core.store(ctx, packet, false, 0);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, _overheard: bool) {
        if packet.kind != PacketKind::Data {
            return;
        }
        if self
            .seen
            .check_and_insert(packet.source, packet.id.value(), ctx.now)
        {
            ctx.drop_packet(packet, DropReason::Duplicate);
            return;
        }
        if packet.destination == Some(ctx.node) {
            ctx.deliver(packet);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        if Self::gate(packet.hops, ctx) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, None));
            ctx.transmit(fwd);
        }
        // Carry regardless of the relay decision: a partition may heal.
        self.core.store(ctx, packet.clone(), false, 0);
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.core.expire(ctx);
        if !self.fresh_contact(ctx) {
            return;
        }
        // A node we had not seen before is in range: re-offer the carried
        // bundles through the same hop gate, drawing the coin flips in slot
        // order so the RNG stream is deterministic.
        let occupancy = self.core.buffer.len();
        for bundle in self.core.buffer.iter() {
            if bundle.packet.ttl_allows_forwarding() && Self::gate(bundle.packet.hops, ctx) {
                ctx.transmit(ctx.stamp(bundle.packet.forwarded_by(ctx.node, None)));
                ctx.bundle_event(BundleOp::Forwarded, occupancy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, ActionSink, NoLocationService};
    use vanet_mobility::{Vec2, VehicleKind, VehicleState};
    use vanet_net::NeighborTable;
    use vanet_sim::{PacketId, PacketIdAllocator, SimRng, SimTime};

    fn make_ctx_parts(
        node: u32,
    ) -> (
        VehicleState,
        NeighborTable,
        SimRng,
        PacketIdAllocator,
        ActionSink,
    ) {
        (
            VehicleState::stationary(NodeId(node), VehicleKind::Car, Vec2::ZERO),
            NeighborTable::new(),
            SimRng::new(1),
            PacketIdAllocator::new(),
            ActionSink::new(),
        )
    }

    macro_rules! ctx {
        ($node:expr, $state:expr, $nbrs:expr, $rng:expr, $ids:expr, $sink:expr) => {
            ProtocolContext {
                node: NodeId($node),
                now: SimTime::ZERO,
                state: &$state,
                neighbors: (&$nbrs).into(),
                range_m: 250.0,
                rsu_ids: &[],
                bus_ids: &[],
                location: &NoLocationService,
                rng: &mut $rng,
                packet_ids: &mut $ids,
                actions: &mut $sink,
            }
        };
    }

    fn data_packet(id: u64, src: u32, dst: u32) -> Packet {
        let mut p = Packet::data(NodeId(src), NodeId(dst), 100);
        p.id = PacketId(id);
        p
    }

    #[test]
    fn near_source_packets_always_rebroadcast_and_are_carried() {
        let mut proto = ProbFlood::default();
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(2);
        let pkt = data_packet(1, 0, 9).forwarded_by(NodeId(0), None); // hops = 1 < MIN_HOPS
        let actions = {
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &pkt, false);
            ctx.take_actions()
        };
        assert!(actions.iter().any(|a| matches!(a, Action::Transmit(_))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Stored,
                ..
            }
        )));
        assert_eq!(proto.buffered(), 1);
    }

    #[test]
    fn far_packets_rebroadcast_probabilistically() {
        // Over many far packets, some must be relayed and some must not:
        // the 0.65 gate is a real coin flip, driven by the context RNG.
        let mut relayed = 0;
        let mut suppressed = 0;
        let mut proto = ProbFlood::default();
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(2);
        for id in 0..200 {
            let mut pkt = data_packet(id, 0, 9);
            pkt.hops = 5;
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &pkt, false);
            if ctx
                .take_actions()
                .iter()
                .any(|a| matches!(a, Action::Transmit(_)))
            {
                relayed += 1;
            } else {
                suppressed += 1;
            }
        }
        assert!(relayed > 80, "gate passes roughly 65%: {relayed}");
        assert!(suppressed > 30, "gate suppresses roughly 35%: {suppressed}");
    }

    #[test]
    fn duplicates_are_dropped_and_destination_delivers() {
        let mut proto = ProbFlood::default();
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(9);
        let pkt = data_packet(1, 0, 9).forwarded_by(NodeId(0), None);
        let first = {
            let mut ctx = ctx!(9, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &pkt, false);
            ctx.take_actions()
        };
        assert!(first.iter().any(|a| matches!(a, Action::Deliver(_))));
        let second = {
            let mut ctx = ctx!(9, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &pkt, false);
            ctx.take_actions()
        };
        assert!(second.iter().any(|a| matches!(
            a,
            Action::Drop {
                reason: DropReason::Duplicate,
                ..
            }
        )));
    }

    #[test]
    fn fresh_contact_triggers_carried_rebroadcast() {
        let mut proto = ProbFlood::default();
        let (state, mut nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(2);
        // Carry a near-source bundle (hops < MIN_HOPS: the contact
        // rebroadcast is then deterministic).
        let pkt = data_packet(1, 0, 9).forwarded_by(NodeId(0), None);
        {
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &pkt, false);
            ctx.take_actions();
        }
        // No neighbours yet: a tick does nothing.
        let silent = {
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(silent.is_empty());
        // A new neighbour appears: the carried bundle is re-offered.
        nbrs.observe(
            NodeId(7),
            Vec2::new(10.0, 0.0),
            Vec2::ZERO,
            SimTime::ZERO,
            SimDuration::from_secs(10.0),
        );
        let actions = {
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(actions.iter().any(|a| matches!(a, Action::Transmit(_))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Bundle {
                op: BundleOp::Forwarded,
                ..
            }
        )));
        // The same neighbour next tick is not a fresh contact.
        let again = {
            let mut ctx = ctx!(2, state, nbrs, rng, ids, sink);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(again.is_empty());
    }

    #[test]
    fn name_category_and_beacons() {
        let proto = ProbFlood::default();
        assert_eq!(proto.name(), "ProbFlood");
        assert_eq!(proto.category(), Category::Dtn);
        assert_eq!(proto.beacon_interval(), Some(SimDuration::from_secs(1.0)));
    }
}
