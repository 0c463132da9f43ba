//! Binary Spray-and-Wait (Spyropoulos, Psounis & Raghavendra): the
//! originator budgets `L` copy tickets per bundle; every hand-over gives
//! half of the remaining tickets away. A node holding a single ticket is in
//! the *wait* phase and transfers only to the destination itself — bounding
//! epidemic's replication at `L` copies while keeping its multi-path reach.

use super::{summary_contains, DropPolicy, DtnCore, DtnParams};
use crate::protocol::{BundleOp, Category, ProtocolContext, RoutingProtocol};
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SimDuration};

/// Spray-and-Wait store-carry-forward routing (protocol 20).
///
/// Copy tickets travel in [`Packet::copies`]; the summary-vector exchange
/// is the same anti-entropy handshake as [`super::Epidemic`]'s, but a
/// bundle is offered only while it has tickets to split (or directly to
/// its destination).
#[derive(Debug)]
pub struct SprayAndWait {
    core: DtnCore,
    /// Initial ticket budget `L` for originated bundles.
    initial_copies: u32,
}

impl SprayAndWait {
    /// Creates a spray-and-wait instance with the given scenario knobs.
    #[must_use]
    pub fn new(params: DtnParams) -> Self {
        SprayAndWait {
            core: DtnCore::new(params, DropPolicy::DropOldest),
            initial_copies: params.copies.max(1),
        }
    }

    /// Buffered bundles (test/diagnostic accessor).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.core.buffer.len()
    }

    /// Remaining copy tickets for the bundle keyed `(origin, id)`, if held.
    #[must_use]
    pub fn tickets(&self, origin: NodeId, id: u64) -> Option<u32> {
        self.core
            .buffer
            .get(super::BundleKey { origin, id })
            .map(|bundle| bundle.copies)
    }

    /// Answers a peer's summary vector: direct delivery to the destination
    /// regardless of tickets, binary ticket splitting otherwise.
    fn answer_summary(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        from: NodeId,
        have: &[(NodeId, u64)],
    ) {
        let occupancy = self.core.buffer.len();
        for bundle in self.core.buffer.iter_mut() {
            if summary_contains(have, bundle.key()) {
                continue;
            }
            if !bundle.packet.ttl_allows_forwarding() {
                continue;
            }
            let give = if bundle.packet.destination == Some(from) {
                // Direct transmission: delivery never costs a ticket.
                1
            } else if bundle.copies > 1 {
                // Spray phase: hand over half of the remaining tickets.
                let give = bundle.copies / 2;
                bundle.copies -= give;
                give
            } else {
                // Wait phase (copies == 1): hold for the destination.
                continue;
            };
            let mut copy = bundle.packet.forwarded_by(ctx.node, Some(from));
            copy.copies = give;
            ctx.transmit(ctx.stamp(copy));
            ctx.bundle_event(BundleOp::Forwarded, occupancy);
        }
    }
}

impl Default for SprayAndWait {
    fn default() -> Self {
        Self::new(DtnParams::default())
    }
}

impl RoutingProtocol for SprayAndWait {
    fn name(&self) -> &'static str {
        "SprayWait"
    }

    fn category(&self) -> Category {
        Category::Dtn
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(1.0))
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        let copies = self.initial_copies;
        self.core.store(ctx, packet, true, copies);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        if overheard {
            return;
        }
        match &packet.kind {
            PacketKind::Data => {
                // The tickets granted by the sender arrive on the packet.
                self.core.receive_data(ctx, packet, packet.copies.max(1));
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

    fn empty_sv(from: u32, id: u64) -> Packet {
        let mut sv = Packet::broadcast(
            NodeId(from),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![],
            },
            0,
        );
        sv.id = PacketId(id);
        sv
    }

    #[test]
    fn binary_splitting_halves_tickets_until_wait_phase() {
        let mut proto = SprayAndWait::default(); // L = 8
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(0);
        {
            let mut ctx = ctx!(0, state, nbrs, rng, ids, sink);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        assert_eq!(proto.tickets(NodeId(0), 1), Some(8));
        // Three relays in sequence: 8 → 4 → 2 → 1.
        for (peer, expect_give, expect_keep) in [(5, 4, 4), (6, 2, 2), (7, 1, 1)] {
            let actions = {
                let mut ctx = ctx!(0, state, nbrs, rng, ids, sink);
                proto.on_packet(&mut ctx, &empty_sv(peer, 50 + u64::from(peer)), false);
                ctx.take_actions()
            };
            let fwd = actions
                .iter()
                .find_map(|a| match a {
                    Action::Transmit(p) => Some(p),
                    _ => None,
                })
                .expect("spray-phase transfer");
            assert_eq!(fwd.copies, expect_give);
            assert_eq!(fwd.next_hop, Some(NodeId(peer)));
            assert_eq!(proto.tickets(NodeId(0), 1), Some(expect_keep));
        }
        // Wait phase: a further relay contact gets nothing.
        let none = {
            let mut ctx = ctx!(0, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &empty_sv(8, 60), false);
            ctx.take_actions()
        };
        assert!(none.iter().all(|a| !matches!(a, Action::Transmit(_))));
    }

    #[test]
    fn wait_phase_still_delivers_directly_to_the_destination() {
        let mut proto = SprayAndWait::default();
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(4);
        // Receive a wait-phase copy (1 ticket).
        let mut incoming = data_packet(3, 0, 9).forwarded_by(NodeId(0), Some(NodeId(4)));
        incoming.copies = 1;
        {
            let mut ctx = ctx!(4, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &incoming, false);
            ctx.take_actions();
        }
        assert_eq!(proto.tickets(NodeId(0), 3), Some(1));
        // A relay's summary vector gets nothing...
        let none = {
            let mut ctx = ctx!(4, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &empty_sv(6, 61), false);
            ctx.take_actions()
        };
        assert!(none.iter().all(|a| !matches!(a, Action::Transmit(_))));
        // ...but the destination's summary vector gets the bundle.
        let actions = {
            let mut ctx = ctx!(4, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &empty_sv(9, 62), false);
            ctx.take_actions()
        };
        let fwd = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .expect("direct delivery to destination");
        assert_eq!(fwd.next_hop, Some(NodeId(9)));
    }

    #[test]
    fn received_tickets_arrive_on_the_packet() {
        let mut proto = SprayAndWait::default();
        let (state, nbrs, mut rng, mut ids, mut sink) = make_ctx_parts(4);
        let mut incoming = data_packet(3, 0, 9).forwarded_by(NodeId(0), Some(NodeId(4)));
        incoming.copies = 4;
        {
            let mut ctx = ctx!(4, state, nbrs, rng, ids, sink);
            proto.on_packet(&mut ctx, &incoming, false);
            ctx.take_actions();
        }
        assert_eq!(proto.tickets(NodeId(0), 3), Some(4));
    }

    #[test]
    fn name_category_and_beacons() {
        let proto = SprayAndWait::default();
        assert_eq!(proto.name(), "SprayWait");
        assert_eq!(proto.category(), Category::Dtn);
        assert_eq!(proto.beacon_interval(), Some(SimDuration::from_secs(1.0)));
    }
}
