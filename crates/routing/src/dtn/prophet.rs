//! PRoPHET: Probabilistic Routing Protocol using History of Encounters and
//! Transitivity (Lindgren, Doria & Schelén). Each node maintains a delivery
//! predictability `P(self, d)` per destination, grown on encounter, aged
//! over time and propagated transitively — bundles are handed only to peers
//! with a better predictability for their destination, trading epidemic's
//! blanket replication for directed copies.

use super::{summary_contains, DropPolicy, DtnCore, DtnParams};
use crate::protocol::{BundleOp, Category, ProtocolContext, RoutingProtocol};
use std::collections::{BTreeMap, BTreeSet};
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SimTime};

/// Predictability gained on a direct encounter.
const P_INIT: f64 = 0.75;
/// Per-second aging factor applied to every predictability.
const GAMMA: f64 = 0.98;
/// Transitivity damping: how much of a peer's predictability carries over.
const BETA: f64 = 0.25;
/// Entries below this are pruned (fully aged out).
const MIN_PREDICTABILITY: f64 = 1e-3;

/// PRoPHET store-carry-forward routing (protocol 19).
///
/// Summary vectors piggyback the sender's predictability table, so one
/// broadcast serves both anti-entropy and metric exchange. All state lives
/// in `BTreeMap`s keyed by [`NodeId`] and all forwarding decisions are plain
/// `>` comparisons on finite predictabilities (every update keeps them in
/// `[0, 1]`), so iteration order and outcomes are deterministic.
#[derive(Debug)]
pub struct Prophet {
    core: DtnCore,
    /// Delivery predictabilities `P(self, d)`.
    preds: BTreeMap<NodeId, f64>,
    /// When `preds` was last aged.
    last_aged: SimTime,
    /// Neighbour set at the previous tick, for encounter detection.
    known_neighbors: BTreeSet<NodeId>,
    /// Scratch for the current neighbour set (swapped with
    /// `known_neighbors` each tick).
    current_neighbors: BTreeSet<NodeId>,
}

impl Prophet {
    /// Creates a PRoPHET instance with the given scenario knobs.
    #[must_use]
    pub fn new(params: DtnParams) -> Self {
        Prophet {
            core: DtnCore::new(params, DropPolicy::NoCustodyFirst),
            preds: BTreeMap::new(),
            last_aged: SimTime::ZERO,
            known_neighbors: BTreeSet::new(),
            current_neighbors: BTreeSet::new(),
        }
    }

    /// Buffered bundles (test/diagnostic accessor).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.core.buffer.len()
    }

    /// This node's delivery predictability for `destination`.
    #[must_use]
    fn predictability(&self, destination: NodeId) -> f64 {
        self.preds.get(&destination).copied().unwrap_or(0.0)
    }

    /// Ages every predictability by `GAMMA^elapsed_seconds` and prunes the
    /// fully aged-out entries.
    fn age_predictabilities(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_aged).as_secs();
        self.last_aged = now;
        if elapsed <= 0.0 || self.preds.is_empty() {
            return;
        }
        let factor = GAMMA.powf(elapsed);
        for p in self.preds.values_mut() {
            *p *= factor;
        }
        self.preds.retain(|_, p| *p >= MIN_PREDICTABILITY);
    }

    /// Detects new encounters by diffing the neighbour table against the
    /// previous tick's, and applies the direct-encounter update
    /// `P(b) += (1 - P(b)) * P_INIT` for each.
    fn update_encounters(&mut self, ctx: &ProtocolContext<'_>) {
        self.current_neighbors.clear();
        for info in ctx.neighbors.iter() {
            self.current_neighbors.insert(info.id);
        }
        for &id in &self.current_neighbors {
            if !self.known_neighbors.contains(&id) {
                let p = self.preds.entry(id).or_insert(0.0);
                *p += (1.0 - *p) * P_INIT;
            }
        }
        std::mem::swap(&mut self.known_neighbors, &mut self.current_neighbors);
    }

    /// Applies the transitive update from `from`'s predictability table and
    /// forwards every bundle `from` is a strictly better carrier for.
    fn handle_summary(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        from: NodeId,
        have: &[(NodeId, u64)],
        peer_preds: &[(NodeId, f64)],
    ) {
        // Transitive update: P(c) = max(P(c), P(from) * P_from(c) * BETA).
        let p_from = self.predictability(from);
        for &(c, p_fc) in peer_preds {
            if c == ctx.node {
                continue;
            }
            let transitive = p_from * p_fc * BETA;
            if transitive >= MIN_PREDICTABILITY {
                let p = self.preds.entry(c).or_insert(0.0);
                if transitive > *p {
                    *p = transitive;
                }
            }
        }
        // Forward bundles the peer lacks and is a better carrier for. The
        // peer's predictability for a destination comes from the same
        // (sorted) piggybacked table.
        let occupancy = self.core.buffer.len();
        for bundle in self.core.buffer.iter() {
            if summary_contains(have, bundle.key()) {
                continue;
            }
            if !bundle.packet.ttl_allows_forwarding() {
                continue;
            }
            let Some(destination) = bundle.packet.destination else {
                continue;
            };
            let peer_p = peer_preds
                .binary_search_by(|(c, _)| c.cmp(&destination))
                .map(|at| peer_preds[at].1)
                .unwrap_or(0.0);
            let own_p = self.predictability(destination);
            if destination == from || peer_p > own_p {
                ctx.transmit(ctx.stamp(bundle.packet.forwarded_by(ctx.node, Some(from))));
                ctx.bundle_event(BundleOp::Forwarded, occupancy);
            }
        }
    }

    /// The predictability table in the sorted `(destination, P)` form the
    /// summary vector carries.
    fn exported_preds(&self) -> Vec<(NodeId, f64)> {
        self.preds.iter().map(|(&c, &p)| (c, p)).collect()
    }
}

impl Default for Prophet {
    fn default() -> Self {
        Self::new(DtnParams::default())
    }
}

impl RoutingProtocol for Prophet {
    fn name(&self) -> &'static str {
        "PRoPHET"
    }

    fn category(&self) -> Category {
        Category::Dtn
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
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
            PacketKind::SummaryVector {
                have,
                predictabilities,
            } => {
                self.handle_summary(ctx, packet.source, have, predictabilities);
            }
            PacketKind::CustodyAck { origin, bundle_id } => {
                self.core
                    .handle_custody_ack(ctx, packet.source, *origin, *bundle_id);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.age_predictabilities(ctx.now);
        self.update_encounters(ctx);
        self.core.expire(ctx);
        if !ctx.neighbors.is_empty() {
            let preds = self.exported_preds();
            self.core.broadcast_summary(ctx, preds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Action;
    use crate::testkit::Harness;
    use vanet_sim::PacketId;

    fn data_packet(id: u64, src: u32, dst: u32) -> Packet {
        let mut p = Packet::data(NodeId(src), NodeId(dst), 100);
        p.id = PacketId(id);
        p
    }

    #[test]
    fn encounters_grow_predictability_and_aging_shrinks_it() {
        let mut proto = Prophet::default();
        let mut h = Harness::new(0);
        h.add_neighbor(5, 10.0, 0.0);
        {
            let mut ctx = h.ctx(0.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions();
        }
        let after_meet = proto.predictability(NodeId(5));
        assert!((after_meet - P_INIT).abs() < 1e-12);
        // Still in contact next tick: no re-encounter bump, just aging.
        {
            let mut ctx = h.ctx(10.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions();
        }
        let aged = proto.predictability(NodeId(5));
        assert!(aged < after_meet, "aging must shrink predictability");
        assert!((aged - after_meet * GAMMA.powf(10.0)).abs() < 1e-12);
    }

    #[test]
    fn transitive_update_learns_through_a_relay() {
        let mut proto = Prophet::default();
        let mut h = Harness::new(0);
        h.add_neighbor(5, 10.0, 0.0);
        {
            let mut ctx = h.ctx(0.0);
            proto.on_tick(&mut ctx); // meet node 5: P(5) = 0.75
            ctx.take_actions();
        }
        // Node 5 reports a strong predictability for node 9.
        let mut sv = Packet::broadcast(
            NodeId(5),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![(NodeId(9), 0.8)],
            },
            0,
        );
        sv.id = PacketId(50);
        {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &sv, false);
            ctx.take_actions();
        }
        let p9 = proto.predictability(NodeId(9));
        assert!((p9 - 0.75 * 0.8 * BETA).abs() < 1e-12);
    }

    #[test]
    fn forwards_only_to_better_carriers() {
        let mut proto = Prophet::default();
        let mut h = Harness::new(0);
        {
            let mut ctx = h.ctx(0.0);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        // Peer 5 has no predictability for destination 9: no transfer.
        let mut weak = Packet::broadcast(
            NodeId(5),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![],
            },
            0,
        );
        weak.id = PacketId(50);
        let none = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &weak, false);
            ctx.take_actions()
        };
        assert!(
            none.iter().all(|a| !matches!(a, Action::Transmit(_))),
            "no better carrier, no transfer"
        );
        // Peer 6 is a strictly better carrier for 9: the bundle moves.
        let mut strong = Packet::broadcast(
            NodeId(6),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![(NodeId(9), 0.9)],
            },
            0,
        );
        strong.id = PacketId(51);
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &strong, false);
            ctx.take_actions()
        };
        let fwd = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .expect("bundle forwarded to the better carrier");
        assert_eq!(fwd.next_hop, Some(NodeId(6)));
    }

    #[test]
    fn destination_contact_always_receives_the_bundle() {
        let mut proto = Prophet::default();
        let mut h = Harness::new(0);
        {
            let mut ctx = h.ctx(0.0);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        // The destination itself advertises; even with zero predictability
        // entries the bundle must be handed over.
        let mut sv = Packet::broadcast(
            NodeId(9),
            PacketKind::SummaryVector {
                have: vec![],
                predictabilities: vec![],
            },
            0,
        );
        sv.id = PacketId(52);
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &sv, false);
            ctx.take_actions()
        };
        let fwd = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .expect("bundle handed to its destination");
        assert_eq!(fwd.next_hop, Some(NodeId(9)));
    }

    #[test]
    fn summary_vector_piggybacks_sorted_predictabilities() {
        let mut proto = Prophet::default();
        let mut h = Harness::new(0);
        h.add_neighbor(7, 10.0, 0.0);
        h.add_neighbor(3, 10.0, 0.0);
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
        match &sv.kind {
            PacketKind::SummaryVector {
                predictabilities, ..
            } => {
                let ids: Vec<NodeId> = predictabilities.iter().map(|&(c, _)| c).collect();
                assert_eq!(ids, vec![NodeId(3), NodeId(7)], "sorted by destination");
            }
            other => panic!("expected summary vector, got {other:?}"),
        }
    }

    #[test]
    fn name_category_and_beacons() {
        let proto = Prophet::default();
        assert_eq!(proto.name(), "PRoPHET");
        assert_eq!(proto.category(), Category::Dtn);
    }
}
