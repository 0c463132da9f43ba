//! Connectivity-based routing: pure flooding and Biswas-style flooding with
//! implicit acknowledgements (Sec. III).

use crate::common::{flood_originate, flood_receive, SeenCache, FLOOD_SEEN_HORIZON_S};
use crate::protocol::{Category, ProtocolContext, RoutingProtocol};
use std::collections::BTreeMap;
use vanet_net::Packet;
use vanet_sim::{PacketId, SimDuration, SimTime};

/// How long Biswas waits for an implicit acknowledgement before it
/// rebroadcasts, seconds.
const RETRY_INTERVAL_S: f64 = 1.0;
/// How many times Biswas rebroadcasts an unacknowledged packet.
const MAX_RETRIES: u8 = 3;

/// Pure flooding: every node rebroadcasts every packet it has not seen before
/// until the destination is reached (or every node holds a copy).
///
/// Simple and — in low-density, fast-changing topologies — surprisingly
/// reliable, but it floods the channel: the broadcast-storm behaviour measured
/// in the Fig. 2 / Table I experiments.
#[derive(Debug)]
pub struct Flooding {
    seen: SeenCache,
}

impl Flooding {
    /// Creates a flooding protocol instance.
    #[must_use]
    pub fn new() -> Self {
        Flooding {
            seen: SeenCache::new(FLOOD_SEEN_HORIZON_S),
        }
    }
}

impl Default for Flooding {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Flooding {
    fn name(&self) -> &'static str {
        "Flooding"
    }

    fn category(&self) -> Category {
        Category::Connectivity
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        None
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        let copy = flood_originate(&mut self.seen, ctx, packet);
        ctx.transmit(copy);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, _overheard: bool) {
        if flood_receive(&mut self.seen, ctx, packet) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, None));
            ctx.transmit(fwd);
        }
    }

    fn on_tick(&mut self, _ctx: &mut ProtocolContext<'_>) {}
}

/// Biswas-style flooding with implicit acknowledgements: after rebroadcasting
/// a packet the vehicle listens for the same packet from a vehicle *behind*
/// it; hearing it counts as an acknowledgement that the flood is progressing.
/// If no acknowledgement is overheard the packet is rebroadcast periodically,
/// up to a retry limit.
#[derive(Debug)]
pub struct Biswas {
    seen: SeenCache,
    /// Packets awaiting implicit acknowledgement: id → (packet, deadline, retries left).
    awaiting_ack: BTreeMap<PacketId, (Packet, SimTime, u8)>,
}

impl Biswas {
    /// Creates a Biswas flooding instance (1 s retry interval, 3 retries).
    #[must_use]
    pub fn new() -> Self {
        Biswas {
            seen: SeenCache::new(FLOOD_SEEN_HORIZON_S),
            awaiting_ack: BTreeMap::new(),
        }
    }

    /// Number of packets currently awaiting an implicit acknowledgement.
    #[cfg(test)]
    #[must_use]
    fn pending_acks(&self) -> usize {
        self.awaiting_ack.len()
    }

    /// Transmits `copy` and awaits its implicit acknowledgement.
    fn transmit_and_track(&mut self, ctx: &mut ProtocolContext<'_>, copy: Packet) {
        let deadline = ctx.now + SimDuration::from_secs(RETRY_INTERVAL_S);
        self.awaiting_ack
            .insert(copy.id, (copy.clone(), deadline, MAX_RETRIES));
        ctx.transmit(copy);
    }
}

impl Default for Biswas {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Biswas {
    fn name(&self) -> &'static str {
        "Biswas"
    }

    fn category(&self) -> Category {
        Category::Connectivity
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        None
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        let copy = flood_originate(&mut self.seen, ctx, packet);
        self.transmit_and_track(ctx, copy);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, _overheard: bool) {
        // Hearing any copy of a packet we are tracking counts as the implicit
        // acknowledgement that somebody downstream got it.
        if packet.prev_hop != ctx.node {
            self.awaiting_ack.remove(&packet.id);
        }
        if flood_receive(&mut self.seen, ctx, packet) {
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, None));
            self.transmit_and_track(ctx, fwd);
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        let now = ctx.now;
        let retry_interval = SimDuration::from_secs(RETRY_INTERVAL_S);
        let mut to_retry = Vec::new();
        let mut to_drop = Vec::new();
        for (id, (packet, deadline, retries)) in &mut self.awaiting_ack {
            if *deadline <= now {
                if *retries == 0 {
                    to_drop.push(*id);
                } else {
                    *retries -= 1;
                    *deadline = now + retry_interval;
                    to_retry.push(packet.clone());
                }
            }
        }
        for id in to_drop {
            self.awaiting_ack.remove(&id);
        }
        for packet in to_retry {
            let stamped = ctx.stamp(packet);
            ctx.transmit(stamped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, DropReason};
    use crate::testkit::Harness;
    use vanet_net::PacketKind;
    use vanet_sim::NodeId;

    fn data_packet(id: u64, src: u32, dst: u32) -> Packet {
        let mut p = Packet::data(NodeId(src), NodeId(dst), 100);
        p.id = PacketId(id);
        p
    }

    #[test]
    fn flooding_rebroadcasts_new_packets_once() {
        let mut proto = Flooding::new();
        let mut h = Harness::new(2);
        let mut ctx = h.ctx(0.0);
        let pkt = data_packet(1, 0, 9);
        proto.on_packet(&mut ctx, &pkt, false);
        let first = ctx.take_actions();
        assert!(matches!(first[0], Action::Transmit(_)));
        proto.on_packet(&mut ctx, &pkt, false);
        let second = ctx.take_actions();
        assert!(matches!(
            second[0],
            Action::Drop {
                reason: DropReason::Duplicate,
                ..
            }
        ));
    }

    #[test]
    fn flooding_delivers_at_destination() {
        let mut proto = Flooding::new();
        let mut h = Harness::new(9);
        let mut ctx = h.ctx(0.0);
        proto.on_packet(&mut ctx, &data_packet(1, 0, 9), false);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Deliver(_)));
    }

    #[test]
    fn flooding_respects_ttl() {
        let mut proto = Flooding::new();
        let mut h = Harness::new(2);
        let mut ctx = h.ctx(0.0);
        let mut pkt = data_packet(1, 0, 9);
        pkt.ttl = 0;
        proto.on_packet(&mut ctx, &pkt, false);
        let actions = ctx.take_actions();
        assert!(matches!(
            actions[0],
            Action::Drop {
                reason: DropReason::TtlExpired,
                ..
            }
        ));
    }

    #[test]
    fn flooding_originate_broadcasts() {
        let mut proto = Flooding::new();
        let mut h = Harness::new(0);
        let mut ctx = h.ctx(0.0);
        proto.originate(&mut ctx, data_packet(1, 0, 9));
        let actions = ctx.take_actions();
        match &actions[0] {
            Action::Transmit(p) => {
                assert!(p.is_link_broadcast());
                assert_eq!(p.kind, PacketKind::Data);
            }
            other => panic!("expected transmit, got {other:?}"),
        }
    }

    #[test]
    fn biswas_retries_until_ack_overheard() {
        let mut proto = Biswas::new();
        let mut h = Harness::new(2);
        let pkt = data_packet(1, 0, 9);
        let actions = {
            let mut ctx = h.ctx(0.0);
            proto.on_packet(&mut ctx, &pkt, false);
            ctx.take_actions()
        };
        assert!(matches!(actions[0], Action::Transmit(_)));
        assert_eq!(proto.pending_acks(), 1);

        // Tick before the deadline: nothing happens.
        let none = {
            let mut ctx = h.ctx(0.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(none.is_empty());

        // Tick after the deadline: the packet is retransmitted.
        let retries = {
            let mut later = h.ctx(2.0);
            proto.on_tick(&mut later);
            later.take_actions()
        };
        assert_eq!(retries.len(), 1);
        assert!(matches!(retries[0], Action::Transmit(_)));

        // Overhearing a copy from another node clears the pending entry.
        let mut overheard_copy = pkt.forwarded_by(NodeId(3), None);
        overheard_copy.id = actions
            .iter()
            .find_map(|a| match a {
                Action::Transmit(p) => Some(p.id),
                _ => None,
            })
            .unwrap();
        let mut again = h.ctx(2.5);
        proto.on_packet(&mut again, &overheard_copy, true);
        assert_eq!(proto.pending_acks(), 0);
    }

    #[test]
    fn biswas_gives_up_after_max_retries() {
        let mut proto = Biswas::new();
        let mut h = Harness::new(0);
        {
            let mut ctx = h.ctx(0.0);
            proto.originate(&mut ctx, data_packet(1, 0, 9));
            ctx.take_actions();
        }
        assert_eq!(proto.pending_acks(), 1);
        let mut transmissions = 0;
        for i in 1..12 {
            let mut ctx = h.ctx(i as f64 * 1.5);
            proto.on_tick(&mut ctx);
            transmissions += ctx.take_actions().len();
        }
        assert_eq!(transmissions, 3, "exactly MAX_RETRIES retransmissions");
        assert_eq!(proto.pending_acks(), 0);
    }

    #[test]
    fn names_and_categories() {
        assert_eq!(Flooding::new().name(), "Flooding");
        assert_eq!(Flooding::new().category(), Category::Connectivity);
        assert_eq!(Biswas::new().name(), "Biswas");
        assert_eq!(Biswas::new().category(), Category::Connectivity);
    }
}
