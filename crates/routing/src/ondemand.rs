//! Generic on-demand (RREQ/RREP/RERR) route discovery.
//!
//! AODV and the mobility-based protocols surveyed in Sec. IV share the same
//! skeleton: flood a route request, let the destination pick one of the
//! discovered paths, return a route reply along it, then forward data hop by
//! hop and repair on link breakage. They differ only in *which paths they
//! prefer* and *which nodes take part in the flood*. [`OnDemandRouting`]
//! implements the skeleton once; a [`DiscoveryPolicy`] supplies the
//! differences: the per-link metric, how it combines into a path metric and
//! the metric an empty path starts with, the forwarding filter, the route
//! lifetime and whether to rebuild a route before it expires. What every
//! policy shares stays in the skeleton: a higher path metric is better, the
//! discovery timers are those of `common.rs`, and the beacon interval is the
//! [`RoutingProtocol`] default.

use crate::common::{
    claim_discovery, PendingBuffer, RouteEntry, RoutingTable, SeenCache, DISCOVERY_SEEN_HORIZON_S,
};
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use std::collections::BTreeMap;
use std::fmt::Debug;
use vanet_net::{GeoAddress, Packet, PacketKind};
use vanet_sim::{NodeId, SeqNo, SimDuration, SimTime};

/// The protocol-specific part of an on-demand protocol.
pub trait DiscoveryPolicy: Debug + Send {
    /// Protocol name shown in metrics and the taxonomy.
    fn name(&self) -> &'static str;

    /// Taxonomy category.
    fn category(&self) -> Category;

    /// Quality of the link over which this RREQ just arrived: from the
    /// transmitting node (position/velocity piggybacked in the packet) to the
    /// current node. Higher is better.
    fn link_metric(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> f64;

    /// Combines the path metric accumulated so far with a new link's metric
    /// (default: bottleneck/minimum, the paper's path-lifetime rule).
    fn combine(&self, path_metric: f64, link_metric: f64) -> f64 {
        path_metric.min(link_metric)
    }

    /// The metric an empty path starts with (default: `+∞` for
    /// minimum-combining).
    fn initial_metric(&self) -> f64 {
        f64::INFINITY
    }

    /// Whether this node should take part in forwarding the request
    /// (directional / zonal filters). The default forwards everywhere.
    fn should_forward_request(&self, _ctx: &ProtocolContext<'_>, _packet: &Packet) -> bool {
        true
    }

    /// Lifetime granted to a route whose path metric is `metric`.
    fn route_lifetime(&self, metric: f64) -> SimDuration;

    /// Whether the source should proactively re-discover shortly before the
    /// route expires (PBR-style preemptive rebuild).
    fn preemptive_rebuild(&self) -> bool {
        false
    }
}

/// TTL given to route requests.
const RREQ_TTL: u8 = 16;
/// How long before route expiry a preemptive rebuild is triggered, seconds.
const PREEMPTIVE_MARGIN_S: f64 = 2.0;

/// The RERR rate limits of an on-demand protocol. They are settable because
/// a test sets both to zero to rebuild the unlimited RERR behaviour it
/// compares the defaults against; every protocol runs with the defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemandConfig {
    /// Minimum spacing between RERRs this node originates about the same
    /// unreachable destination. Under dense-fleet churn every data packet
    /// crossing a stale route used to re-originate a RERR, and the resulting
    /// storm of route teardowns made recovery seed-sensitive.
    pub rerr_interval: SimDuration,
    /// Horizon for remembering relayed RERR ids. A RERR that cannot be
    /// routed towards its source falls back to link broadcast, and without
    /// duplicate suppression a dense fleet relays the same error in an
    /// exponential broadcast storm (bounded only by the packet TTL). Each
    /// node relays a given RERR at most once within this horizon.
    pub rerr_seen_horizon_s: f64,
}

impl Default for OnDemandConfig {
    fn default() -> Self {
        OnDemandConfig {
            rerr_interval: SimDuration::from_secs(5.0),
            rerr_seen_horizon_s: 30.0,
        }
    }
}

/// The generic on-demand routing protocol, parameterised by a policy.
#[derive(Debug)]
pub struct OnDemandRouting<P: DiscoveryPolicy> {
    policy: P,
    config: OnDemandConfig,
    table: RoutingTable,
    rreq_seen: SeenCache,
    rerr_seen: SeenCache,
    pending: PendingBuffer,
    my_seq: SeqNo,
    next_request_id: u64,
    /// Per-destination time of the last discovery we initiated.
    last_discovery: BTreeMap<NodeId, SimTime>,
    /// Best metric replied per (origin, request id) — destination side.
    replied: BTreeMap<(NodeId, u64), f64>,
    /// Destinations with recent application traffic (for preemptive rebuild).
    active_destinations: BTreeMap<NodeId, SimTime>,
    /// Time of the last RERR this node originated per unreachable
    /// destination (the re-origination rate limit).
    last_rerr: BTreeMap<NodeId, SimTime>,
}

impl<P: DiscoveryPolicy> OnDemandRouting<P> {
    /// Creates an on-demand protocol driven by `policy` with default knobs.
    #[must_use]
    pub fn new(policy: P) -> Self {
        Self::with_config(policy, OnDemandConfig::default())
    }

    /// Creates an on-demand protocol with explicit RERR rate limits.
    #[must_use]
    pub fn with_config(policy: P, config: OnDemandConfig) -> Self {
        OnDemandRouting {
            policy,
            config,
            table: RoutingTable::new(),
            rreq_seen: SeenCache::new(DISCOVERY_SEEN_HORIZON_S),
            rerr_seen: SeenCache::new(config.rerr_seen_horizon_s),
            pending: PendingBuffer::for_discovery(),
            my_seq: SeqNo(0),
            next_request_id: 0,
            last_discovery: BTreeMap::new(),
            replied: BTreeMap::new(),
            active_destinations: BTreeMap::new(),
            last_rerr: BTreeMap::new(),
        }
    }

    /// Read access to the routing table (for tests and diagnostics).
    #[must_use]
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// Whether this node may originate a RERR about `dest` now; claims the
    /// rate-limit slot when it may. Forwarded RERRs are never gated — only
    /// fresh originations, so an error still propagates to its source.
    fn may_originate_rerr(&mut self, dest: NodeId, now: SimTime) -> bool {
        if let Some(last) = self.last_rerr.get(&dest) {
            if now.saturating_since(*last) < self.config.rerr_interval {
                return false;
            }
        }
        self.last_rerr.insert(dest, now);
        true
    }

    fn start_discovery(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        if !claim_discovery(&mut self.last_discovery, dest, ctx.now) {
            return;
        }
        self.my_seq = self.my_seq.next();
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let mut rreq = ctx.new_control_packet(PacketKind::RouteRequest {
            target: dest,
            request_id,
            hop_count: 0,
            path: vec![ctx.node],
            metric: self.policy.initial_metric(),
        });
        rreq.destination = Some(dest);
        rreq.ttl = RREQ_TTL;
        if let Some(pos) = ctx.position_of(dest) {
            rreq.geo = Some(GeoAddress {
                position: pos,
                zone_radius: ctx.range_m,
            });
        }
        // Remember our own request so we do not re-flood it.
        self.rreq_seen
            .check_and_insert(ctx.node, request_id, ctx.now);
        ctx.transmit(rreq);
    }

    fn forward_data(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        let dest = match packet.destination {
            Some(d) => d,
            None => {
                ctx.drop_packet(&packet, DropReason::NoRoute);
                return;
            }
        };
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(&packet, DropReason::TtlExpired);
            return;
        }
        if let Some(route) = self.table.route(dest, ctx.now) {
            let next = route.next_hop;
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next)));
            ctx.transmit(fwd);
            return;
        }
        // No route: the source buffers and discovers; intermediate nodes
        // report the error back to the source.
        if packet.source == ctx.node {
            if let Some(evicted) = self.pending.push(dest, packet, ctx.now) {
                self.start_discovery(ctx, dest);
                ctx.drop_packet(&evicted, DropReason::BufferOverflow);
                return;
            }
            self.start_discovery(ctx, dest);
            return;
        }
        if self.may_originate_rerr(dest, ctx.now) {
            let mut rerr = ctx.new_control_packet(PacketKind::RouteError {
                unreachable: vec![dest],
                broken_link_from: ctx.node,
                broken_link_to: dest,
            });
            rerr.destination = Some(packet.source);
            ctx.transmit(rerr);
        }
        ctx.drop_packet(&packet, DropReason::NoRoute);
    }

    fn handle_rreq(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let (target, request_id, hop_count, path, metric) = match &packet.kind {
            PacketKind::RouteRequest {
                target,
                request_id,
                hop_count,
                path,
                metric,
            } => (*target, *request_id, *hop_count, path, *metric),
            _ => unreachable!("handle_rreq called with a non-RREQ packet"),
        };
        let origin = packet.source;
        if origin == ctx.node {
            // Our own request echoed back.
            return;
        }
        let link_metric = self.policy.link_metric(ctx, packet);
        let new_metric = self.policy.combine(metric, link_metric);

        // Install / refresh the reverse route towards the origin.
        let reverse = RouteEntry {
            destination: origin,
            next_hop: packet.prev_hop,
            hops: hop_count + 1,
            seq: packet.seq,
            metric: new_metric,
            expires_at: ctx.now + self.policy.route_lifetime(new_metric),
        };
        self.table.upsert(reverse);

        if target == ctx.node {
            // Destination: reply to the first request of a probing round and
            // to any later copy that arrived over a strictly better path.
            let key = (origin, request_id);
            let should_reply = match self.replied.get(&key) {
                None => true,
                Some(prev) => new_metric > *prev,
            };
            if !should_reply {
                return;
            }
            self.replied.insert(key, new_metric);
            self.my_seq = self.my_seq.next();
            let mut route = path.clone();
            route.push(ctx.node);
            let mut rrep = ctx.new_control_packet(PacketKind::RouteReply {
                target: ctx.node,
                route: route.clone(),
                metric: new_metric,
                target_seq: self.my_seq,
            });
            rrep.destination = Some(origin);
            // Unicast back along the recorded path.
            rrep.next_hop = Some(packet.prev_hop);
            rrep.source_route = Some(route.into_iter().rev().collect());
            ctx.transmit(rrep);
            return;
        }

        // Intermediate node: duplicate suppression, policy filter, TTL.
        if self.rreq_seen.check_and_insert(origin, request_id, ctx.now) {
            ctx.drop_packet(packet, DropReason::Duplicate);
            return;
        }
        if path.contains(&ctx.node) {
            ctx.drop_packet(packet, DropReason::Duplicate);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        if !self.policy.should_forward_request(ctx, packet) {
            ctx.drop_packet(packet, DropReason::OutOfZone);
            return;
        }
        let mut new_path = path.clone();
        new_path.push(ctx.node);
        let mut fwd = packet.forwarded_by(ctx.node, None);
        fwd.kind = PacketKind::RouteRequest {
            target,
            request_id,
            hop_count: hop_count + 1,
            path: new_path,
            metric: new_metric,
        };
        let stamped = ctx.stamp(fwd);
        ctx.transmit(stamped);
    }

    fn handle_rrep(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let (target, route, metric, target_seq) = match &packet.kind {
            PacketKind::RouteReply {
                target,
                route,
                metric,
                target_seq,
            } => (*target, route.clone(), *metric, *target_seq),
            _ => unreachable!("handle_rrep called with a non-RREP packet"),
        };
        // Where am I on the reverse path?
        let my_index = match route.iter().position(|&n| n == ctx.node) {
            Some(i) => i,
            None => {
                ctx.drop_packet(packet, DropReason::NotForMe);
                return;
            }
        };
        // Forward route towards the target: next node after me in the route.
        if my_index + 1 < route.len() {
            let next_towards_target = route[my_index + 1];
            let hops = (route.len() - 1 - my_index) as u32;
            self.table.upsert(RouteEntry {
                destination: target,
                next_hop: next_towards_target,
                hops,
                seq: target_seq,
                metric,
                expires_at: ctx.now + self.policy.route_lifetime(metric),
            });
        }
        let origin = route[0];
        if ctx.node == origin {
            // Route established: flush pending data.
            for pending in self.pending.take(target, ctx.now) {
                self.forward_data(ctx, pending);
            }
            return;
        }
        // Keep unicasting the RREP towards the origin (previous node on the path).
        if my_index == 0 {
            return;
        }
        let previous = route[my_index - 1];
        let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(previous)));
        ctx.transmit(fwd);
    }

    fn handle_rerr(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let unreachable = match &packet.kind {
            PacketKind::RouteError { unreachable, .. } => unreachable.clone(),
            _ => unreachable!("handle_rerr called with a non-RERR packet"),
        };
        for dest in &unreachable {
            self.table.remove(*dest);
        }
        // If the error was addressed to us (we are the source), trigger a
        // fresh discovery for destinations we still care about.
        if packet.destination == Some(ctx.node) {
            for dest in unreachable {
                if self.active_destinations.contains_key(&dest) || self.pending.has_pending(dest) {
                    self.start_discovery(ctx, dest);
                }
            }
            return;
        }
        // Otherwise propagate the error one more hop towards the source —
        // but each distinct RERR at most once per node: the no-route relay
        // below falls back to link broadcast, and without this cache a dense
        // fleet amplifies one error into a TTL-bounded broadcast storm.
        if self
            .rerr_seen
            .check_and_insert(packet.source, packet.id.0, ctx.now)
        {
            return;
        }
        if let (true, Some(dest)) = (packet.ttl_allows_forwarding(), packet.destination) {
            if let Some(route) = self.table.route(dest, ctx.now) {
                let next = route.next_hop;
                let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next)));
                ctx.transmit(fwd);
                return;
            }
            let fwd = ctx.stamp(packet.forwarded_by(ctx.node, None));
            ctx.transmit(fwd);
        }
    }
}

impl<P: DiscoveryPolicy> RoutingProtocol for OnDemandRouting<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn category(&self) -> Category {
        self.policy.category()
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        if let Some(dest) = packet.destination {
            self.active_destinations.insert(dest, ctx.now);
        }
        self.forward_data(ctx, packet);
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
                self.forward_data(ctx, packet.clone());
            }
            PacketKind::RouteRequest { .. } => self.handle_rreq(ctx, packet),
            PacketKind::RouteReply { .. } => {
                if overheard {
                    return;
                }
                self.handle_rrep(ctx, packet);
            }
            PacketKind::RouteError { .. } => self.handle_rerr(ctx, packet),
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        for packet in self.pending.expire(ctx.now) {
            ctx.drop_packet(&packet, DropReason::Expired);
        }
        // Retry discovery for destinations that still have packets waiting.
        for dest in self.pending.destinations() {
            self.start_discovery(ctx, dest);
        }
        // Preemptive rebuild of soon-to-expire active routes (PBR).
        if self.policy.preemptive_rebuild() {
            let margin = SimDuration::from_secs(PREEMPTIVE_MARGIN_S);
            let active: Vec<NodeId> = self
                .active_destinations
                .iter()
                .filter(|(_, &t)| ctx.now.saturating_since(t).as_secs() < 30.0)
                .map(|(d, _)| *d)
                .collect();
            for dest in active {
                let expiring = match self.table.route_even_expired(dest) {
                    Some(e) => e.expires_at.saturating_since(ctx.now) <= margin,
                    None => false,
                };
                if expiring {
                    self.start_discovery(ctx, dest);
                }
            }
        }
    }

    fn on_neighbor_lost(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let affected = self.table.invalidate_next_hop(neighbor);
        if affected.is_empty() {
            return;
        }
        // Announce only the destinations whose rate-limit slot is free; the
        // routes are invalidated locally either way.
        let now = ctx.now;
        let announce: Vec<NodeId> = affected
            .into_iter()
            .filter(|dest| self.may_originate_rerr(*dest, now))
            .collect();
        if announce.is_empty() {
            return;
        }
        let mut rerr = ctx.new_control_packet(PacketKind::RouteError {
            unreachable: announce,
            broken_link_from: ctx.node,
            broken_link_to: neighbor,
        });
        rerr.destination = None;
        ctx.transmit(rerr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aodv::{Aodv, AodvPolicy};
    use crate::protocol::Action;
    use crate::testkit::Harness;
    use vanet_mobility::{Vec2, VehicleKind};

    /// Cars standing on the x axis, node `i` at `xs[i]`, and one AODV
    /// instance per node.
    fn line_network(xs: &[f64]) -> (Harness, Vec<Aodv>) {
        let mut h = Harness::new(0);
        for (i, &x) in xs.iter().enumerate() {
            h.place(i as u32, VehicleKind::Car, Vec2::new(x, 0.0), Vec2::ZERO);
        }
        let protos = xs.iter().map(|_| Aodv::new(AodvPolicy)).collect();
        (h, protos)
    }

    /// Drives a hand-made topology: every Transmit is delivered to the nodes
    /// within 250 m of the sender.
    fn run_exchange(
        h: &mut Harness,
        protos: &mut [Aodv],
        mut in_flight: Vec<(usize, Packet)>,
    ) -> Vec<Packet> {
        let mut delivered = Vec::new();
        let mut rounds = 0;
        while !in_flight.is_empty() && rounds < 50 {
            rounds += 1;
            let mut next_round = Vec::new();
            for (sender_idx, packet) in in_flight.drain(..) {
                let sender_pos = h.fleet[sender_idx].position;
                for (r, proto) in protos.iter_mut().enumerate() {
                    if r == sender_idx {
                        continue;
                    }
                    let dist = (h.fleet[r].position - sender_pos).norm();
                    if dist > 250.0 {
                        continue;
                    }
                    h.node = h.fleet[r].id;
                    let intended = packet.next_hop.is_none() || packet.next_hop == Some(h.node);
                    let actions = {
                        let mut ctx = h.ctx(1.0);
                        proto.on_packet(&mut ctx, &packet, !intended);
                        ctx.take_actions()
                    };
                    for a in actions {
                        match a {
                            Action::Transmit(p) => next_round.push((r, p)),
                            Action::Deliver(p) => delivered.push(p),
                            _ => {}
                        }
                    }
                }
            }
            in_flight = next_round;
        }
        delivered
    }

    #[test]
    fn aodv_discovers_a_two_hop_route_and_delivers() {
        // Nodes at 0, 200, 400 m: 0 and 2 are out of range of each other.
        let (mut h, mut protos) = line_network(&[0.0, 200.0, 400.0]);
        let data = {
            let mut p = Packet::data(NodeId(0), NodeId(2), 256);
            p.id = vanet_sim::PacketId(1000);
            p
        };
        // Originate on node 0: no route yet, so it buffers and emits a RREQ.
        let actions = {
            let mut ctx = h.ctx(1.0);
            protos[0].originate(&mut ctx, data);
            ctx.take_actions()
        };
        assert_eq!(actions.len(), 1);
        let rreq = match &actions[0] {
            Action::Transmit(p) => {
                assert!(matches!(p.kind, PacketKind::RouteRequest { .. }));
                p.clone()
            }
            other => panic!("expected RREQ transmit, got {other:?}"),
        };
        let delivered = run_exchange(&mut h, &mut protos, vec![(0, rreq)]);
        assert_eq!(delivered.len(), 1, "the buffered data packet must arrive");
        assert_eq!(delivered[0].destination, Some(NodeId(2)));
        assert_eq!(delivered[0].source, NodeId(0));
        // Node 0 now has a route to 2 via 1; node 1 has a route back to 0.
        let route = protos[0]
            .routing_table()
            .route(NodeId(2), SimTime::from_secs(1.0))
            .copied()
            .expect("route installed at source");
        assert_eq!(route.next_hop, NodeId(1));
        assert!(protos[1]
            .routing_table()
            .route(NodeId(0), SimTime::from_secs(1.0))
            .is_some());
    }

    #[test]
    fn data_with_known_route_is_unicast_immediately() {
        let mut env = Harness::new(0);
        let mut proto = Aodv::new(AodvPolicy);
        // Learn a reverse route to node 2 from an RREQ it originated.
        let mut rreq_from_dest = Packet::broadcast(
            NodeId(2),
            PacketKind::RouteRequest {
                target: NodeId(0),
                request_id: 7,
                hop_count: 0,
                path: vec![NodeId(2)],
                metric: 0.0,
            },
            0,
        );
        rreq_from_dest.id = vanet_sim::PacketId(55);
        rreq_from_dest.prev_hop = NodeId(2);
        {
            let mut ctx = env.ctx(1.0);
            proto.on_packet(&mut ctx, &rreq_from_dest, false);
            ctx.take_actions();
        }
        // The reverse route to 2 now exists, so data goes straight out unicast.
        let data = Packet::data(NodeId(0), NodeId(2), 100);
        let actions = {
            let mut ctx = env.ctx(1.5);
            proto.originate(&mut ctx, data);
            ctx.take_actions()
        };
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Transmit(p) => {
                assert_eq!(p.next_hop, Some(NodeId(2)));
                assert_eq!(p.kind, PacketKind::Data);
            }
            other => panic!("expected unicast data, got {other:?}"),
        }
    }

    #[test]
    fn neighbor_loss_invalidates_routes_and_emits_rerr() {
        let mut env = Harness::new(1);
        let mut proto = Aodv::new(AodvPolicy);
        // Learn a route to 5 via 3 from an RREQ originated by 5.
        let mut rreq = Packet::broadcast(
            NodeId(5),
            PacketKind::RouteRequest {
                target: NodeId(9),
                request_id: 1,
                hop_count: 1,
                path: vec![NodeId(5), NodeId(3)],
                metric: 0.0,
            },
            0,
        );
        rreq.prev_hop = NodeId(3);
        rreq.id = vanet_sim::PacketId(77);
        {
            let mut ctx = env.ctx(1.0);
            proto.on_packet(&mut ctx, &rreq, false);
            ctx.take_actions();
        }
        assert!(proto
            .routing_table()
            .route(NodeId(5), SimTime::from_secs(1.0))
            .is_some());
        let actions = {
            let mut ctx = env.ctx(2.0);
            proto.on_neighbor_lost(&mut ctx, NodeId(3));
            ctx.take_actions()
        };
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Transmit(p) => match &p.kind {
                PacketKind::RouteError { unreachable, .. } => {
                    assert!(unreachable.contains(&NodeId(5)));
                }
                other => panic!("expected RERR, got {other:?}"),
            },
            other => panic!("expected transmit, got {other:?}"),
        }
        assert!(proto
            .routing_table()
            .route(NodeId(5), SimTime::from_secs(2.0))
            .is_none());
    }

    #[test]
    fn discovery_is_rate_limited() {
        let mut env = Harness::new(0);
        let mut proto = Aodv::new(AodvPolicy);
        let d1 = Packet::data(NodeId(0), NodeId(7), 10);
        let d2 = Packet::data(NodeId(0), NodeId(7), 10);
        let a1 = {
            let mut ctx = env.ctx(1.0);
            proto.originate(&mut ctx, d1);
            ctx.take_actions()
        };
        let a2 = {
            let mut ctx = env.ctx(1.5);
            proto.originate(&mut ctx, d2);
            ctx.take_actions()
        };
        assert_eq!(a1.len(), 1, "first send triggers a discovery");
        assert!(
            a2.is_empty(),
            "second send within the retry interval does not"
        );
    }

    #[test]
    fn rerr_origination_is_rate_limited_per_destination() {
        let mut env = Harness::new(1);
        let mut proto = Aodv::new(AodvPolicy);
        // An intermediate node with no route: forwarding data it cannot
        // route re-originates a RERR — but only once per destination per
        // rate-limit interval.
        let incoming = |id: u64| {
            let mut p = Packet::data(NodeId(0), NodeId(7), 10).forwarded_by(NodeId(0), None);
            p.id = vanet_sim::PacketId(id);
            p
        };
        let count_rerrs = |actions: &[Action]| {
            actions
                .iter()
                .filter(|a| {
                    matches!(a, Action::Transmit(p) if matches!(p.kind, PacketKind::RouteError { .. }))
                })
                .count()
        };
        let first = {
            let mut ctx = env.ctx(1.0);
            proto.on_packet(&mut ctx, &incoming(1), false);
            ctx.take_actions()
        };
        assert_eq!(count_rerrs(&first), 1, "first failure reports the error");
        let second = {
            let mut ctx = env.ctx(1.2);
            proto.on_packet(&mut ctx, &incoming(2), false);
            ctx.take_actions()
        };
        assert_eq!(count_rerrs(&second), 0, "within the interval: suppressed");
        assert!(
            second.iter().any(|a| matches!(
                a,
                Action::Drop {
                    reason: DropReason::NoRoute,
                    ..
                }
            )),
            "the packet itself is still dropped"
        );
        let third = {
            let mut ctx = env.ctx(6.5);
            proto.on_packet(&mut ctx, &incoming(3), false);
            ctx.take_actions()
        };
        assert_eq!(count_rerrs(&third), 1, "a fresh interval reports again");
    }

    #[test]
    fn pending_packets_expire_on_tick() {
        let mut env = Harness::new(0);
        let mut proto = Aodv::new(AodvPolicy);
        let data = Packet::data(NodeId(0), NodeId(7), 10);
        {
            let mut ctx = env.ctx(1.0);
            proto.originate(&mut ctx, data);
            ctx.take_actions();
        }
        let actions = {
            let mut ctx = env.ctx(60.0);
            proto.on_tick(&mut ctx);
            ctx.take_actions()
        };
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Drop {
                reason: DropReason::Expired,
                ..
            }
        )));
    }

    #[test]
    fn rerr_at_source_triggers_rediscovery() {
        let mut env = Harness::new(0);
        let mut proto = Aodv::new(AodvPolicy);
        // Originate data (starts a discovery and buffers the packet).
        {
            let mut ctx = env.ctx(1.0);
            proto.originate(&mut ctx, Packet::data(NodeId(0), NodeId(7), 10));
            ctx.take_actions();
        }
        // A RERR addressed to us about destination 7 arrives later.
        let mut rerr = Packet::broadcast(
            NodeId(3),
            PacketKind::RouteError {
                unreachable: vec![NodeId(7)],
                broken_link_from: NodeId(3),
                broken_link_to: NodeId(7),
            },
            0,
        );
        rerr.destination = Some(NodeId(0));
        rerr.prev_hop = NodeId(3);
        let actions = {
            let mut ctx = env.ctx(5.0);
            proto.on_packet(&mut ctx, &rerr, false);
            ctx.take_actions()
        };
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Transmit(p) if matches!(p.kind, PacketKind::RouteRequest { .. }))),
            "the source should re-discover after a route error"
        );
    }
}
