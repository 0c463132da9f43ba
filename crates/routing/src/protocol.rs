//! The routing-protocol abstraction.
//!
//! Every protocol in the five families implements [`RoutingProtocol`]: a
//! purely event-driven state machine that reacts to received packets,
//! periodic ticks and neighbour-loss notifications by pushing [`Action`]s
//! into the reusable [`ActionSink`] carried by its [`ProtocolContext`], for
//! the simulation driver to carry out. Protocols never touch the medium or
//! the clock directly, which keeps them deterministic and individually
//! unit-testable — and because the sink is owned by the driver and recycled
//! across callbacks, a protocol reaction allocates nothing in steady state.

use std::fmt;
use vanet_mobility::{Position, VehicleKind, VehicleState, Velocity};
use vanet_net::{NeighborView, Packet};
use vanet_sim::{NodeId, PacketId, PacketIdAllocator, SimDuration, SimRng, SimTime};

/// The five routing families of the paper's taxonomy (Fig. 1), plus the
/// delay-tolerant store-carry-forward family that picks up where the
/// connected-path families break down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Connectivity-based (flooding-derived) routing.
    Connectivity,
    /// Mobility-based routing (link-lifetime / direction prediction).
    Mobility,
    /// Infrastructure-based routing (RSUs, buses).
    Infrastructure,
    /// Geographic-location-based routing.
    Geographic,
    /// Probability-model-based routing.
    Probability,
    /// Delay-tolerant store-carry-forward routing (bundle buffers, custody).
    Dtn,
}

impl Category {
    /// All categories in taxonomy order.
    pub const ALL: [Category; 6] = [
        Category::Connectivity,
        Category::Mobility,
        Category::Infrastructure,
        Category::Geographic,
        Category::Probability,
        Category::Dtn,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Category::Connectivity => "connectivity",
            Category::Mobility => "mobility",
            Category::Infrastructure => "infrastructure",
            Category::Geographic => "geographic",
            Category::Probability => "probability",
            Category::Dtn => "store-carry-forward",
        };
        f.write_str(name)
    }
}

/// Why a protocol dropped a packet.
///
/// `Ord` follows declaration order; metrics key drop counters by reason in a
/// `BTreeMap`, so every rendered or exported breakdown lists reasons in this
/// fixed order regardless of the order drops happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropReason {
    /// The TTL reached zero.
    TtlExpired,
    /// No route / no suitable next hop was available.
    NoRoute,
    /// Greedy forwarding reached a local maximum.
    LocalMaximum,
    /// The packet was a duplicate of one already handled.
    Duplicate,
    /// An internal buffer overflowed.
    BufferOverflow,
    /// The packet waited too long in a buffer.
    Expired,
    /// The packet was outside the protocol's forwarding zone.
    OutOfZone,
    /// The packet was not addressed to this node.
    NotForMe,
}

/// A bundle-buffer lifecycle event reported by a store-carry-forward
/// protocol, for the driver to fold into the DTN metrics and telemetry.
///
/// `Ord` follows declaration order so any per-op breakdown keyed by a
/// `BTreeMap` iterates deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BundleOp {
    /// A bundle entered this node's buffer.
    Stored,
    /// A buffered bundle was copied to a contacted neighbour.
    Forwarded,
    /// A buffered bundle's TTL ran out and it was discarded.
    Expired,
    /// A buffered bundle was evicted to make room under the drop policy.
    Evicted,
    /// Custody of a bundle was handed over (the acknowledged custodian
    /// released its custody flag).
    Custody,
}

/// What a protocol asks the simulation driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit a frame on the wireless medium (unicast when
    /// `packet.next_hop` is set, link-layer broadcast otherwise).
    Transmit(Packet),
    /// Deliver a data packet to the local application (it reached its
    /// destination).
    Deliver(Packet),
    /// Drop a packet, recording the reason in the metrics. Carries only the
    /// packet id — drops are the hottest action in flooding protocols and
    /// the driver needs nothing but the reason.
    Drop {
        /// Id of the dropped packet.
        id: PacketId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// Send a packet over the wired infrastructure backbone to another
    /// road-side unit. Only meaningful when both this node and `to` are RSUs;
    /// the driver applies a fixed backbone latency and no radio cost.
    BackboneSend {
        /// The receiving road-side unit.
        to: NodeId,
        /// The packet to hand over.
        packet: Packet,
    },
    /// Report a bundle-buffer lifecycle event (store-carry-forward
    /// protocols only). Carries the buffer occupancy *after* the event so
    /// the driver can track the occupancy peak without reaching into
    /// protocol state.
    Bundle {
        /// What happened to the bundle.
        op: BundleOp,
        /// Buffered bundles at this node after the event.
        occupancy: usize,
    },
}

/// The reusable buffer protocol callbacks push their [`Action`]s into.
///
/// The simulation driver owns one sink per simulation, hands it to every
/// callback through [`ProtocolContext`], drains it (keeping capacity) and
/// hands it to the next callback — so the per-event `Vec<Action>` allocation
/// of the old `-> Vec<Action>` API disappears entirely. The driver drains the
/// sink after *every* callback; actions never leak from one callback into
/// the next.
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sink with room for `capacity` queued actions, so the
    /// first callbacks of a fleet-scale run don't grow the buffer while the
    /// caches are cold.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            actions: Vec::with_capacity(capacity),
        }
    }

    /// Queues a frame for transmission on the wireless medium.
    pub fn transmit(&mut self, packet: Packet) {
        self.actions.push(Action::Transmit(packet));
    }

    /// Queues delivery of `packet` to the local application.
    pub fn deliver(&mut self, packet: &Packet) {
        self.actions.push(Action::Deliver(packet.clone()));
    }

    /// Records that `packet` was dropped for `reason`.
    pub fn drop_packet(&mut self, packet: &Packet, reason: DropReason) {
        self.actions.push(Action::Drop {
            id: packet.id,
            reason,
        });
    }

    /// Queues a backbone hand-over of `packet` to road-side unit `to`.
    pub fn backbone_send(&mut self, to: NodeId, packet: Packet) {
        self.actions.push(Action::BackboneSend { to, packet });
    }

    /// Reports a bundle-buffer lifecycle event (store-carry-forward
    /// protocols).
    pub fn bundle(&mut self, op: BundleOp, occupancy: usize) {
        self.actions.push(Action::Bundle { op, occupancy });
    }

    /// Number of queued actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Capacity of the underlying buffer (for reuse diagnostics/tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.actions.capacity()
    }

    /// Removes and returns all queued actions (convenient in tests; drivers
    /// on the hot path should prefer [`ActionSink::swap_into`]).
    fn take_all(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Swaps the queued actions into `scratch` (which must be empty), leaving
    /// the sink holding `scratch`'s capacity. Ping-ponging two buffers this
    /// way drains the sink with zero allocation in steady state.
    pub fn swap_into(&mut self, scratch: &mut Vec<Action>) {
        debug_assert!(scratch.is_empty(), "drain target must be empty");
        std::mem::swap(&mut self.actions, scratch);
    }
}

/// Everything a protocol may consult when reacting to an event.
pub struct ProtocolContext<'a> {
    /// The node this protocol instance runs on.
    pub node: NodeId,
    /// Current simulation time.
    pub now: SimTime,
    /// Every node's current kinematic state (vehicles, then road-side
    /// units), indexed by [`NodeId::index`]: the ideal "GPS + digital map"
    /// the geographic and probability protocols assume. The driver's own
    /// store, lent for the callback; this node's entry is
    /// [`ProtocolContext::state`].
    pub fleet: &'a [VehicleState],
    /// The node's neighbour table (maintained by the beaconing service): a
    /// read-only view of its entries in the fleet-shared
    /// [`vanet_net::NeighborArena`].
    pub neighbors: NeighborView<'a>,
    /// Nominal radio range in metres.
    pub range_m: f64,
    /// Ids of the road-side units deployed in the scenario, sorted ascending.
    pub rsu_ids: &'a [NodeId],
    /// Ids of the bus (message-ferry) nodes, sorted ascending.
    pub bus_ids: &'a [NodeId],
    /// Deterministic randomness for jitter and tie-breaking.
    pub rng: &'a mut SimRng,
    /// Allocator for fresh packet ids (control packets created by protocols).
    pub packet_ids: &'a mut PacketIdAllocator,
    /// The driver-owned sink this callback's actions go into.
    pub actions: &'a mut ActionSink,
}

impl<'a> ProtocolContext<'a> {
    /// This node's own kinematic state.
    #[must_use]
    pub fn state(&self) -> &'a VehicleState {
        &self.fleet[self.node.index()]
    }

    /// Current position of node `id`, or `None` for an id outside the fleet.
    #[must_use]
    pub fn position_of(&self, id: NodeId) -> Option<Position> {
        self.fleet.get(id.index()).map(|s| s.position)
    }

    /// Own current position.
    #[must_use]
    pub fn position(&self) -> Position {
        self.state().position
    }

    /// Own current velocity.
    #[must_use]
    pub fn velocity(&self) -> Velocity {
        self.state().velocity
    }

    /// Whether this node is a road-side unit.
    #[must_use]
    pub fn is_rsu(&self) -> bool {
        self.state().kind == VehicleKind::RoadSideUnit
    }

    /// Whether this node is a bus (message ferry).
    #[must_use]
    pub fn is_bus(&self) -> bool {
        self.state().kind == VehicleKind::Bus
    }

    /// Queues a frame for transmission (shorthand for `actions.transmit`).
    pub fn transmit(&mut self, packet: Packet) {
        self.actions.transmit(packet);
    }

    /// Queues delivery of `packet` to the local application.
    pub fn deliver(&mut self, packet: &Packet) {
        self.actions.deliver(packet);
    }

    /// Records that `packet` was dropped for `reason`.
    pub fn drop_packet(&mut self, packet: &Packet, reason: DropReason) {
        self.actions.drop_packet(packet, reason);
    }

    /// Queues a backbone hand-over of `packet` to road-side unit `to`.
    pub fn backbone_send(&mut self, to: NodeId, packet: Packet) {
        self.actions.backbone_send(to, packet);
    }

    /// Reports a bundle-buffer lifecycle event (shorthand for
    /// `actions.bundle`).
    pub fn bundle_event(&mut self, op: BundleOp, occupancy: usize) {
        self.actions.bundle(op, occupancy);
    }

    /// Removes and returns the actions queued so far (test convenience).
    pub fn take_actions(&mut self) -> Vec<Action> {
        self.actions.take_all()
    }

    /// Creates a fresh control packet stamped with this node as source and
    /// the current time.
    #[must_use]
    pub fn new_control_packet(&mut self, kind: vanet_net::PacketKind) -> Packet {
        let mut p = Packet::broadcast(self.node, kind, 0);
        p.id = self.packet_ids.allocate();
        p.created_at = self.now;
        p.sender_position = Some(self.position());
        p.sender_velocity = Some(self.velocity());
        p
    }

    /// Stamps an outgoing copy of `packet` with this node's current position
    /// and velocity (the piggybacked mobility information every transmitted
    /// frame carries).
    #[must_use]
    pub fn stamp(&self, mut packet: Packet) -> Packet {
        packet.sender_position = Some(self.position());
        packet.sender_velocity = Some(self.velocity());
        packet
    }
}

/// A VANET routing protocol instance (one per node).
///
/// Callbacks react by pushing [`Action`]s into `ctx.actions` (directly or
/// via the [`ProtocolContext`] shorthands); the driver drains the sink after
/// each callback. Received frames arrive by reference — the driver shares
/// one frame among all receivers of a broadcast, and a protocol clones only
/// what it actually stores or forwards.
pub trait RoutingProtocol: fmt::Debug {
    /// Human-readable protocol name (e.g. `"AODV"`).
    fn name(&self) -> &'static str;

    /// Which family of the taxonomy the protocol belongs to.
    fn category(&self) -> Category;

    /// Interval at which this protocol needs HELLO position beacons, if any.
    /// Neighbour tables, link-break notices and DTN contacts all ride the
    /// beacons, and every protocol sends them once a second (the default)
    /// except Flooding, Biswas and DSDV, which return `None` and incur no
    /// beaconing overhead.
    fn beacon_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(1.0))
    }

    /// The local application wants to send `packet` (a data packet with
    /// `destination` set). The protocol may transmit it immediately, buffer
    /// it while a route is discovered, or drop it.
    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet);

    /// A frame addressed to (or overheard by, when `overheard`) this node
    /// arrived.
    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool);

    /// Periodic maintenance tick (roughly once per second).
    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>);

    /// A neighbour's beacon lease expired (link break detected).
    fn on_neighbor_lost(&mut self, _ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Harness;

    #[test]
    fn category_display_and_order() {
        assert_eq!(Category::ALL.len(), 6);
        assert_eq!(Category::Connectivity.to_string(), "connectivity");
        assert_eq!(Category::Probability.to_string(), "probability");
        assert_eq!(Category::Dtn.to_string(), "store-carry-forward");
        let mut sorted = Category::ALL;
        sorted.sort();
        assert_eq!(sorted, Category::ALL);
    }

    #[test]
    fn action_sink_drains_completely_and_reuses_capacity() {
        let mut sink = ActionSink::new();
        let mut scratch: Vec<Action> = Vec::new();
        let mut peak_capacity = 0;
        for round in 0..4 {
            // A "callback" pushes a mixed batch of actions.
            let packet = Packet::data(NodeId(1), NodeId(9), 64);
            sink.transmit(packet.clone());
            sink.drop_packet(&packet, DropReason::Duplicate);
            if round % 2 == 0 {
                sink.deliver(&packet);
            }
            let expected = if round % 2 == 0 { 3 } else { 2 };
            assert_eq!(sink.len(), expected);

            // The driver drains it: everything comes out, nothing survives
            // into the next callback (no cross-callback leakage).
            sink.swap_into(&mut scratch);
            assert!(sink.is_empty(), "drain must empty the sink");
            assert_eq!(scratch.len(), expected);
            assert!(matches!(scratch[0], Action::Transmit(_)));
            assert!(matches!(
                scratch[1],
                Action::Drop {
                    reason: DropReason::Duplicate,
                    ..
                }
            ));
            scratch.clear();

            // After the first round the two buffers ping-pong: capacity is
            // retained, so steady-state rounds allocate nothing.
            if round >= 2 {
                assert!(
                    sink.capacity() >= 2 && scratch.capacity() >= 2,
                    "buffer capacity must be recycled across rounds"
                );
            }
            peak_capacity = peak_capacity.max(sink.capacity().max(scratch.capacity()));
        }
        assert!(
            peak_capacity <= 8,
            "ping-ponged buffers must not grow unboundedly, got {peak_capacity}"
        );
    }

    #[test]
    fn take_actions_returns_only_the_current_callbacks_actions() {
        let mut h = Harness::new(3);
        let mut ctx = h.ctx(0.0);
        let mut proto = crate::flooding::Flooding::new();
        let pkt = {
            let mut p = Packet::data(NodeId(0), NodeId(9), 32);
            p.id = vanet_sim::PacketId(77);
            p
        };
        proto.on_packet(&mut ctx, &pkt, false);
        let first = ctx.take_actions();
        assert_eq!(first.len(), 1, "fresh packet → exactly one rebroadcast");
        // The same packet again is a duplicate; the drain above must not
        // leave the earlier Transmit behind to be double-counted.
        proto.on_packet(&mut ctx, &pkt, false);
        let second = ctx.take_actions();
        assert_eq!(second.len(), 1);
        assert!(matches!(
            second[0],
            Action::Drop {
                reason: DropReason::Duplicate,
                ..
            }
        ));
    }

    #[test]
    fn context_reads_the_fleet() {
        let mut h = Harness::new(1);
        h.place(
            1,
            VehicleKind::Bus,
            Position::new(10.0, 0.0),
            Velocity::new(1.0, 0.0),
        );
        h.place(
            4,
            VehicleKind::RoadSideUnit,
            Position::new(0.0, 5.0),
            Velocity::ZERO,
        );
        let ctx = h.ctx(0.0);
        assert_eq!(ctx.state().id, NodeId(1));
        assert_eq!(ctx.position(), Position::new(10.0, 0.0));
        assert_eq!(ctx.velocity(), Velocity::new(1.0, 0.0));
        assert!(ctx.is_bus() && !ctx.is_rsu());
        assert_eq!(ctx.rsu_ids, [NodeId(4)]);
        assert_eq!(ctx.position_of(NodeId(1)), Some(Position::new(10.0, 0.0)));
        assert_eq!(ctx.position_of(NodeId(4)), Some(Position::new(0.0, 5.0)));
        assert!(ctx.position_of(NodeId(5)).is_none(), "past the fleet");
    }
}
