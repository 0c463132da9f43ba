//! Packet model: data packets plus the control packets used by the five
//! routing families (RREQ/RREP/RERR, HELLO beacons, probe tickets, zone
//! location requests, acknowledgements).

use vanet_mobility::{Position, Velocity};
use vanet_sim::{FlowId, NodeId, PacketId, SeqNo, SimTime};

/// Geographic addressing information carried by position-based protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoAddress {
    /// Last known position of the destination.
    pub position: Position,
    /// Radius of the destination zone in metres (0 for a point destination).
    pub zone_radius: f64,
}

/// A recorded route (list of node ids), used by source routing and by RREP
/// packets returning the discovered path.
pub type RouteRecord = Vec<NodeId>;

/// The kind of a packet, together with kind-specific header fields.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// Application data.
    Data,
    /// Periodic single-hop beacon advertising position and velocity
    /// (neighbour awareness; the per-protocol overhead Table I mentions).
    Hello,
    /// Route request, flooded during discovery.
    RouteRequest {
        /// The node the route is sought for.
        target: NodeId,
        /// Sequence number of the request at the originator.
        request_id: u64,
        /// Hop count so far.
        hop_count: u32,
        /// Accumulated path (source routing / reverse-path construction).
        path: RouteRecord,
        /// Protocol-specific path metric accumulated along the request
        /// (e.g. minimum predicted link lifetime, product of link
        /// reliabilities). Interpreted by the protocol that issued it.
        metric: f64,
    },
    /// Route reply, unicast back along the reverse path.
    RouteReply {
        /// The node the route leads to.
        target: NodeId,
        /// The discovered route from source to target.
        route: RouteRecord,
        /// Metric of the discovered route.
        metric: f64,
        /// Destination sequence number (AODV-style freshness).
        target_seq: SeqNo,
    },
    /// Route error, reporting a broken link.
    RouteError {
        /// The unreachable destination(s).
        unreachable: Vec<NodeId>,
        /// The broken link's upstream node.
        broken_link_from: NodeId,
        /// The broken link's downstream node.
        broken_link_to: NodeId,
    },
    /// Probe ticket used by ticket-based probing (Yan et al.): a bounded
    /// number of tickets explore candidate links instead of flooding.
    Ticket {
        /// The node the route is sought for.
        target: NodeId,
        /// Identifier of the probing round.
        probe_id: u64,
        /// Tickets remaining on this branch (limits the exploration budget).
        tickets: u32,
        /// Accumulated path.
        path: RouteRecord,
        /// Accumulated stability metric (minimum expected link duration).
        metric: f64,
    },
    /// Acknowledgement (used by implicit/explicit reliability schemes).
    Ack {
        /// The packet being acknowledged.
        of: PacketId,
    },
    /// Proactive distance-vector update (DSDV-style full or incremental dump).
    TopologyUpdate {
        /// (destination, metric/hops, destination sequence number) triples.
        entries: Vec<(NodeId, u32, SeqNo)>,
    },
    /// Infrastructure synchronisation between road-side units over the wired
    /// backbone (position registration, buffered-packet hand-off).
    InfrastructureSync {
        /// The vehicle whose position is being synchronised.
        vehicle: NodeId,
        /// Where it was last seen.
        position: Position,
    },
    /// DTN summary vector: the anti-entropy advertisement a store-carry-
    /// forward node broadcasts on neighbour contact, listing the bundles it
    /// already holds (or has delivered) so peers only transfer the
    /// difference. PRoPHET additionally piggybacks its delivery
    /// predictabilities so peers can apply the transitive update.
    SummaryVector {
        /// `(origin, packet id)` keys of every bundle the sender holds or
        /// has already seen to its final destination.
        have: Vec<(NodeId, u64)>,
        /// PRoPHET delivery predictabilities `(destination, P)` at the
        /// sender; empty for protocols that do not track them.
        predictabilities: Vec<(NodeId, f64)>,
    },
    /// DTN custody acknowledgement: the receiver of a bundle confirms it has
    /// taken responsibility for it, letting the previous custodian release
    /// its own custody flag (and become eligible for no-custody-first
    /// eviction).
    CustodyAck {
        /// Originator of the acknowledged bundle.
        origin: NodeId,
        /// Packet id of the acknowledged bundle at its originator.
        bundle_id: u64,
    },
}

impl PacketKind {
    /// Whether this kind is a control packet (everything except `Data`).
    #[must_use]
    pub fn is_control(&self) -> bool {
        !matches!(self, PacketKind::Data)
    }

    /// Nominal header size in bytes for this packet kind (used for overhead
    /// accounting in bytes; sizes follow typical AODV/DSR field layouts).
    #[must_use]
    fn header_bytes(&self) -> usize {
        match self {
            PacketKind::Data => 20,
            PacketKind::Hello => 32,
            PacketKind::RouteRequest { path, .. } => 24 + 4 * path.len(),
            PacketKind::RouteReply { route, .. } => 20 + 4 * route.len(),
            PacketKind::RouteError { unreachable, .. } => 12 + 4 * unreachable.len(),
            PacketKind::Ticket { path, .. } => 28 + 4 * path.len(),
            PacketKind::Ack { .. } => 12,
            PacketKind::TopologyUpdate { entries } => 8 + 12 * entries.len(),
            PacketKind::InfrastructureSync { .. } => 24,
            PacketKind::SummaryVector {
                have,
                predictabilities,
            } => 8 + 12 * have.len() + 12 * predictabilities.len(),
            PacketKind::CustodyAck { .. } => 16,
        }
    }
}

/// A packet travelling through the simulated network.
///
/// A packet is either *unicast* (has a `next_hop`) or *broadcast*
/// (`next_hop == None`), and carries an optional final `destination`
/// (broadcast floods such as HELLO have none).
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique identifier (assigned by the originating node).
    pub id: PacketId,
    /// Kind and kind-specific headers.
    pub kind: PacketKind,
    /// The node that originated the packet.
    pub source: NodeId,
    /// The final destination, if any.
    pub destination: Option<NodeId>,
    /// The node that transmitted this copy (updated at every hop).
    pub prev_hop: NodeId,
    /// The intended link-layer receiver; `None` means link-layer broadcast.
    pub next_hop: Option<NodeId>,
    /// Remaining hops before the packet is dropped.
    pub ttl: u8,
    /// Application payload size in bytes (0 for pure control packets).
    pub payload_bytes: usize,
    /// When the packet was originally created.
    pub created_at: SimTime,
    /// The application flow this packet belongs to, if any.
    pub flow: Option<FlowId>,
    /// Source sequence number.
    pub seq: SeqNo,
    /// Number of hops traversed so far.
    pub hops: u32,
    /// Geographic destination information for position-based protocols.
    pub geo: Option<GeoAddress>,
    /// Source route for source-routed data (DSR-style), if any.
    pub source_route: Option<RouteRecord>,
    /// Sender position and velocity at transmission time (piggybacked
    /// mobility information used by mobility/probability-based protocols).
    pub sender_position: Option<Position>,
    /// Sender velocity at transmission time.
    pub sender_velocity: Option<Velocity>,
    /// Copy tickets granted to the receiver of this transmission
    /// (spray-and-wait binary splitting); 0 for protocols that do not
    /// budget copies.
    pub copies: u32,
}

/// Default time-to-live for network-layer packets.
const DEFAULT_TTL: u8 = 32;

impl Packet {
    /// Creates a link-layer broadcast packet with no final destination.
    #[must_use]
    pub fn broadcast(source: NodeId, kind: PacketKind, payload_bytes: usize) -> Self {
        Packet {
            id: PacketId(0),
            kind,
            source,
            destination: None,
            prev_hop: source,
            next_hop: None,
            ttl: DEFAULT_TTL,
            payload_bytes,
            created_at: SimTime::ZERO,
            flow: None,
            seq: SeqNo(0),
            hops: 0,
            geo: None,
            source_route: None,
            sender_position: None,
            sender_velocity: None,
            copies: 0,
        }
    }

    /// Creates a unicast data packet from `source` to `destination`.
    #[must_use]
    pub fn data(source: NodeId, destination: NodeId, payload_bytes: usize) -> Self {
        Packet {
            id: PacketId(0),
            kind: PacketKind::Data,
            source,
            destination: Some(destination),
            prev_hop: source,
            next_hop: None,
            ttl: DEFAULT_TTL,
            payload_bytes,
            created_at: SimTime::ZERO,
            flow: None,
            seq: SeqNo(0),
            hops: 0,
            geo: None,
            source_route: None,
            sender_position: None,
            sender_velocity: None,
            copies: 0,
        }
    }

    /// Total size on the wire: kind-specific header plus payload.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.kind.header_bytes() + self.payload_bytes
    }

    /// Whether this packet is a control packet.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.kind.is_control()
    }

    /// Whether this copy is a link-layer broadcast.
    #[must_use]
    pub fn is_link_broadcast(&self) -> bool {
        self.next_hop.is_none()
    }

    /// Returns a copy prepared for forwarding by `forwarder` to `next_hop`:
    /// hop count incremented, TTL decremented, previous hop updated.
    #[must_use]
    pub fn forwarded_by(&self, forwarder: NodeId, next_hop: Option<NodeId>) -> Packet {
        let mut p = self.clone();
        p.prev_hop = forwarder;
        p.next_hop = next_hop;
        p.hops += 1;
        p.ttl = p.ttl.saturating_sub(1);
        p
    }

    /// Whether the TTL allows another hop.
    #[must_use]
    pub fn ttl_allows_forwarding(&self) -> bool {
        self.ttl > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mobility::Vec2;

    #[test]
    fn kinds_classify_control_vs_data() {
        assert!(!PacketKind::Data.is_control());
        assert!(PacketKind::Hello.is_control());
        assert!(PacketKind::Ack { of: PacketId(1) }.is_control());
    }

    #[test]
    fn header_sizes_grow_with_recorded_path() {
        let short = PacketKind::RouteRequest {
            target: NodeId(1),
            request_id: 0,
            hop_count: 0,
            path: vec![],
            metric: 0.0,
        };
        let long = PacketKind::RouteRequest {
            target: NodeId(1),
            request_id: 0,
            hop_count: 3,
            path: vec![NodeId(1), NodeId(2), NodeId(3)],
            metric: 0.0,
        };
        assert!(long.header_bytes() > short.header_bytes());
    }

    #[test]
    fn broadcast_and_data_constructors() {
        let b = Packet::broadcast(NodeId(1), PacketKind::Hello, 0);
        assert!(b.is_link_broadcast());
        assert!(b.destination.is_none());
        assert!(b.is_control());

        let d = Packet::data(NodeId(1), NodeId(5), 512);
        assert_eq!(d.destination, Some(NodeId(5)));
        assert!(!d.is_control());
        assert_eq!(d.size_bytes(), 512 + 20);
    }

    #[test]
    fn forwarding_updates_hop_state() {
        let p = Packet::data(NodeId(1), NodeId(5), 100);
        let f = p.forwarded_by(NodeId(2), Some(NodeId(3)));
        assert_eq!(f.prev_hop, NodeId(2));
        assert_eq!(f.next_hop, Some(NodeId(3)));
        assert_eq!(f.hops, 1);
        assert_eq!(f.ttl, DEFAULT_TTL - 1);
        assert_eq!(f.source, NodeId(1), "source never changes");
    }

    #[test]
    fn ttl_exhaustion() {
        let mut p = Packet::data(NodeId(1), NodeId(2), 10);
        p.ttl = 1;
        assert!(p.ttl_allows_forwarding());
        let f = p.forwarded_by(NodeId(3), None);
        assert!(!f.ttl_allows_forwarding());
        let g = f.forwarded_by(NodeId(4), None);
        assert_eq!(g.ttl, 0, "ttl saturates at zero");
    }

    #[test]
    fn geo_address_is_carried() {
        let mut p = Packet::data(NodeId(1), NodeId(2), 10);
        p.geo = Some(GeoAddress {
            position: Vec2::new(100.0, 50.0),
            zone_radius: 250.0,
        });
        assert_eq!(p.geo.unwrap().zone_radius, 250.0);
    }
}
