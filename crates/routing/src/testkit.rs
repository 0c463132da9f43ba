//! The one place protocol unit tests get a [`ProtocolContext`] from: a
//! [`Harness`] holds a fleet and everything else a context lends out, and
//! builds the context a callback on one of its nodes would see.

use crate::protocol::{ActionSink, ProtocolContext};
use vanet_mobility::{Position, Vec2, VehicleKind, VehicleState, Velocity};
use vanet_net::NeighborTable;
use vanet_sim::{NodeId, PacketIdAllocator, SimDuration, SimRng, SimTime};

/// A fleet indexed by [`NodeId::index`], as the driver keeps it, and the
/// services of the node whose callbacks a test drives.
pub(crate) struct Harness {
    /// The node the next [`Harness::ctx`] runs on. Tests that drive several
    /// nodes of one fleet switch it between callbacks.
    pub node: NodeId,
    pub fleet: Vec<VehicleState>,
    /// The neighbour table every context of this harness sees.
    pub neighbors: NeighborTable,
    pub rsu_ids: Vec<NodeId>,
    pub bus_ids: Vec<NodeId>,
    pub rng: SimRng,
    pub packet_ids: PacketIdAllocator,
    pub sink: ActionSink,
}

impl Harness {
    /// Node `id`, a car standing at the origin, in a fleet of stationary
    /// cars numbered up to it.
    pub fn new(id: u32) -> Self {
        let mut harness = Harness {
            node: NodeId(id),
            fleet: Vec::new(),
            neighbors: NeighborTable::new(),
            rsu_ids: Vec::new(),
            bus_ids: Vec::new(),
            rng: SimRng::new(1),
            packet_ids: PacketIdAllocator::new(),
            sink: ActionSink::new(),
        };
        harness.place(id, VehicleKind::Car, Vec2::ZERO, Vec2::ZERO);
        harness
    }

    /// Puts node `id` into the fleet, or moves it, with the given kind and
    /// kinematics. A fleet that has to grow is filled with stationary cars at
    /// the origin; road-side units and buses join the context's id lists.
    pub fn place(&mut self, id: u32, kind: VehicleKind, position: Position, velocity: Velocity) {
        let node = NodeId(id);
        let grown = self.fleet.len()..=node.index();
        self.fleet.extend(
            grown.map(|i| VehicleState::stationary(NodeId(i as u32), VehicleKind::Car, Vec2::ZERO)),
        );
        let mut state = VehicleState::stationary(node, kind, position);
        state.velocity = velocity;
        self.fleet[node.index()] = state;
        self.rsu_ids.retain(|&r| r != node);
        self.bus_ids.retain(|&b| b != node);
        let list = match kind {
            VehicleKind::RoadSideUnit => &mut self.rsu_ids,
            VehicleKind::Bus => &mut self.bus_ids,
            VehicleKind::Car => return,
        };
        list.push(node);
        list.sort_unstable();
    }

    /// Makes `id`, at `x` on the x axis driving at `vx`, a neighbour heard at
    /// time zero for ten seconds.
    pub fn add_neighbor(&mut self, id: u32, x: f64, vx: f64) {
        self.neighbors.observe(
            NodeId(id),
            Vec2::new(x, 0.0),
            Vec2::new(vx, 0.0),
            SimTime::ZERO,
            SimDuration::from_secs(10.0),
        );
    }

    /// The context a callback on [`Harness::node`] sees `now` seconds in.
    pub fn ctx(&mut self, now: f64) -> ProtocolContext<'_> {
        ProtocolContext {
            node: self.node,
            now: SimTime::from_secs(now),
            fleet: &self.fleet,
            neighbors: (&self.neighbors).into(),
            range_m: 250.0,
            rsu_ids: &self.rsu_ids,
            bus_ids: &self.bus_ids,
            rng: &mut self.rng,
            packet_ids: &mut self.packet_ids,
            actions: &mut self.sink,
        }
    }
}
