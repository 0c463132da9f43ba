//! The simulation driver: wires mobility, the wireless medium, the beaconing
//! service, application traffic and one routing-protocol instance per node,
//! and collects the metrics every experiment is built from.

use crate::counters::EngineCounters;
use crate::fault::FaultKind;
use crate::metrics::{Metrics, Report};
use crate::scenario::{ChannelModel, Scenario};
use crate::taxonomy::ProtocolKind;
use crate::telemetry::{NoTelemetry, Telemetry};
use std::collections::VecDeque;
use vanet_mobility::{MobilityModel, Position, VehicleKind, VehicleState};
use vanet_net::{
    ArenaTable, BeaconConfig, Delivery, LogNormalShadowing, Medium, MediumConfig, NeighborArena,
    Packet, PacketKind, Reception, SpatialGrid, UnitDisk,
};
use vanet_routing::{Action, ActionSink, ProtocolContext, RoutingProtocol};
use vanet_sim::{
    EventKey, FlowId, NodeId, PacketIdAllocator, Scheduler, SimDuration, SimRng, SimTime,
};

/// One constant-bit-rate application flow.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flow {
    id: FlowId,
    source: NodeId,
    destination: NodeId,
}

/// Scheduler payload. Packets never ride in it — a frame in flight is an
/// index into the slab, a backbone packet waits in the backbone FIFO — so
/// every variant carries at most a `u32` and a queue entry is its 16-byte
/// [`EventKey`] plus 8 bytes of payload.
#[derive(Debug)]
enum Event {
    MobilityStep,
    /// Per-node maintenance deadline (replaces the old fleet-wide `Tick`):
    /// lazy neighbour-lease purge, neighbour-count sample, `on_tick`. Rides
    /// the batched timer wheel like beacons do.
    Maintain(NodeId),
    Beacon(NodeId),
    /// The next packet of a flow: index into `flows`.
    FlowSend(u32),
    /// A transmitted frame reaching its receivers: index into the in-flight
    /// slab (see [`Frame`]). One queued entry stands for every reception
    /// still to come; each reception is still one processed event, at
    /// exactly its own [`EventKey`].
    Frame(u32),
    /// A backbone packet reaching the named RSU: the front of
    /// `Simulation::backbone`, which holds the packet.
    BackboneArrival(NodeId),
    /// A scheduled fault transition: index into the pre-built fault
    /// timeline. Fault transitions are first-class events riding the same
    /// `(time, seq)` discipline as everything else, so runs with a fault
    /// plan are deterministic across runs, workers and shards.
    Fault(u32),
}

const _: () = assert!(std::mem::size_of::<Event>() == 8);

/// One reception of an in-flight frame.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// The arrival time and the sequence number an event scheduled for this
    /// reception alone would carry: the frame's first reserved number plus
    /// the reception's index in the medium's delivery order.
    key: EventKey,
    receiver: NodeId,
    intended: bool,
}

/// A transmitted frame and the receptions it still owes. The frame is
/// queued once, under its soonest reception's key. Until that pops, `hops`
/// are in the medium's delivery (ascending-id) order; at the first pop
/// [`Simulation::deliver_frame`] either delivers every reception in one pass
/// or sorts `hops` into key order and delivers hop by hop, re-queuing the
/// frame under its next reception's key whenever something else is due
/// first. Slots are recycled through `free_frames`, `hops` keeping its
/// allocation.
#[derive(Debug, Default)]
struct Frame {
    /// `None` while the slot is free.
    packet: Option<Packet>,
    hops: Vec<Hop>,
    /// Index into `hops` of the reception with the largest key.
    last: usize,
    /// Index into the sorted `hops` of the next reception; 0 until the
    /// first pop, which is when `hops` get sorted.
    next: usize,
}

/// What one reception of a frame delivered in one pass did, kept for the
/// tap's key-order replay ([`Simulation::replay_receptions`]).
#[derive(Debug, Clone, Copy)]
struct Outcome {
    key: EventKey,
    receiver: NodeId,
    /// Whether the reception inserted the sender; `None` when the
    /// receiver's radio was down and the frame was lost.
    gained: Option<bool>,
}

/// Whether a reception of `packet` runs protocol code. A HELLO reception
/// only refreshes the receiver's neighbour entry for its sender and
/// schedules nothing, so the receptions of one HELLO frame commute.
fn runs_protocol_code(packet: &Packet) -> bool {
    packet.kind != PacketKind::Hello
}

/// One pre-resolved fault transition (what `Event::Fault` executes).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    /// Node's radio goes dark (vehicle or RSU outage begins).
    NodeDown(NodeId),
    /// Node's radio recovers.
    NodeUp(NodeId),
    /// A medium fault-overlay zone (jam / burst loss) activates.
    ZoneOn(usize),
    /// A medium fault-overlay zone deactivates.
    ZoneOff(usize),
    /// A chaos fault: panic the worker, deterministically.
    Poison,
}

/// Per-node control state, at the node's [`NodeId::index`]. Kinematics live
/// in the simulation's `states`, neighbour handles in its `neighbor_tables`
/// and neighbour entries in the shared [`NeighborArena`], so this is a
/// protocol and an RNG and the fleet's node array is cache-dense.
struct NodeRuntime {
    protocol: Box<dyn RoutingProtocol + Send>,
    rng: SimRng,
}

/// A complete, runnable simulation of one scenario with one protocol.
///
/// Generic over a [`Telemetry`] tap; the default [`NoTelemetry`]
/// instantiation monomorphises every hook call to nothing, so the hot path
/// is untouched unless a tap is attached via
/// [`Simulation::with_telemetry`].
pub struct Simulation<T: Telemetry = NoTelemetry> {
    scenario: Scenario,
    mobility: Box<dyn MobilityModel + Send>,
    mobility_rng: SimRng,
    nodes: Vec<NodeRuntime>,
    /// Fleet-shared neighbour storage: every node's entries live in two
    /// slabs (index-linked key blocks, one payload per neighbour) instead of
    /// a `Vec` per node, so start-up makes two allocations instead of a
    /// million.
    neighbor_arena: NeighborArena,
    /// Every node's handle into `neighbor_arena`, indexed by
    /// `NodeId::index()`: one dense column, so a frame's batch observe
    /// reads its receivers' handles from 16-byte entries.
    neighbor_tables: Vec<ArenaTable>,
    /// Every node's kinematics — vehicles, then RSUs — indexed by
    /// `NodeId::index()`: the fleet's only copy, since the mobility model
    /// keeps no snapshot and computes each vehicle's state when asked. The
    /// mobility step writes each vehicle's entry once; the medium, grid and
    /// telemetry read positions from it, and protocols see it as
    /// `ProtocolContext::fleet`.
    states: Vec<VehicleState>,
    rsu_ids: Vec<NodeId>,
    bus_ids: Vec<NodeId>,
    medium: Medium,
    medium_rng: SimRng,
    /// Spatial index over current node positions. Built once at start-up and
    /// maintained incrementally: every mobility step feeds per-node position
    /// deltas into [`SpatialGrid::update`] (a full rebuild would only be
    /// needed if the cell size — the propagation model's maximum range —
    /// changed mid-run, which it never does).
    grid: SpatialGrid,
    scheduler: Scheduler<Event>,
    packet_ids: PacketIdAllocator,
    metrics: Metrics,
    flows: Vec<Flow>,
    beacon_config: BeaconConfig,
    protocol_name: String,
    /// Reusable sink protocol callbacks push actions into.
    sink: ActionSink,
    /// Scratch buffer the sink is drained into (ping-ponged with the sink's
    /// own buffer, so draining allocates nothing in steady state).
    action_scratch: Vec<Action>,
    /// Reusable buffer for `Medium::transmit_indexed_into`.
    delivery_buf: Vec<Delivery>,
    /// Frames in flight, indexed by `Event::Frame`; grows to the largest
    /// number ever in flight at once (tens to hundreds) and stays there.
    frames: Vec<Frame>,
    /// Slots of `frames` whose frame has been fully delivered.
    free_frames: Vec<u32>,
    /// Backbone packets in flight, in send order, each with its receiving
    /// RSU; `Event::BackboneArrival` pops the front. Send order is arrival
    /// order: the backbone latency is one constant per run and sends happen
    /// at non-decreasing times, so arrival keys ascend in send order (ties
    /// by sequence number, drawn in send order too). Arrivals past the
    /// horizon never fire, and they are always a suffix of the queue.
    backbone: VecDeque<(NodeId, Packet)>,
    /// The counters the run loop keeps itself: frames begun, in one pass
    /// and sorted. [`Simulation::counters`] reads every other field off the
    /// layers.
    loop_counts: EngineCounters,
    /// Reusable buffer for a one-pass frame's batch observe.
    receptions: Vec<Reception>,
    /// Reusable buffer for a one-pass frame's tap replay.
    outcomes: Vec<Outcome>,
    /// Reusable buffer for expired-neighbour ids during a maintenance event
    /// (ping-ponged around `dispatch`, so purges allocate nothing).
    lost_scratch: Vec<NodeId>,
    /// Pre-resolved fault transitions, scheduled as `Event::Fault(index)`.
    fault_timeline: Vec<(SimTime, FaultAction)>,
    /// Per-node outage flag, indexed by `NodeId::index()`. Only consulted
    /// when `faults_enabled`, so fault-free runs pay one branch on a
    /// false bool per transmit/arrival.
    node_down: Vec<bool>,
    /// Whether the scenario has a non-empty fault plan.
    faults_enabled: bool,
    /// Streaming observation tap (zero-sized no-op by default).
    telemetry: T,
}

impl<T: Telemetry> std::fmt::Debug for Simulation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scenario", &self.scenario.name)
            .field("protocol", &self.protocol_name)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation of `scenario` where every node runs a fresh
    /// instance of `kind`.
    #[must_use]
    pub fn new(scenario: Scenario, kind: ProtocolKind) -> Self {
        let dtn = scenario.dtn;
        Self::with_factory(scenario, &move || kind.build_with(dtn))
    }

    /// Builds a simulation with a custom protocol factory (one call per node).
    #[must_use]
    pub fn with_factory(
        scenario: Scenario,
        factory: &dyn Fn() -> Box<dyn RoutingProtocol + Send>,
    ) -> Self {
        Self::build(scenario, &|| factory(), NoTelemetry)
    }
}

impl<T: Telemetry> Simulation<T> {
    /// Builds a simulation with a streaming telemetry tap attached. The
    /// event stream is identical to the untapped run — the tap only
    /// observes — so reports stay byte-identical with and without it.
    #[must_use]
    pub fn with_telemetry(scenario: Scenario, kind: ProtocolKind, telemetry: T) -> Self {
        let dtn = scenario.dtn;
        Self::build(scenario, &move || kind.build_with(dtn), telemetry)
    }

    fn build(
        scenario: Scenario,
        factory: &dyn Fn() -> Box<dyn RoutingProtocol + Send>,
        mut telemetry: T,
    ) -> Self {
        let master = SimRng::new(scenario.seed);
        let mut mobility_rng = master.derive("mobility");
        let medium_rng = master.derive("medium");
        let mut traffic_rng = master.derive("traffic");

        let mobility = scenario.build_mobility(&mut mobility_rng);
        let bounds = mobility.bounds();
        telemetry.on_start(bounds.min, bounds.max, scenario.duration);

        // `states`, `nodes` and every per-node table are indexed by id, and
        // RSUs are numbered after the vehicles.
        let vehicle_count = mobility.len();
        let node_count = vehicle_count + scenario.rsu_count;
        let mut states = Vec::with_capacity(node_count);
        for i in 0..vehicle_count {
            let state = mobility.state(i);
            assert!(
                state.id.index() == i,
                "scenario '{}': vehicle {i} has id {}; vehicle ids must run 0, 1, 2, ...",
                scenario.name,
                state.id.0
            );
            states.push(state);
        }
        // Road-side units are placed evenly along the scenario's x extent.
        for i in 0..scenario.rsu_count {
            let frac = (i as f64 + 0.5) / scenario.rsu_count as f64;
            let pos = Position::new(bounds.min.x + frac * bounds.width(), bounds.center().y);
            states.push(VehicleState::stationary(
                NodeId((vehicle_count + i) as u32),
                VehicleKind::RoadSideUnit,
                pos,
            ));
        }

        let mut nodes = Vec::with_capacity(node_count);
        let mut rsu_ids = Vec::new();
        let mut bus_ids = Vec::new();
        for state in &states {
            match state.kind {
                VehicleKind::RoadSideUnit => rsu_ids.push(state.id),
                VehicleKind::Bus => bus_ids.push(state.id),
                VehicleKind::Car => {}
            }
            nodes.push(NodeRuntime {
                protocol: factory(),
                rng: master.derive_index("node", u64::from(state.id.0)),
            });
        }
        let protocol_name = nodes
            .first()
            .map(|n| n.protocol.name().to_owned())
            .unwrap_or_else(|| "none".to_owned());

        let propagation: Box<dyn vanet_net::PropagationModel + Send> = match scenario.channel {
            ChannelModel::UnitDisk => Box::new(UnitDisk::new(scenario.radio_range_m)),
            ChannelModel::Shadowing { alpha, sigma_db } => Box::new(LogNormalShadowing::new(
                scenario.radio_range_m,
                alpha,
                sigma_db,
            )),
        };
        let mut medium = Medium::new(
            MediumConfig {
                mac: scenario.mac,
                promiscuous: true,
            },
            propagation,
        );

        // Application flows between random distinct vehicle pairs.
        let mut flows = Vec::new();
        if vehicle_count >= 2 {
            for i in 0..scenario.flows {
                let src = traffic_rng.uniform_usize(vehicle_count);
                let mut dst = traffic_rng.uniform_usize(vehicle_count);
                while dst == src {
                    dst = traffic_rng.uniform_usize(vehicle_count);
                }
                flows.push(Flow {
                    id: FlowId(i as u32),
                    source: NodeId(src as u32),
                    destination: NodeId(dst as u32),
                });
            }
        }

        // Pre-size every hot-path container from the scenario itself, so a
        // megacity-scale start-up makes its big allocations once instead of
        // paying a reallocation ramp while the caches are cold. The expected
        // neighbourhood is the uniform-density estimate `density × π r²`,
        // capped at the fleet size.
        let max_range = medium.propagation().max_range();
        let area = (bounds.width() * bounds.height()).max(1.0);
        let expected_neighbors =
            ((node_count as f64 / area) * std::f64::consts::PI * max_range * max_range)
                .ceil()
                .min(node_count as f64);
        // A grid query returns the in-range nodes only — one neighbourhood.
        // The factor of three is headroom: vehicles bunch well above the
        // uniform estimate (platoons, junctions), and the medium sizes its
        // contention-window snapshot from the same figure.
        let expected_candidates = (expected_neighbors * 3.0) as usize + 16;
        medium.reserve_for_neighborhood(expected_candidates);
        // Room for a spill block per node on top of its expected chain, each
        // block with a payload slot per key and two adverts: no slab
        // doubles mid-run, and reserving first-touches nothing.
        let neighbor_arena = NeighborArena::with_block_capacity(NeighborArena::blocks_for(
            node_count,
            expected_neighbors,
        ));

        // Resolve the fault plan into a concrete timeline: node ids for
        // outages, pre-registered medium overlay zones for jams and burst
        // loss. Transitions at/after the horizon are dropped here, so the
        // run loop never re-checks them. An empty plan builds nothing — the
        // engine is byte-identical to one without fault support.
        let faults_enabled = !scenario.faults.is_empty();
        let mut fault_timeline: Vec<(SimTime, FaultAction)> = Vec::new();
        if faults_enabled {
            scenario
                .faults
                .validate()
                .and_then(|()| {
                    scenario
                        .faults
                        .validate_targets(vehicle_count, scenario.rsu_count)
                })
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            let horizon = SimTime::ZERO + scenario.duration;
            let regions = scenario.faults.regions_per_axis;
            let cell_w = bounds.width() / regions as f64;
            let cell_h = bounds.height() / regions as f64;
            for fault in &scenario.faults.faults {
                let (down, up) = match fault.kind {
                    FaultKind::NodeOutage { node } => {
                        let id = NodeId(node);
                        (FaultAction::NodeDown(id), FaultAction::NodeUp(id))
                    }
                    FaultKind::RsuOutage { rsu } => {
                        let id = NodeId((vehicle_count + rsu as usize) as u32);
                        (FaultAction::NodeDown(id), FaultAction::NodeUp(id))
                    }
                    FaultKind::Jam { region, loss } => {
                        let rx = region as usize % regions;
                        let ry = region as usize / regions;
                        let min = Position::new(
                            bounds.min.x + rx as f64 * cell_w,
                            bounds.min.y + ry as f64 * cell_h,
                        );
                        let max = Position::new(min.x + cell_w, min.y + cell_h);
                        let slot = medium.add_fault_zone(min, max, loss);
                        (FaultAction::ZoneOn(slot), FaultAction::ZoneOff(slot))
                    }
                    FaultKind::BurstLoss { loss } => {
                        let everywhere = f64::INFINITY;
                        let slot = medium.add_fault_zone(
                            Position::new(-everywhere, -everywhere),
                            Position::new(everywhere, everywhere),
                            loss,
                        );
                        (FaultAction::ZoneOn(slot), FaultAction::ZoneOff(slot))
                    }
                    // A poison never recovers, so the up action is never
                    // scheduled (its window end is infinite by construction).
                    FaultKind::Poison => (FaultAction::Poison, FaultAction::Poison),
                };
                let start = SimTime::ZERO + SimDuration::from_secs(fault.start_s);
                if start < horizon {
                    fault_timeline.push((start, down));
                    if fault.end_s.is_finite() {
                        let end = SimTime::ZERO + SimDuration::from_secs(fault.end_s);
                        if end < horizon {
                            fault_timeline.push((end, up));
                        }
                    }
                }
            }
        }

        let mut sim = Simulation {
            scheduler: Scheduler::with_horizon(SimTime::ZERO + scenario.duration),
            scenario,
            mobility,
            mobility_rng,
            nodes,
            neighbor_arena,
            neighbor_tables: vec![ArenaTable::new(); node_count],
            states,
            rsu_ids,
            bus_ids,
            medium,
            medium_rng,
            grid: SpatialGrid::default(),
            packet_ids: PacketIdAllocator::new(),
            metrics: Metrics::new(),
            flows,
            beacon_config: BeaconConfig::default(),
            protocol_name,
            sink: ActionSink::with_capacity(32),
            action_scratch: Vec::with_capacity(32),
            delivery_buf: Vec::with_capacity(expected_neighbors as usize + 16),
            frames: Vec::new(),
            free_frames: Vec::new(),
            backbone: VecDeque::new(),
            loop_counts: EngineCounters::default(),
            receptions: Vec::with_capacity(expected_neighbors as usize + 16),
            outcomes: Vec::new(),
            lost_scratch: Vec::with_capacity(64),
            fault_timeline,
            node_down: vec![false; node_count],
            faults_enabled,
            telemetry,
        };
        // Beacons and per-node maintenance deadlines go through the
        // scheduler's timer wheel: a slot push instead of one heap entry per
        // node. The shortest delay a timer on it re-arms with is a tick for
        // a maintenance deadline and, for a beacon, its interval jittered
        // down by half the jitter fraction (every node runs the same
        // protocol, so the first one's interval is the fleet's). A slot just
        // narrower than that means a timer fired from the activated, already
        // sorted slot always re-arms into a later one — an append, never a
        // splice into a fleet-sized vector (the `wheel_splices` counter
        // stays 0). Just narrower, not half: the fleet's first beacons then fill
        // one slot front to back, where two half-width slots growing in turn
        // make every doubling of either a copy (set-up 7–15 % slower at
        // 10k–100k nodes, the run no faster).
        let beacon_interval = sim.nodes.first().and_then(|n| n.protocol.beacon_interval());
        let shortest_rearm = beacon_interval.map_or(sim.scenario.tick_interval, |interval| {
            let shortest_beacon = interval * (1.0 - sim.beacon_config.jitter_fraction / 2.0);
            shortest_beacon.min(sim.scenario.tick_interval)
        });
        sim.scheduler.enable_batching(shortest_rearm * 0.99);
        sim.build_grid();
        sim.schedule_initial_events(&mut traffic_rng);
        sim
    }

    /// Builds the spatial index from the current node positions — once, at
    /// start-up; mobility steps keep it current via [`SpatialGrid::update`].
    /// Node ids ascend in `states` order, so the build appends every id to
    /// its vertex lists without a sort, and each grid query yields the
    /// candidate nodes in exactly the order the exhaustive scan visits
    /// them.
    fn build_grid(&mut self) {
        let positions: Vec<(NodeId, Position)> =
            self.states.iter().map(|s| (s.id, s.position)).collect();
        self.grid = SpatialGrid::build(self.medium.propagation().max_range(), &positions);
    }

    fn schedule_initial_events(&mut self, traffic_rng: &mut SimRng) {
        self.scheduler
            .schedule_after(self.scenario.mobility_step, Event::MobilityStep);
        // One maintenance deadline per node, scheduled in ascending node
        // order so same-timestamp wheel entries fire in exactly the order
        // the old fleet-wide `Tick` loop visited the nodes.
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            self.scheduler
                .schedule_batched_after(self.scenario.tick_interval, Event::Maintain(id));
        }
        for i in 0..self.nodes.len() {
            if let Some(interval) = self.nodes[i].protocol.beacon_interval() {
                let jitter = interval * traffic_rng.uniform_range(0.0, 1.0);
                let id = NodeId(i as u32);
                self.scheduler
                    .schedule_batched_after(jitter, Event::Beacon(id));
            }
        }
        for (i, _flow) in self.flows.iter().enumerate() {
            let offset = self.scenario.warmup
                + self.scenario.packet_interval * traffic_rng.uniform_range(0.0, 1.0);
            let i = u32::try_from(i).expect("flow count fits u32");
            self.scheduler.schedule_after(offset, Event::FlowSend(i));
        }
        // Fault transitions are scheduled last, and only for a non-empty
        // plan, so the sequence numbers of every other initial event — and
        // with them the entire fault-free event order — are unchanged.
        for (index, &(time, _)) in self.fault_timeline.iter().enumerate() {
            let index = u32::try_from(index).expect("fault timeline fits u32");
            self.scheduler
                .schedule_at(time, Event::Fault(index))
                .expect("fault times are validated non-negative");
        }
    }

    /// Total number of nodes (vehicles + RSUs).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of scheduler events processed so far:
    /// [`EngineCounters::events`], read without building the rest of the
    /// record. Kept only because the repo benchmark
    /// (`benchmark/src/child.rs`, `benchmark/src/trace.rs`) calls it; it goes
    /// when the benchmark reads [`Simulation::counters`] instead.
    #[must_use]
    pub fn processed_events(&self) -> u64 {
        self.scheduler.processed_events()
    }

    /// The engine's self-metrics so far: scheduler, neighbour arena, grid,
    /// medium and run-loop counts in one record.
    #[must_use]
    pub fn counters(&self) -> EngineCounters {
        let arena = self.neighbor_arena.occupancy();
        let grid = self.grid.occupancy();
        let interference = self.medium.interference_counts();
        let window = self.medium.window_counts();
        let held: usize = self.neighbor_tables.iter().map(ArenaTable::len).sum();
        EngineCounters {
            events: self.scheduler.processed_events(),
            wheel_splices: self.scheduler.wheel_splices(),
            entries_held: held as u64,
            blocks_live: arena.blocks_live as u64,
            blocks_free: arena.blocks_free as u64,
            slots_live: arena.slots_live as u64,
            slots_free: arena.slots_free as u64,
            adverts_live: arena.adverts_live as u64,
            adverts_free: arena.adverts_free as u64,
            slab_bytes: arena.slab_bytes() as u64,
            grid_lists: grid.lists as u64,
            grid_entries: grid.entries as u64,
            grid_longest: grid.longest as u64,
            medium_frames: interference.frames,
            continued: interference.continued,
            receivers: interference.receivers,
            bracketed: interference.bracketed,
            decided: interference.decided,
            scanned: interference.scanned,
            snapshots: window.snapshots,
            window_entries: window.entries,
            copies: window.copies,
            slab_peak: self.frames.len() as u64,
            ..self.loop_counts
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&mut self) -> Report {
        while let Some((now, event)) = self.scheduler.next_event() {
            self.telemetry.on_event(now, self.medium.stats());
            self.handle_event(now, event);
        }
        let end = SimTime::ZERO + self.scenario.duration;
        self.telemetry.on_finish(end, self.medium.stats());
        self.metrics
            .report(self.protocol_name.clone(), self.scenario.name.clone())
    }

    /// The attached telemetry tap.
    #[must_use]
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// Consumes the simulation and returns the tap (for flushing after
    /// [`Simulation::run`]).
    #[must_use]
    pub fn into_telemetry(self) -> T {
        self.telemetry
    }

    fn node_index(&self, id: NodeId) -> usize {
        id.index()
    }

    /// Whether `idx`'s radio is currently disabled by a scheduled fault.
    /// `faults_enabled` short-circuits first, so fault-free runs pay a
    /// single always-false branch.
    #[inline]
    fn node_is_down(&self, idx: usize) -> bool {
        self.faults_enabled && self.node_down[idx]
    }

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::MobilityStep => {
                self.mobility
                    .step(self.scenario.mobility_step, &mut self.mobility_rng);
                // Position deltas feed the spatial index directly — no
                // per-step position collect, no rebuild. RSUs are not part
                // of the mobility model and simply stay in their cells.
                for i in 0..self.mobility.len() {
                    let state = self.mobility.state(i);
                    let slot = &mut self.states[state.id.index()];
                    if slot.position != state.position {
                        self.grid.update(state.id, slot.position, state.position);
                    }
                    *slot = state;
                }
                self.scheduler
                    .schedule_after(self.scenario.mobility_step, Event::MobilityStep);
            }
            Event::Maintain(node_id) => {
                // Per-node maintenance, byte-identical to one iteration of
                // the old fleet-wide `Tick` loop: lazy lease purge (an O(1)
                // deadline check for most nodes), the post-purge neighbour-
                // count sample, loss callbacks in ascending neighbour order,
                // then the protocol's periodic tick.
                let idx = self.node_index(node_id);
                let mut lost = std::mem::take(&mut self.lost_scratch);
                lost.clear();
                self.neighbor_arena
                    .purge_due(&mut self.neighbor_tables[idx], now, &mut lost);
                if !lost.is_empty() {
                    self.telemetry.on_neighbor_lost(now, lost.len());
                }
                let count = self.neighbor_tables[idx].len();
                self.metrics.record_neighbor_count(count);
                for &neighbor in &lost {
                    self.dispatch(idx, now, |p, ctx| p.on_neighbor_lost(ctx, neighbor));
                }
                self.lost_scratch = lost;
                self.dispatch(idx, now, |p, ctx| p.on_tick(ctx));
                self.scheduler
                    .schedule_batched_after(self.scenario.tick_interval, Event::Maintain(node_id));
            }
            Event::Beacon(node_id) => {
                let idx = self.node_index(node_id);
                let Some(interval) = self.nodes[idx].protocol.beacon_interval() else {
                    return;
                };
                let mut hello = Packet::broadcast(node_id, PacketKind::Hello, 0);
                hello.id = self.packet_ids.allocate();
                hello.created_at = now;
                hello.sender_position = Some(self.states[idx].position);
                hello.sender_velocity = Some(self.states[idx].velocity);
                self.transmit(idx, now, hello);
                let jitter = 1.0
                    + self.beacon_config.jitter_fraction * (self.nodes[idx].rng.uniform() - 0.5);
                self.scheduler
                    .schedule_batched_after(interval * jitter, Event::Beacon(node_id));
            }
            Event::FlowSend(flow_idx) => {
                let flow = self.flows[flow_idx as usize];
                let mut packet =
                    Packet::data(flow.source, flow.destination, self.scenario.payload_bytes);
                packet.id = self.packet_ids.allocate();
                packet.created_at = now;
                packet.flow = Some(flow.id);
                self.metrics.record_origination(packet.id, now);
                self.telemetry.on_origination(now);
                let idx = self.node_index(flow.source);
                self.dispatch(idx, now, |p, ctx| p.originate(ctx, packet));
                self.scheduler
                    .schedule_after(self.scenario.packet_interval, Event::FlowSend(flow_idx));
            }
            Event::Frame(slot) => self.deliver_frame(now, slot),
            Event::BackboneArrival(receiver) => {
                let (to, packet) = self
                    .backbone
                    .pop_front()
                    .expect("a backbone arrival has its packet queued");
                debug_assert_eq!(to, receiver, "backbone arrivals fire in send order");
                let idx = self.node_index(receiver);
                if self.node_is_down(idx) {
                    self.telemetry.on_fault_drop(now, self.states[idx].position);
                    return;
                }
                self.dispatch(idx, now, |p, ctx| p.on_packet(ctx, &packet, false));
            }
            Event::Fault(index) => {
                let (_, action) = self.fault_timeline[index as usize];
                match action {
                    FaultAction::NodeDown(id) => {
                        self.node_down[id.index()] = true;
                        self.telemetry.on_outage(now, true);
                    }
                    FaultAction::NodeUp(id) => {
                        self.node_down[id.index()] = false;
                        self.telemetry.on_outage(now, false);
                    }
                    FaultAction::ZoneOn(slot) => {
                        self.medium.set_fault_zone_active(slot, true);
                        self.telemetry.on_outage(now, true);
                    }
                    FaultAction::ZoneOff(slot) => {
                        self.medium.set_fault_zone_active(slot, false);
                        self.telemetry.on_outage(now, false);
                    }
                    FaultAction::Poison => {
                        panic!(
                            "poison fault fired at {:.3}s in scenario '{}'",
                            now.as_secs(),
                            self.scenario.name
                        );
                    }
                }
            }
        }
    }

    /// Delivers frame `slot`, whose next reception is due `now`.
    ///
    /// At the frame's first pop, a frame whose receptions run no protocol
    /// code (a HELLO) goes in one pass when [`Scheduler::advance_if_next`]
    /// confirms that nothing is due before its last reception: nothing a
    /// reception does can change that, so every reception fires where it
    /// would have, with no sort ([`Simulation::deliver_in_one_pass`]).
    /// Otherwise the receptions are sorted into key order, once, and
    /// delivered one by one for as long as the scheduler confirms each is
    /// the next event of the whole simulation. When something else is due
    /// first — a timer, a fault, another frame's reception, an event a
    /// handler here just scheduled — or the horizon falls in between, the
    /// frame goes back into the queue under its next reception's own key
    /// and resumes when that surfaces: the receptions fire in exactly the
    /// key order they would as individually scheduled events.
    fn deliver_frame(&mut self, mut now: SimTime, slot: u32) {
        // Out of the slab while handlers run: a reception may transmit, and
        // that claims a slot and may grow the slab.
        let mut frame = std::mem::take(&mut self.frames[slot as usize]);
        let packet = frame.packet.take().expect("a queued frame holds a packet");
        if frame.next == 0 {
            self.loop_counts.frames += 1;
            let last = frame.hops[frame.last].key;
            let rest = frame.hops.len() as u64 - 1;
            if !runs_protocol_code(&packet) && self.scheduler.advance_if_next(last, rest) {
                self.loop_counts.one_pass += 1;
                self.deliver_in_one_pass(&frame.hops, &packet);
                self.free_frame(slot, frame);
                return;
            }
            self.loop_counts.sorted += 1;
            frame.hops.sort_unstable_by_key(|hop| hop.key);
        }
        loop {
            let hop = frame.hops[frame.next];
            frame.next += 1;
            self.receive(now, hop.receiver, &packet, hop.intended);
            let Some(next) = frame.hops.get(frame.next) else {
                break;
            };
            if !self.scheduler.advance_if_next(next.key, 1) {
                self.scheduler.schedule_keyed(next.key, Event::Frame(slot));
                frame.packet = Some(packet);
                self.frames[slot as usize] = frame;
                return;
            }
            now = next.key.time();
            self.telemetry.on_event(now, self.medium.stats());
        }
        self.free_frame(slot, frame);
    }

    /// Returns a delivered frame's slot to the free list, `hops` keeping
    /// its allocation.
    fn free_frame(&mut self, slot: u32, mut frame: Frame) {
        frame.hops.clear();
        frame.next = 0;
        self.frames[slot as usize] = frame;
        self.free_frames.push(slot);
    }

    /// Delivers every reception of a frame whose receptions run no protocol
    /// code, the scheduler having already counted them and advanced the
    /// clock past the last. A receiver whose radio is down loses the frame,
    /// as in [`Simulation::receive`]; every other refreshes its entry for
    /// the sender, all in one [`NeighborArena::observe_batch`] in delivery
    /// order. Fault state cannot change in between: a fault transition is
    /// an event, and none was due. A tap then sees the receptions replayed
    /// in key order ([`Simulation::replay_receptions`]).
    fn deliver_in_one_pass(&mut self, hops: &[Hop], packet: &Packet) {
        let mut receptions = std::mem::take(&mut self.receptions);
        receptions.clear();
        if let (Some(pos), Some(vel)) = (packet.sender_position, packet.sender_velocity) {
            receptions.extend(
                hops.iter()
                    .filter(|hop| !self.node_is_down(hop.receiver.index()))
                    .map(|hop| Reception::new(hop.receiver.index(), hop.key.time())),
            );
            self.neighbor_arena.observe_batch(
                &mut self.neighbor_tables,
                packet.prev_hop,
                pos,
                vel,
                self.beacon_config.lifetime,
                &mut receptions,
            );
        }
        if T::ENABLED {
            self.replay_receptions(hops, &receptions);
        }
        self.receptions = receptions;
    }

    /// Raises the hooks of a one-pass frame's receptions exactly as the
    /// per-hop loop and [`Simulation::receive`] would have: hop by hop in
    /// key order, `on_event` before every hop but the first (whose event the
    /// run loop announced), then `on_fault_drop` for a receiver whose radio
    /// is down, else `on_neighbor_gained` if the reception inserted the
    /// sender followed by `on_receive`. `receptions` are the batch's, one
    /// per hop whose receiver is up, in hop order.
    fn replay_receptions(&mut self, hops: &[Hop], receptions: &[Reception]) {
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.clear();
        let mut observed = receptions.iter();
        for hop in hops {
            let up = !self.node_is_down(hop.receiver.index());
            outcomes.push(Outcome {
                key: hop.key,
                receiver: hop.receiver,
                gained: up.then(|| observed.next().is_some_and(Reception::gained)),
            });
        }
        outcomes.sort_unstable_by_key(|outcome| outcome.key);
        for (i, outcome) in outcomes.iter().enumerate() {
            let now = outcome.key.time();
            if i > 0 {
                self.telemetry.on_event(now, self.medium.stats());
            }
            let position = self.states[outcome.receiver.index()].position;
            match outcome.gained {
                None => self.telemetry.on_fault_drop(now, position),
                Some(gained) => {
                    if gained {
                        self.telemetry.on_neighbor_gained(now);
                    }
                    self.telemetry.on_receive(now, position);
                }
            }
        }
        self.outcomes = outcomes;
    }

    /// One reception: `packet` finishes arriving at `receiver`. The one-pass
    /// path ([`Simulation::deliver_in_one_pass`]) does what this does, for
    /// a whole frame whose receptions run no protocol code.
    fn receive(&mut self, now: SimTime, receiver: NodeId, packet: &Packet, intended: bool) {
        let idx = self.node_index(receiver);
        // A frame arriving at a node whose radio a fault disabled is
        // silently lost: no reception, no neighbour refresh — the
        // protocol only ever observes the outage as missing frames
        // and expiring neighbour leases.
        if self.node_is_down(idx) {
            self.telemetry.on_fault_drop(now, self.states[idx].position);
            return;
        }
        // Every received frame refreshes the neighbour entry for its
        // transmitter (overhearing counts as neighbour awareness).
        if let (Some(pos), Some(vel)) = (packet.sender_position, packet.sender_velocity) {
            let lifetime = self.beacon_config.lifetime;
            let gained = self.neighbor_arena.observe(
                &mut self.neighbor_tables[idx],
                packet.prev_hop,
                pos,
                vel,
                now,
                lifetime,
            );
            if gained {
                self.telemetry.on_neighbor_gained(now);
            }
        }
        self.telemetry.on_receive(now, self.states[idx].position);
        if runs_protocol_code(packet) {
            self.dispatch(idx, now, |p, ctx| p.on_packet(ctx, packet, !intended));
        }
    }

    /// Runs one protocol callback with the shared [`ActionSink`] in the
    /// context, then carries out whatever the callback queued.
    fn dispatch<F>(&mut self, idx: usize, now: SimTime, f: F)
    where
        F: FnOnce(&mut (dyn RoutingProtocol + Send), &mut ProtocolContext<'_>),
    {
        debug_assert!(self.sink.is_empty(), "sink drained after every callback");
        let range_m = self.scenario.radio_range_m;
        let node = &mut self.nodes[idx];
        let mut ctx = ProtocolContext {
            node: NodeId(idx as u32),
            now,
            fleet: &self.states,
            neighbors: self.neighbor_arena.view(&self.neighbor_tables[idx]),
            range_m,
            rsu_ids: &self.rsu_ids,
            bus_ids: &self.bus_ids,
            rng: &mut node.rng,
            packet_ids: &mut self.packet_ids,
            actions: &mut self.sink,
        };
        f(node.protocol.as_mut(), &mut ctx);
        self.process_actions(idx, now);
    }

    /// Hands `packet` from node `sender_idx` to the medium and queues the
    /// resulting frame, if anyone receives it: one [`Frame`] in the slab,
    /// its receptions in the medium's delivery order, one queue entry under
    /// the soonest reception's key. Nothing is sorted here;
    /// [`Simulation::deliver_frame`] decides at the first pop.
    fn transmit(&mut self, sender_idx: usize, now: SimTime, packet: Packet) {
        // A down radio transmits nothing: the frame vanishes before it
        // reaches the metrics or the medium, exactly as if the hardware
        // were powered off.
        if self.node_is_down(sender_idx) {
            self.telemetry
                .on_fault_drop(now, self.states[sender_idx].position);
            return;
        }
        self.record_send(
            now,
            sender_idx,
            packet.size_bytes(),
            packet.is_control(),
            matches!(packet.kind, PacketKind::RouteError { .. }),
        );
        let sender_id = NodeId(sender_idx as u32);
        let sender_pos = self.states[sender_idx].position;
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.medium.transmit_indexed_into(
            now,
            sender_id,
            sender_pos,
            &packet,
            &self.grid,
            &mut self.medium_rng,
            &mut deliveries,
        );
        if !deliveries.is_empty() {
            // One queue entry for the whole frame, under its soonest key.
            // Reception `i` (in the medium's delivery order) keeps the
            // sequence number its own event would have drawn; the
            // receptions differ only by propagation delay, under a
            // microsecond. They stay in delivery order: `deliver_frame`
            // sorts them only if it has to deliver hop by hop.
            let first_seq = self.scheduler.reserve_seqs(deliveries.len() as u64);
            let slot = self.free_frames.pop().unwrap_or_else(|| {
                self.frames.push(Frame::default());
                u32::try_from(self.frames.len() - 1).expect("fewer than 2^32 frames in flight")
            });
            let frame = &mut self.frames[slot as usize];
            frame.packet = Some(packet);
            frame
                .hops
                .extend(deliveries.iter().zip(first_seq..).map(|(d, seq)| Hop {
                    key: EventKey::new(d.arrival, seq),
                    receiver: d.receiver,
                    intended: d.intended,
                }));
            let mut head = frame.hops[0].key;
            frame.last = 0;
            for (i, hop) in frame.hops.iter().enumerate().skip(1) {
                head = head.min(hop.key);
                if hop.key > frame.hops[frame.last].key {
                    frame.last = i;
                }
            }
            debug_assert!(head.time() >= now, "arrival is never in the past");
            self.scheduler.schedule_keyed(head, Event::Frame(slot));
        }
        deliveries.clear();
        self.delivery_buf = deliveries;
    }

    /// Counts one send by node `sender_idx` in the metrics and raises
    /// [`Telemetry::on_transmit`] for it. The radio and the wired backbone
    /// both send through here, so a tap's transmissions and the report's
    /// cannot disagree.
    fn record_send(
        &mut self,
        now: SimTime,
        sender_idx: usize,
        bytes: usize,
        is_control: bool,
        is_route_error: bool,
    ) {
        self.metrics
            .record_transmission(bytes, is_control, is_route_error);
        self.telemetry
            .on_transmit(now, self.states[sender_idx].position, bytes, is_control);
    }

    /// Whether `id` is a road-side unit; an id outside the fleet is not.
    fn is_rsu(&self, id: NodeId) -> bool {
        self.states
            .get(id.index())
            .is_some_and(|s| s.kind == VehicleKind::RoadSideUnit)
    }

    /// Drains the sink (ping-ponging its buffer with `action_scratch`, so no
    /// allocation in steady state) and executes the queued actions.
    fn process_actions(&mut self, node_idx: usize, now: SimTime) {
        if self.sink.is_empty() {
            return;
        }
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.sink.swap_into(&mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Transmit(packet) => {
                    let mut packet = packet;
                    if packet.id == vanet_sim::PacketId(0) && packet.is_control() {
                        packet.id = self.packet_ids.allocate();
                    }
                    self.transmit(node_idx, now, packet);
                }
                Action::Deliver(packet) => {
                    self.metrics.record_delivery(packet.id, packet.hops, now);
                    let delay_s = (now - packet.created_at).as_secs();
                    self.telemetry.on_delivery(now, delay_s);
                }
                Action::Drop { reason, .. } => {
                    self.metrics.record_drop();
                    self.telemetry
                        .on_drop(now, self.states[node_idx].position, reason);
                }
                Action::Bundle { op, occupancy } => {
                    self.metrics.record_bundle(op, occupancy);
                    self.telemetry.on_bundle(now, op, occupancy);
                }
                Action::BackboneSend { to, packet } => {
                    let from = NodeId(node_idx as u32);
                    // A down RSU is detached from the wired backbone too, so
                    // the send fails through the protocol's normal no-route
                    // path (short-circuit: fault-free runs check nothing;
                    // the is_rsu checks run first so `to` is known valid
                    // before its outage flag is read).
                    let backbone_ok = self.is_rsu(from)
                        && self.is_rsu(to)
                        && !self.node_is_down(node_idx)
                        && !self.node_is_down(self.node_index(to));
                    if backbone_ok {
                        // A backbone send is a control transmission (it
                        // syncs the RSUs), never a route error.
                        self.record_send(now, node_idx, packet.size_bytes(), true, false);
                        self.backbone.push_back((to, packet));
                        self.scheduler.schedule_after(
                            self.scenario.backbone_latency,
                            Event::BackboneArrival(to),
                        );
                    } else {
                        self.metrics.record_drop();
                        self.telemetry.on_drop(
                            now,
                            self.states[node_idx].position,
                            vanet_routing::DropReason::NoRoute,
                        );
                    }
                }
            }
        }
        self.action_scratch = actions;
    }
}

/// Convenience: runs `kind` on `scenario` and returns the report.
#[must_use]
pub fn run_scenario(scenario: Scenario, kind: ProtocolKind) -> Report {
    Simulation::new(scenario, kind).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use vanet_sim::SimDuration;

    fn quick_scenario(vehicles: usize, seed: u64) -> Scenario {
        Scenario::highway(vehicles)
            .with_seed(seed)
            .with_flows(3)
            .with_duration(SimDuration::from_secs(30.0))
    }

    #[test]
    fn aodv_delivers_on_a_dense_highway() {
        let report = run_scenario(quick_scenario(50, 7), ProtocolKind::Aodv);
        assert!(report.data_sent > 0, "flows must generate traffic");
        assert!(
            report.delivery_ratio > 0.3,
            "AODV should deliver a reasonable share on a well-connected highway, got {}",
            report.delivery_ratio
        );
        assert!(report.control_packets > 0);
        assert_eq!(report.protocol, "AODV");
    }

    #[test]
    fn flooding_delivers_but_with_much_higher_overhead_than_greedy() {
        let flood = run_scenario(quick_scenario(60, 1), ProtocolKind::Flooding);
        let greedy = run_scenario(quick_scenario(60, 1), ProtocolKind::Greedy);
        assert!(flood.delivery_ratio > 0.3);
        assert!(greedy.delivery_ratio > 0.2);
        assert!(
            flood.transmissions_per_delivered > greedy.transmissions_per_delivered,
            "flooding must cost more transmissions per delivery ({} vs {})",
            flood.transmissions_per_delivered,
            greedy.transmissions_per_delivered
        );
    }

    #[test]
    fn deterministic_replay_with_same_seed() {
        let a = run_scenario(quick_scenario(30, 7), ProtocolKind::Aodv);
        let b = run_scenario(quick_scenario(30, 7), ProtocolKind::Aodv);
        assert_eq!(a, b, "same seed must give identical reports");
        let c = run_scenario(quick_scenario(30, 8), ProtocolKind::Aodv);
        assert_ne!(a, c, "different seeds must give different reports");
    }

    #[test]
    fn rsus_are_added_as_nodes() {
        let sim = Simulation::new(quick_scenario(20, 5).with_rsus(4), ProtocolKind::Drr);
        assert_eq!(sim.node_count(), 24);
        assert_eq!(sim.rsu_ids.len(), 4);
        assert_eq!(sim.flows.len(), 3);
    }

    #[test]
    #[should_panic(
        expected = "scenario 'offset': vehicle 0 has id 5; vehicle ids must run 0, 1, 2"
    )]
    fn vehicle_ids_that_do_not_start_at_zero_are_rejected() {
        let mut scenario = quick_scenario(10, 1);
        scenario.name = "offset".into();
        scenario.layout = crate::scenario::RoadLayout::Highway(
            vanet_mobility::HighwayBuilder::new()
                .vehicles(10)
                .first_node_id(5),
        );
        let _ = run_scenario(scenario, ProtocolKind::Greedy);
    }

    #[test]
    #[should_panic(expected = "fault node 99 is outside the scenario's 10 vehicles")]
    fn an_outage_of_an_absent_vehicle_is_rejected() {
        let scenario =
            quick_scenario(10, 1).with_faults(crate::FaultPlan::new().node_outage(99, 1.0, 2.0));
        let _ = Simulation::new(scenario, ProtocolKind::Greedy);
    }

    #[test]
    fn beaconing_protocols_report_neighbor_counts() {
        let mut sim = Simulation::new(quick_scenario(30, 6), ProtocolKind::Greedy);
        let report = sim.run();
        assert!(
            report.avg_neighbors > 0.5,
            "beaconing should populate neighbour tables, got {}",
            report.avg_neighbors
        );
    }
}
