//! The traced pass: one workload, measured layer by layer from outside.
//!
//! Three sources, none of them inside the program: a [`CountingTap`] behind
//! the public `Telemetry` trait (exact counts, per-event host latency), a
//! [`NullProtocol`] behind `RoutingProtocol` (the substrate with no routing
//! work), and replays that rebuild the workload's own inputs and time calls
//! into each layer's public functions. Spans are kept in memory and written
//! to `benchmark/out/trace-<workload>.json` when the pass ends. Nothing
//! measured here feeds an end-to-end number.

use crate::child::{check_report, report_digest, Checks};
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::run::{driver_line, Sizing};
use crate::stats::{median, percentile_sorted, NsHistogram};
use crate::workloads::{campaign_workers, Kind, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vanet_core::{
    CampaignPlan, ChannelModel, MediumStats, ProtocolKind, Report, Scenario, Simulation, Telemetry,
};
use vanet_links::lifetime::link_lifetime_constant_acceleration;
use vanet_links::probability::expected_link_duration;
use vanet_mobility::Position;
use vanet_net::{
    ArenaTable, BeaconConfig, LogNormalShadowing, Medium, MediumConfig, NeighborArena, Packet,
    PacketKind, PropagationModel, SpatialGrid, UnitDisk,
};
use vanet_routing::dtn::{Bundle, BundleBuffer, DropPolicy};
use vanet_routing::{BundleOp, Category, DropReason, ProtocolContext, RoutingProtocol, YanConfig};
use vanet_runner::{
    parse_jsonl, parse_scenario, render_csv, render_jsonl, Journal, JournalEntry, Runner, Summary,
    JOURNAL_FILE,
};
use vanet_sim::{NodeId, PacketId, Scheduler, SimDuration, SimRng, SimTime};

/// Seed-1, scale-1 output digests and event counts at the commit that last
/// re-pinned them. A traced pass reports `core.report_digest_match = 0` when
/// the program no longer reproduces them: the simulated statistics changed,
/// which is for the change's author to explain, not a failure in itself.
const PINS: [(&str, u64, u64); 6] = [
    ("city10k-greedy", 0x2b0f_795e_2371_b362, 949_279),
    ("city100k-greedy", 0x4856_a1a4_d270_54dd, 1_032_327),
    ("highway-yan", 0x2c37_23d8_89be_8fc3, 440_064),
    ("highway-aodv", 0xafdc_d96a_09c7_3734, 469_579),
    ("dtn-epidemic", 0x43c6_d3f4_b1e5_95df, 45_351),
    ("campaign-cold", 0x8a8a_7417_f0b3_830b, 0),
];

// ---------------------------------------------------------------- spans --

/// One timed interval. `parent` is the span that was open when it started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder; all spans of a pass share its run id.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's length in seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Each span's own time: its length minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    fn to_json(&self, run_id: u64) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(span, self_ns)| {
                    Json::obj([
                        ("name", Json::str(span.name)),
                        ("run", Json::Num(run_id as f64)),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// What recording one empty span costs, in seconds (median of a few
/// thousand), so the spans' share of a traced pass can be estimated.
fn span_cost_s() -> f64 {
    let mut probe = Tracer::new();
    let started = Instant::now();
    for _ in 0..4096 {
        probe.span("probe", |_| ());
    }
    started.elapsed().as_secs_f64() / 4096.0
}

// ------------------------------------------------------------- the tap --

/// Exact counts of everything the driver reports through `Telemetry`, plus
/// the host time between consecutive events.
#[derive(Debug, Default)]
pub struct CountingTap {
    pub events: u64,
    pub originations: u64,
    pub transmissions: u64,
    pub receives: u64,
    pub deliveries: u64,
    pub drops: u64,
    pub neighbors_gained: u64,
    pub neighbors_lost: u64,
    pub bundle_ops: u64,
    /// Host nanoseconds from one `on_event` to the next: the cost of
    /// handling one event, tap included.
    pub event_ns: NsHistogram,
    last_event: Option<Instant>,
    /// The medium's cumulative statistics at the end of the run.
    pub medium: MediumStats,
}

impl CountingTap {
    fn close_interval(&mut self) {
        let now = Instant::now();
        if let Some(last) = self.last_event.replace(now) {
            self.event_ns.record((now - last).as_nanos() as u64);
        }
    }
}

impl Telemetry for CountingTap {
    #[inline]
    fn on_event(&mut self, _now: SimTime, _medium: &MediumStats) {
        self.close_interval();
        self.events += 1;
    }

    #[inline]
    fn on_origination(&mut self, _now: SimTime) {
        self.originations += 1;
    }

    #[inline]
    fn on_transmit(&mut self, _now: SimTime, _pos: Position, _bytes: usize, _is_control: bool) {
        self.transmissions += 1;
    }

    #[inline]
    fn on_receive(&mut self, _now: SimTime, _pos: Position) {
        self.receives += 1;
    }

    #[inline]
    fn on_delivery(&mut self, _now: SimTime, _delay_s: f64) {
        self.deliveries += 1;
    }

    #[inline]
    fn on_drop(&mut self, _now: SimTime, _pos: Position, _reason: DropReason) {
        self.drops += 1;
    }

    #[inline]
    fn on_neighbor_lost(&mut self, _now: SimTime, count: usize) {
        self.neighbors_lost += count as u64;
    }

    #[inline]
    fn on_neighbor_gained(&mut self, _now: SimTime) {
        self.neighbors_gained += 1;
    }

    #[inline]
    fn on_bundle(&mut self, _now: SimTime, _op: BundleOp, _occupancy: usize) {
        self.bundle_ops += 1;
    }

    fn on_finish(&mut self, _end: SimTime, medium: &MediumStats) {
        self.close_interval();
        self.medium = medium.clone();
    }
}

/// A protocol that does no routing: it beacons at the real protocol's
/// interval, so the beacon plane, mobility and maintenance cost what they
/// cost under the real protocol, and drops every packet it is handed.
#[derive(Debug)]
struct NullProtocol {
    beacon: Option<SimDuration>,
}

impl RoutingProtocol for NullProtocol {
    fn name(&self) -> &'static str {
        "Null"
    }

    fn category(&self) -> Category {
        Category::Connectivity
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        self.beacon
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        ctx.drop_packet(&packet, DropReason::NoRoute);
    }

    fn on_packet(&mut self, _ctx: &mut ProtocolContext<'_>, _packet: &Packet, _overheard: bool) {}

    fn on_tick(&mut self, _ctx: &mut ProtocolContext<'_>) {}
}

// ---------------------------------------------------------- the result --

/// The per-layer metrics of one traced pass.
#[derive(Debug)]
pub struct Traced {
    workload: &'static str,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Traced {
    /// Every per-layer metric, in table order; one that does not apply to
    /// this workload reads 0.
    fn values(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|m| {
            (
                m.name,
                self.metrics.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            )
        })
    }

    pub fn driver_line(&self) -> Json {
        driver_line(
            self.failures.is_empty(),
            self.attempted,
            self.failures.len() as u64,
            self.values(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.workload)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "per_layer",
                Json::obj(self.values().map(|(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }

    pub fn print_table(&self) {
        println!(
            "{}  (traced pass, {} of {} operations failed)",
            self.workload,
            self.failures.len(),
            self.attempted
        );
        for (name, value, unit) in self.values() {
            println!("  {name:<38} {value:>18.6} {unit}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Runs the traced pass of `workload` and writes its spans.
pub fn run_workload(
    workload: &'static Workload,
    sizing: Sizing,
    out_dir: &Path,
) -> Result<Traced, String> {
    let mut tracer = Tracer::new();
    let mut metrics = BTreeMap::new();
    let mut checks = Checks::default();
    let ((), pass_s) = tracer.span("trace.pass", |t| match workload.kind {
        Kind::Sim { protocol, .. } => {
            trace_simulation(t, workload, protocol, sizing, &mut metrics, &mut checks);
        }
        Kind::Campaign { .. } => {
            trace_campaign(t, workload, sizing, out_dir, &mut metrics, &mut checks);
        }
    });

    metrics.insert("trace.spans", tracer.spans.len() as f64);
    let spans_share = span_cost_s() * tracer.spans.len() as f64 / pass_s;
    *metrics.entry("trace.overhead_share").or_insert(0.0) += spans_share;

    let path = out_dir.join(format!("trace-{}.json", workload.name));
    let file = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(sizing.seed as f64)),
        ("scale", Json::Num(sizing.scale)),
        ("spans", tracer.to_json(sizing.seed)),
    ]);
    std::fs::write(&path, file.render()).map_err(|e| format!("cannot write {path:?}: {e}"))?;

    Ok(Traced {
        workload: workload.name,
        metrics,
        attempted: checks.attempted,
        failures: checks.failures,
    })
}

type Metrics = BTreeMap<&'static str, f64>;

/// Checks the outputs against the pinned seed-1 digest; returns 1 or 0.
/// Pins describe full-length runs, so a scaled pass (`--smoke`) skips the
/// check and reports 1.
fn digest_match(
    workload: &Workload,
    sizing: Sizing,
    digest_at_seed_1: impl FnOnce() -> (u64, u64),
) -> f64 {
    if sizing.scale != 1.0 {
        return 1.0;
    }
    let pinned = PINS
        .iter()
        .find(|(name, _, _)| *name == workload.name)
        .map(|&(_, digest, events)| (digest, events));
    f64::from(u8::from(pinned == Some(digest_at_seed_1())))
}

// ---------------------------------------------------------- simulation --

struct SimRun {
    report: Report,
    events: u64,
    build_s: f64,
    wall_s: f64,
}

fn run_simulation<T: Telemetry>(
    t: &mut Tracer,
    name: &'static str,
    build: impl FnOnce() -> Simulation<T>,
) -> (SimRun, Simulation<T>) {
    let ((run, sim), _) = t.span(name, |t| {
        let (mut sim, build_s) = t.span("core.build", |_| build());
        let (report, wall_s) = t.span("core.run", |_| sim.run());
        let events = sim.processed_events();
        (
            SimRun {
                report,
                events,
                build_s,
                wall_s,
            },
            sim,
        )
    });
    (run, sim)
}

fn trace_simulation(
    t: &mut Tracer,
    workload: &Workload,
    protocol: ProtocolKind,
    sizing: Sizing,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let scenario = workload.scenario(sizing.seed, sizing.scale);
    let beacon = protocol.build_with(scenario.dtn).beacon_interval();

    // The untraced reference: what the traced runs are compared against.
    let (plain, sim) = run_simulation(t, "run.untraced", || {
        Simulation::new(scenario.clone(), protocol)
    });
    drop(sim);
    checks.jobs(1, 0, "");
    check_report(checks, &plain.report, plain.events);

    // The tapped run must observe without changing anything.
    let (tapped, sim) = run_simulation(t, "run.tapped", || {
        Simulation::with_telemetry(scenario.clone(), protocol, CountingTap::default())
    });
    let tap = sim.into_telemetry();
    checks.check(
        tapped.report == plain.report && tapped.events == plain.events,
        || "the tapped run's report differs from the untapped run's".to_owned(),
    );
    checks.check(tap.events == plain.events, || {
        format!("tap saw {} events, scheduler {}", tap.events, plain.events)
    });

    // The substrate: same scenario, same beacons, no routing.
    let (null, sim) = run_simulation(t, "run.substrate", || {
        Simulation::with_factory(scenario.clone(), &|| Box::new(NullProtocol { beacon }))
    });
    drop(sim);

    let matches = digest_match(workload, sizing, || {
        if sizing.seed == 1 {
            (report_digest(&plain.report, plain.events), plain.events)
        } else {
            let (pin, _) = run_simulation(t, "run.pin", || {
                Simulation::new(workload.scenario(1, 1.0), protocol)
            });
            (report_digest(&pin.report, pin.events), pin.events)
        }
    });

    let report = &plain.report;
    let medium = &tap.medium;
    let tx = medium.transmissions.value() as f64;
    let rx = medium.deliveries.value() as f64;
    let tap_overhead = tapped.wall_s / plain.wall_s - 1.0;
    m.extend([
        ("sim.scheduler.events", plain.events as f64),
        (
            "sim.scheduler.events_per_s",
            plain.events as f64 / plain.wall_s,
        ),
        (
            "mobility.steps",
            (scenario.duration.as_secs() / scenario.mobility_step.as_secs()).floor(),
        ),
        ("net.medium.tx", tx),
        ("net.medium.rx", rx),
        ("net.medium.rx_per_tx", if tx > 0.0 { rx / tx } else { 0.0 }),
        ("net.medium.collision_rate", medium.collision_rate()),
        ("net.arena.gained", tap.neighbors_gained as f64),
        ("net.arena.lost", tap.neighbors_lost as f64),
        ("net.arena.neighbors_mean", report.avg_neighbors),
        ("routing.induced_share", 1.0 - null.wall_s / plain.wall_s),
        ("routing.originated", report.data_sent as f64),
        ("routing.delivered", report.data_delivered as f64),
        ("routing.delivery_ratio", report.delivery_ratio),
        ("routing.drops", report.drops as f64),
        ("routing.control_packets", report.control_packets as f64),
        ("routing.dtn.bundle_ops", tap.bundle_ops as f64),
        ("routing.dtn.buffer_peak", report.buffer_peak as f64),
        ("core.build_s", plain.build_s),
        ("core.substrate_wall_s", null.wall_s),
        ("core.event_ns_p50", tap.event_ns.percentile(50.0) as f64),
        ("core.event_ns_p99", tap.event_ns.percentile(99.0) as f64),
        ("core.event_ns_max", tap.event_ns.max() as f64),
        ("core.tap_overhead_share", tap_overhead),
        ("core.report_digest_match", matches),
        ("trace.overhead_share", tap_overhead),
    ]);

    t.span("replay", |t| replay_layers(t, &scenario, beacon, m));
}

/// Nanoseconds per operation of a timed loop.
fn ns_per(seconds: f64, operations: usize) -> f64 {
    if operations == 0 {
        0.0
    } else {
        seconds * 1e9 / operations as f64
    }
}

/// Rebuilds the workload's own inputs — its fleet, its positions, its
/// beacon cadence, its buffer capacity — and times each layer's public
/// functions on them, one layer per span.
fn replay_layers(
    t: &mut Tracer,
    scenario: &Scenario,
    beacon: Option<SimDuration>,
    m: &mut Metrics,
) {
    /// Nodes a per-node replay loop visits at most: enough for a stable
    /// per-call time, and it keeps the 100k fleet's replay to a second.
    const SAMPLE: usize = 20_000;
    let master = SimRng::new(scenario.seed);
    let range = scenario.radio_range_m;
    let interval = beacon.unwrap_or(BeaconConfig::default().interval);

    // vanet-mobility: build the fleet, then step it.
    let mut mobility_rng = master.derive("mobility");
    let (mut model, build_s) = t.span("mobility.build", |_| {
        scenario.build_mobility(&mut mobility_rng)
    });
    let n = model.len();
    let steps = (200_000 / n.max(1)).clamp(2, 50);
    let ((), step_s) = t.span("mobility.step", |_| {
        for _ in 0..steps {
            model.step(scenario.mobility_step, &mut mobility_rng);
        }
    });
    m.insert("mobility.build_s", build_s);
    m.insert("mobility.step_ns_per_vehicle", ns_per(step_s, steps * n));
    let before: Vec<Position> = model.states().iter().map(|s| s.position).collect();
    model.step(scenario.mobility_step, &mut mobility_rng);
    let states = model.states().to_vec();

    // vanet-net, grid: one mobility step's worth of moves, then one range
    // query per node.
    let nodes: Vec<(NodeId, Position)> = states.iter().map(|s| (s.id, s.position)).collect();
    let mut grid = SpatialGrid::build(range, &nodes);
    let mut moved = 0;
    // The grid was built on the positions after the step; move every node
    // back and forth so the structure ends where it started.
    let ((), update_s) = t.span("net.grid.update", |_| {
        for (state, &old) in states.iter().zip(&before) {
            if old != state.position {
                grid.update(state.id, state.position, old);
                grid.update(state.id, old, state.position);
                moved += 2;
            }
        }
    });
    m.insert("net.grid.update_ns", ns_per(update_s, moved));
    let sample = n.min(SAMPLE);
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let mut candidates = 0usize;
    let ((), query_s) = t.span("net.grid.query", |_| {
        for state in &states[..sample] {
            grid.candidates_within_scratch(state.position, range, &mut out, &mut scratch);
            candidates += out.len();
        }
    });
    m.insert("net.grid.query_ns", ns_per(query_s, sample));
    m.insert(
        "net.grid.candidates_per_query",
        candidates as f64 / sample.max(1) as f64,
    );

    // vanet-net, medium: one beacon round, spread over the beacon interval
    // as the driver's jitter spreads it.
    let propagation: Box<dyn PropagationModel + Send> = match scenario.channel {
        ChannelModel::UnitDisk => Box::new(UnitDisk::new(range)),
        ChannelModel::Shadowing { alpha, sigma_db } => {
            Box::new(LogNormalShadowing::new(range, alpha, sigma_db))
        }
    };
    let mut medium = Medium::new(
        MediumConfig {
            mac: scenario.mac,
            promiscuous: true,
        },
        propagation,
    );
    let mut medium_rng = master.derive("medium");
    let mut deliveries = Vec::new();
    // (receiver, sender) of every frame copy delivered: the arena and link
    // replays below run on exactly these neighbour pairs.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let ((), transmit_s) = t.span("net.medium.transmit", |_| {
        for (i, state) in states[..sample].iter().enumerate() {
            let now = SimTime::ZERO + interval * (i as f64 / sample as f64);
            let mut hello = Packet::broadcast(state.id, PacketKind::Hello, 0);
            hello.sender_position = Some(state.position);
            hello.sender_velocity = Some(state.velocity);
            medium.transmit_indexed_into(
                now,
                state.id,
                state.position,
                &hello,
                &grid,
                &mut medium_rng,
                &mut deliveries,
            );
            pairs.extend(deliveries.iter().map(|d| (d.receiver.index(), i)));
        }
    });
    m.insert("net.medium.transmit_ns", ns_per(transmit_s, sample));
    let fanout = pairs.len() as f64 / sample.max(1) as f64;

    // vanet-net, arena: the first round inserts, the second refreshes —
    // the steady state of a run — and is the one timed; then every lease
    // is left to expire and purged.
    let lifetime = BeaconConfig::default().lifetime;
    let mut arena = NeighborArena::with_block_capacity(NeighborArena::blocks_for(n, fanout));
    let mut tables: Vec<ArenaTable> = (0..n).map(|_| ArenaTable::new()).collect();
    let observe_round = |arena: &mut NeighborArena, tables: &mut [ArenaTable], now: SimTime| {
        for &(receiver, sender) in &pairs {
            let from = &states[sender];
            arena.observe(
                &mut tables[receiver],
                from.id,
                from.position,
                from.velocity,
                now,
                lifetime,
            );
        }
    };
    observe_round(&mut arena, &mut tables, SimTime::ZERO);
    let ((), observe_s) = t.span("net.arena.observe", |_| {
        observe_round(&mut arena, &mut tables, SimTime::ZERO + interval);
    });
    m.insert("net.arena.observe_ns", ns_per(observe_s, pairs.len()));
    let mut lost = Vec::new();
    let expired = SimTime::ZERO + interval + lifetime + interval;
    let ((), purge_s) = t.span("net.arena.purge", |_| {
        for table in &mut tables {
            arena.purge_due(table, expired, &mut lost);
        }
    });
    m.insert("net.arena.purge_ns", ns_per(purge_s, n));

    // vanet-links: Eq. 1-4 on the same neighbour pairs, as `routing::yan`
    // calls them (separation capped at the range, relative speed).
    let link_pairs = &pairs[..pairs.len().min(200_000)];
    let ((), lifetime_s) = t.span("links.lifetime", |_| {
        for &(receiver, sender) in link_pairs {
            let (a, b) = (&states[receiver], &states[sender]);
            let d0 = (b.position.x - a.position.x).clamp(-range, range);
            black_box(link_lifetime_constant_acceleration(
                d0,
                a.velocity.x,
                b.velocity.x,
                a.acceleration,
                b.acceleration,
                range,
            ));
        }
    });
    m.insert("links.lifetime_ns", ns_per(lifetime_s, link_pairs.len()));
    let speed_std = YanConfig::default().relative_speed_std;
    let ((), duration_s) = t.span("links.expected_duration", |_| {
        for &(receiver, sender) in link_pairs {
            let (a, b) = (&states[receiver], &states[sender]);
            let separation = (a.position - b.position).norm().min(range);
            let relative = (a.velocity - b.velocity).norm();
            black_box(expected_link_duration(
                separation, relative, speed_std, range,
            ));
        }
    });
    m.insert(
        "links.expected_duration_ns",
        ns_per(duration_s, link_pairs.len()),
    );

    // vanet-routing, bundle buffer: fill to capacity and half again (so
    // the second half evicts), probing membership and expiring as a
    // carrier does.
    let capacity = scenario.dtn.buffer_capacity;
    let mut buffer = BundleBuffer::new(capacity, DropPolicy::DropOldest);
    let mut expired_bundles = Vec::new();
    let inserts = (capacity + capacity / 2).max(64);
    let mut operations = 0;
    let ((), buffer_s) = t.span("routing.dtn.buffer", |_| {
        for k in 0..inserts {
            let now = SimTime::from_secs(k as f64);
            let mut packet = Packet::data(NodeId(0), NodeId(1), scenario.payload_bytes);
            packet.id = PacketId(k as u64);
            let bundle = Bundle {
                packet,
                stored_at: now,
                expires_at: now + scenario.dtn.bundle_ttl,
                custody: false,
                copies: 0,
            };
            let probe = bundle.key();
            black_box(buffer.contains(probe));
            black_box(buffer.insert(bundle));
            operations += 2;
            if k % 16 == 15 {
                buffer.expire_due(now, &mut expired_bundles);
                expired_bundles.clear();
                operations += 1;
            }
        }
    });
    m.insert("routing.dtn.buffer_op_ns", ns_per(buffer_s, operations));

    // vanet-sim, scheduler: the driver's own pattern at this fleet's
    // pending-set size — one wheel-batched timer per node, each firing
    // rescheduled and fanning out `fanout` calendar-tier arrivals — with
    // batching and the calendar enabled exactly as the driver enables them.
    const TIMER: u8 = 0;
    const ARRIVAL: u8 = 1;
    let mut scheduler: Scheduler<u8> = Scheduler::with_horizon(SimTime::from_secs(1e9));
    scheduler.enable_batching(BeaconConfig::default().interval);
    scheduler.enable_calendar(SimDuration::from_secs(0.000_25), 256);
    for i in 0..n {
        scheduler.schedule_batched_after(interval * (i as f64 / n as f64), TIMER);
    }
    let arrivals = fanout.round() as usize;
    let target = (n * 4).clamp(200_000, 2_000_000);
    let mut popped = 0;
    let ((), scheduler_s) = t.span("sim.scheduler.push_pop", |_| {
        while popped < target {
            let Some((_, event)) = scheduler.next_event() else {
                break;
            };
            popped += 1;
            if event == TIMER {
                scheduler.schedule_batched_after(interval, TIMER);
                for k in 0..arrivals {
                    let delay = SimDuration::from_secs(0.000_6 + 0.000_01 * k as f64);
                    scheduler.schedule_after(delay, ARRIVAL);
                }
            }
        }
    });
    m.insert("sim.scheduler.push_pop_ns", ns_per(scheduler_s, popped));
}

// ------------------------------------------------------------ campaign --

/// Median seconds of `reps` calls of `f`.
fn median_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn export_digest(plan: &CampaignPlan, dir: &Path) -> u64 {
    let results = Runner::new()
        .with_workers(campaign_workers())
        .with_journal(dir)
        .run_plan(plan);
    vanet_sim::stable_hash_str(&render_jsonl(&results))
}

fn trace_campaign(
    t: &mut Tracer,
    workload: &Workload,
    sizing: Sizing,
    out_dir: &Path,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let dir = out_dir.join(format!(
        "tmp-trace-{}-{}",
        workload.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = workload.plan(sizing.seed, sizing.scale);
    let jobs = plan.initial_jobs();
    let workers = campaign_workers();
    let runner = Runner::new()
        .with_workers(workers)
        .with_journal(dir.join("cold"));

    // vanet-runner, engine: the campaign as the untraced pass runs it.
    let (cold, cold_s) = t.span("runner.run_plan.cold", |_| runner.run_plan(&plan));
    checks.jobs(
        jobs.len() as u64,
        cold.quarantined.len() as u64,
        "job quarantined",
    );
    let (resumed, _) = t.span("runner.run_plan.resume", |_| runner.run_plan(&plan));
    checks.check(
        resumed.executed_jobs == 0 && render_jsonl(&resumed) == render_jsonl(&cold),
        || "the resumed campaign re-ran jobs or exported differently".to_owned(),
    );
    m.extend([
        ("runner.engine.jobs", cold.executed_jobs as f64),
        (
            "runner.engine.jobs_per_s",
            cold.executed_jobs as f64 / cold_s,
        ),
        ("runner.quarantined", cold.quarantined.len() as f64),
    ]);

    // vanet-runner, journal: the read side on the file the cold run
    // wrote, the write side on a fresh one.
    let journal_path = dir.join("cold").join(JOURNAL_FILE);
    let bytes = std::fs::metadata(&journal_path).map_or(0, |meta| meta.len());
    let ((journal, open_s), _) = t.span("runner.journal.open", |_| {
        let open_s = median_seconds(5, || Journal::open(dir.join("cold")).map(|j| j.len()));
        (Journal::open(dir.join("cold")), open_s)
    });
    let entries: Vec<JournalEntry> = journal
        .as_ref()
        .map(|journal| {
            jobs.iter()
                .filter_map(|job| {
                    journal.lookup(job.key()).map(|report| JournalEntry {
                        key: job.key(),
                        campaign: plan.name.clone(),
                        label: plan.cells[job.cell].label.clone(),
                        seed: job.scenario.seed,
                        report: report.clone(),
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    checks.check(entries.len() == jobs.len(), || {
        format!("journal holds {} of {} jobs", entries.len(), jobs.len())
    });
    let ((), record_s) = t.span("runner.journal.record", |_| {
        if let Ok(fresh) = Journal::open(dir.join("fresh")) {
            for entry in &entries {
                let _ = fresh.record(entry);
            }
        }
    });
    m.extend([
        ("runner.journal.bytes", bytes as f64),
        ("runner.journal.open_ms", open_s * 1e3),
        (
            "runner.journal.replay_entries_per_s",
            entries.len() as f64 / open_s,
        ),
        (
            "runner.journal.record_us",
            record_s * 1e6 / entries.len().max(1) as f64,
        ),
    ]);

    // vanet-runner, export and summary.
    t.span("runner.export", |_| {
        let jsonl = render_jsonl(&cold);
        m.extend([
            (
                "runner.export.render_jsonl_ms",
                median_seconds(9, || render_jsonl(&cold)) * 1e3,
            ),
            (
                "runner.export.parse_jsonl_ms",
                median_seconds(9, || parse_jsonl(&jsonl)) * 1e3,
            ),
            (
                "runner.export.render_csv_ms",
                median_seconds(9, || render_csv(&cold)) * 1e3,
            ),
            ("runner.export.bytes", jsonl.len() as f64),
        ]);
        checks.check(
            parse_jsonl(&jsonl).is_ok_and(|parsed| parsed.cells == cold.cells),
            || "parse_jsonl(render_jsonl(r)) does not round-trip".to_owned(),
        );
    });
    t.span("runner.summary", |_| {
        let by_cell: Vec<Vec<Report>> = (0..plan.cells.len())
            .map(|cell| {
                jobs.iter()
                    .zip(&entries)
                    .filter(|(job, _)| job.cell == cell)
                    .map(|(_, entry)| entry.report.clone())
                    .collect()
            })
            .collect();
        let per_cell = median_seconds(9, || {
            by_cell
                .iter()
                .filter_map(|reports| Summary::from_reports(reports))
                .count()
        }) / by_cell.len().max(1) as f64;
        m.insert("runner.summary.from_reports_us", per_cell * 1e6);
    });
    t.span("runner.spec", |_| {
        let specs: Vec<&str> = WORKLOADS
            .iter()
            .filter_map(|w| match w.kind {
                Kind::Sim { spec, .. } => Some(spec),
                Kind::Campaign { .. } => None,
            })
            .collect();
        let per_spec = median_seconds(99, || {
            specs
                .iter()
                .filter_map(|spec| parse_scenario(spec).ok())
                .count()
        }) / specs.len() as f64;
        m.insert("runner.spec.parse_us", per_spec * 1e6);
    });

    // vanet-core: the plan's job identity, then every job run directly,
    // one at a time, with a span around its build and its run.
    let key_s = median_seconds(9, || jobs.iter().map(|job| job.key()).fold(0, |a, k| a ^ k));
    m.insert("core.plan.key_us", key_s * 1e6 / jobs.len() as f64);
    let mut job_ms = Vec::with_capacity(jobs.len());
    let mut build_s = 0.0;
    let mut mismatched = 0;
    let ((), serial_s) = t.span("core.jobs.serial", |t| {
        for (job, entry) in jobs.iter().zip(&entries) {
            let (report, job_s) = t.span("core.job", |t| {
                let (mut sim, built_s) = t.span("core.build", |_| {
                    Simulation::new(job.scenario.clone(), job.protocol)
                });
                build_s += built_s;
                t.span("core.run", |_| sim.run()).0
            });
            job_ms.push(job_s * 1e3);
            mismatched += usize::from(report != entry.report);
        }
    });
    checks.check(mismatched == 0, || {
        format!("{mismatched} jobs run directly differ from their journaled reports")
    });
    job_ms.sort_by(f64::total_cmp);
    m.extend([
        ("core.build_s", build_s),
        ("core.job_ms_p50", percentile_sorted(&job_ms, 50.0)),
        ("core.job_ms_p90", percentile_sorted(&job_ms, 90.0)),
        (
            "sim.pool.parallel_efficiency",
            serial_s / (workers as f64 * cold_s),
        ),
    ]);

    let matches = digest_match(workload, sizing, || {
        let digest = if sizing.seed == 1 {
            vanet_sim::stable_hash_str(&render_jsonl(&cold))
        } else {
            t.span("run.pin", |_| {
                export_digest(&workload.plan(1, 1.0), &dir.join("pin"))
            })
            .0
        };
        (digest, 0)
    });
    m.insert("core.report_digest_match", matches);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let (value, outer_s) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| ());
            7
        });
        assert_eq!(value, 7);
        assert!(outer_s >= 0.005);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0)]);
        let own = t.self_ns();
        let length = |i: usize| t.spans[i].end_ns - t.spans[i].start_ns;
        assert_eq!(own[0], length(0) - length(1) - length(2));
        assert_eq!(own[1], length(1));
        let json = t.to_json(3);
        assert_eq!(json.as_arr().unwrap().len(), 3);
        assert_eq!(json.as_arr().unwrap()[1].num("parent").unwrap(), 0.0);
    }

    #[test]
    fn counting_tap_totals_equal_the_report_totals() {
        for (name, protocol) in [
            ("highway-aodv", ProtocolKind::Aodv),
            ("dtn-epidemic", ProtocolKind::Epidemic),
        ] {
            let scenario = by_name(name).unwrap().scenario(5, 1.5);
            let mut sim =
                Simulation::with_telemetry(scenario.clone(), protocol, CountingTap::default());
            let report = sim.run();
            let events = sim.processed_events();
            let tap = sim.into_telemetry();
            assert_eq!(report, Simulation::new(scenario, protocol).run(), "{name}");
            assert_eq!(tap.events, events);
            assert_eq!(tap.event_ns.count(), events);
            assert_eq!(tap.originations, report.data_sent);
            assert_eq!(
                tap.deliveries,
                report.data_delivered + report.duplicate_deliveries
            );
            assert_eq!(tap.drops, report.drops);
            assert_eq!(
                tap.transmissions,
                report.control_packets + report.data_transmissions
            );
            assert_eq!(tap.transmissions, tap.medium.transmissions.value());
            // Frames still in flight at the horizon, or arriving at a node an
            // outage has switched off, were delivered but never received.
            let delivered = tap.medium.deliveries.value();
            assert!(tap.receives <= delivered && tap.receives * 10 > delivered * 9);
            assert_eq!(
                tap.bundle_ops,
                report.bundles_stored
                    + report.bundles_forwarded
                    + report.bundles_expired
                    + report.bundles_evicted
                    + report.custody_transfers
            );
            assert!(report.data_sent > 0 && tap.neighbors_gained > 0, "{name}");
        }
    }

    #[test]
    fn null_protocol_keeps_the_beacon_plane_and_routes_nothing() {
        let scenario = by_name("highway-yan").unwrap().scenario(1, 1.5);
        let beacon = ProtocolKind::Yan.build().beacon_interval();
        assert!(beacon.is_some());
        let mut sim = Simulation::with_factory(scenario, &|| Box::new(NullProtocol { beacon }));
        let report = sim.run();
        assert_eq!(report.protocol, "Null");
        assert!(report.data_sent > 0 && report.control_packets > 0);
        assert_eq!((report.data_delivered, report.data_transmissions), (0, 0));
        assert_eq!(report.drops, report.data_sent);
    }

    #[test]
    fn pins_cover_every_workload() {
        for w in &WORKLOADS {
            assert!(
                PINS.iter().any(|(name, _, _)| *name == w.name),
                "{}",
                w.name
            );
        }
    }
}
