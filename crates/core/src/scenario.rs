//! Scenario configuration: traffic regime, road layout, radio, infrastructure
//! and application traffic.

use crate::fault::FaultPlan;
use vanet_mobility::{HighwayBuilder, MobilityModel, UrbanGridBuilder};
use vanet_net::MacParams;
use vanet_routing::DtnParams;
use vanet_sim::{SimDuration, SimRng};

/// Which road layout the scenario uses.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadLayout {
    /// Multi-lane bidirectional highway (ring).
    Highway(HighwayBuilder),
    /// Manhattan-grid urban area.
    Urban(UrbanGridBuilder),
}

/// Radio channel model selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelModel {
    /// Deterministic unit-disk reception within the nominal range.
    UnitDisk,
    /// Log-normal shadowing with the given path-loss exponent and sigma (dB).
    Shadowing {
        /// Path-loss exponent.
        alpha: f64,
        /// Shadow-fading standard deviation in dB.
        sigma_db: f64,
    },
}

/// The coarse traffic regimes Table I distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficRegime {
    /// Sparse traffic (rural / night): the network is frequently partitioned.
    Sparse,
    /// Normal free-flowing traffic.
    Normal,
    /// Congested traffic: high density, low speeds.
    Congested,
}

impl TrafficRegime {
    /// Vehicles per kilometre of highway (per direction) for this regime.
    #[must_use]
    pub fn density_per_km(self) -> f64 {
        match self {
            TrafficRegime::Sparse => 3.0,
            TrafficRegime::Normal => 15.0,
            TrafficRegime::Congested => 60.0,
        }
    }

    /// All regimes.
    pub const ALL: [TrafficRegime; 3] = [
        TrafficRegime::Sparse,
        TrafficRegime::Normal,
        TrafficRegime::Congested,
    ];
}

impl std::fmt::Display for TrafficRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrafficRegime::Sparse => "sparse",
            TrafficRegime::Normal => "normal",
            TrafficRegime::Congested => "congested",
        };
        f.write_str(s)
    }
}

/// Complete configuration of one simulation run.
#[derive(Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Master random seed.
    pub seed: u64,
    /// Road layout and vehicle population.
    pub layout: RoadLayout,
    /// Nominal radio range in metres.
    pub radio_range_m: f64,
    /// Channel model.
    pub channel: ChannelModel,
    /// MAC parameters.
    pub mac: MacParams,
    /// Number of road-side units placed evenly along the scenario area.
    pub rsu_count: usize,
    /// Wired backbone latency between road-side units.
    pub backbone_latency: SimDuration,
    /// Number of constant-bit-rate unicast flows between random vehicle pairs.
    pub flows: usize,
    /// Interval between packets of each flow.
    pub packet_interval: SimDuration,
    /// Payload size of each data packet, bytes.
    pub payload_bytes: usize,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Warm-up period before application traffic starts.
    pub warmup: SimDuration,
    /// Mobility integration step.
    pub mobility_step: SimDuration,
    /// Protocol maintenance tick interval.
    pub tick_interval: SimDuration,
    /// Scheduled deterministic disruptions (empty by default).
    pub faults: FaultPlan,
    /// Store-carry-forward knobs for the DTN protocol family (defaults by
    /// default; connected-path protocols never read them).
    pub dtn: DtnParams,
}

/// Hand-rolled to match the derived rendering field-for-field, but omitting
/// `faults` when the plan is empty and `dtn` when it holds the defaults. The
/// content hash is computed over this rendering, so an empty plan / default
/// knobs keep every pre-existing scenario hash — and therefore every cached
/// campaign result — byte-identical, while any non-empty plan or tuned DTN
/// knob invalidates the affected cache entries.
impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Scenario");
        s.field("name", &self.name)
            .field("seed", &self.seed)
            .field("layout", &self.layout)
            .field("radio_range_m", &self.radio_range_m)
            .field("channel", &self.channel)
            .field("mac", &self.mac)
            .field("rsu_count", &self.rsu_count)
            .field("backbone_latency", &self.backbone_latency)
            .field("flows", &self.flows)
            .field("packet_interval", &self.packet_interval)
            .field("payload_bytes", &self.payload_bytes)
            .field("duration", &self.duration)
            .field("warmup", &self.warmup)
            .field("mobility_step", &self.mobility_step)
            .field("tick_interval", &self.tick_interval);
        if !self.faults.is_empty() {
            s.field("faults", &self.faults);
        }
        if !self.dtn.is_default() {
            s.field("dtn", &self.dtn);
        }
        s.finish()
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "default-highway".to_owned(),
            seed: 1,
            layout: RoadLayout::Highway(HighwayBuilder::new().length_m(4_000.0).vehicles(60)),
            radio_range_m: 250.0,
            channel: ChannelModel::UnitDisk,
            mac: MacParams::default(),
            rsu_count: 0,
            backbone_latency: SimDuration::from_millis(5.0),
            flows: 4,
            packet_interval: SimDuration::from_secs(1.0),
            payload_bytes: 512,
            duration: SimDuration::from_secs(120.0),
            warmup: SimDuration::from_secs(5.0),
            mobility_step: SimDuration::from_secs(0.5),
            tick_interval: SimDuration::from_secs(1.0),
            faults: FaultPlan::default(),
            dtn: DtnParams::default(),
        }
    }
}

impl Scenario {
    /// A highway scenario with an explicit vehicle count.
    #[must_use]
    pub fn highway(vehicles: usize) -> Self {
        Scenario {
            name: format!("highway-{vehicles}"),
            layout: RoadLayout::Highway(HighwayBuilder::new().length_m(4_000.0).vehicles(vehicles)),
            ..Self::default()
        }
    }

    /// A sparse highway under scheduled node outages: the regime where
    /// connected-path routing measurably fails (a contemporaneous multi-hop
    /// path rarely exists) but store-carry-forward delivers, because the
    /// ring circulation brings carriers within range of destinations well
    /// within the stretched bundle TTL. This is the asserted version of the
    /// ROADMAP's "bus-ferry only delivers when the ferry happens to pass
    /// both endpoints" observation, generalised to the whole DTN family.
    #[must_use]
    pub fn disrupted_highway(vehicles: usize) -> Self {
        Scenario {
            name: format!("disrupted-highway-{vehicles}"),
            layout: RoadLayout::Highway(
                // Real counterflow is what mixes the clusters: opposite
                // carriageways close at twice the mean speed, so westbound
                // vehicles ferry bundles between eastbound partitions that
                // are never radio-connected to each other.
                HighwayBuilder::new()
                    .length_m(4_000.0)
                    .vehicles(vehicles)
                    .counterflow(true)
                    .speed_std_mps(8.0),
            ),
            radio_range_m: 120.0,
            flows: 2,
            duration: SimDuration::from_secs(300.0),
            faults: FaultPlan::new()
                .node_outage(1, 20.0, 40.0)
                .node_outage(2, 60.0, 80.0),
            // Buffers sized so a carrier can hold the whole disruption's
            // worth of bundles: the point of the scenario is partition
            // tolerance, not buffer pressure. The capacity is a bound —
            // slots materialise as they fill (a node here peaks at tens of
            // bundles, ≈12 KB), so 1024 reserves nothing per node.
            dtn: DtnParams {
                buffer_capacity: 1024,
                bundle_ttl: SimDuration::from_secs(300.0),
                ..DtnParams::default()
            },
            ..Self::default()
        }
    }

    /// A highway scenario for one of the Table-I traffic regimes.
    #[must_use]
    pub fn highway_regime(regime: TrafficRegime) -> Self {
        let length_km = 4.0;
        let vehicles = (regime.density_per_km() * length_km * 2.0).round() as usize;
        let builder = HighwayBuilder::new()
            .length_m(length_km * 1_000.0)
            .vehicles(vehicles.max(4))
            .speed_mean_mps(match regime {
                TrafficRegime::Congested => 12.0,
                _ => 30.0,
            });
        Scenario {
            name: format!("highway-{regime}"),
            layout: RoadLayout::Highway(builder),
            ..Self::default()
        }
    }

    /// A production-scale Manhattan-grid scenario: the city grows with the
    /// fleet so vehicle density stays at roughly 275 vehicles/km² (dense
    /// urban traffic) regardless of `vehicles`. `megacity(10_000)` is the
    /// workspace's standard stress/bench workload.
    #[must_use]
    pub fn megacity(vehicles: usize) -> Self {
        let side_m = (vehicles.max(1) as f64 / 275.0).sqrt() * 1_000.0;
        let blocks = ((side_m / 300.0).ceil() as usize).max(2);
        Scenario {
            name: format!("megacity-{vehicles}"),
            layout: RoadLayout::Urban(
                UrbanGridBuilder::new()
                    .blocks(blocks, blocks)
                    .block_m(300.0)
                    .vehicles(vehicles),
            ),
            flows: 16,
            duration: SimDuration::from_secs(20.0),
            warmup: SimDuration::from_secs(2.0),
            ..Self::default()
        }
    }

    /// An urban Manhattan-grid scenario with an explicit vehicle count.
    #[must_use]
    pub fn urban(vehicles: usize) -> Self {
        Scenario {
            name: format!("urban-{vehicles}"),
            layout: RoadLayout::Urban(
                UrbanGridBuilder::new()
                    .blocks(4, 4)
                    .block_m(300.0)
                    .vehicles(vehicles),
            ),
            ..Self::default()
        }
    }

    /// Sets the scenario name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of road-side units.
    #[must_use]
    pub fn with_rsus(mut self, count: usize) -> Self {
        self.rsu_count = count;
        self
    }

    /// Sets the number of application flows.
    #[must_use]
    pub fn with_flows(mut self, flows: usize) -> Self {
        self.flows = flows;
        self
    }

    /// Sets the simulated duration.
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the radio range.
    #[must_use]
    pub fn with_radio_range(mut self, range_m: f64) -> Self {
        self.radio_range_m = range_m;
        self
    }

    /// Sets the channel model.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the fault plan (scheduled deterministic disruptions).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-node DTN bundle-buffer capacity.
    #[must_use]
    pub fn with_dtn_buffer(mut self, capacity: usize) -> Self {
        self.dtn.buffer_capacity = capacity;
        self
    }

    /// Sets the DTN bundle TTL.
    #[must_use]
    pub fn with_dtn_ttl(mut self, ttl: SimDuration) -> Self {
        self.dtn.bundle_ttl = ttl;
        self
    }

    /// Sets the spray-and-wait copy-ticket budget.
    #[must_use]
    pub fn with_dtn_copies(mut self, copies: u32) -> Self {
        self.dtn.copies = copies;
        self
    }

    /// Sets how many buses are among the vehicles (highway/urban builders).
    #[must_use]
    pub fn with_buses(mut self, buses: usize) -> Self {
        self.layout = match self.layout {
            RoadLayout::Highway(b) => RoadLayout::Highway(b.buses(buses)),
            RoadLayout::Urban(b) => RoadLayout::Urban(b.buses(buses)),
        };
        self
    }

    /// A stable 64-bit content hash of the complete configuration (seed
    /// included): two scenarios hash equal exactly when every field —
    /// layout builder parameters, radio, MAC, traffic, durations — is equal.
    ///
    /// The hash is computed over the canonical `Debug` rendering with the
    /// pinned FNV-1a algorithm from `vanet_sim::hash`, so it is identical
    /// across runs, platforms and worker counts. The campaign journal uses
    /// it as the scenario half of its cache keys, which means any edit to a
    /// scenario automatically invalidates that scenario's cached results.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut hasher = vanet_sim::StableHasher::new();
        hasher.write_str("scenario/v1");
        hasher.write_str(&format!("{self:?}"));
        hasher.finish()
    }

    /// Number of vehicles in the configured layout.
    #[must_use]
    pub fn vehicle_count(&self) -> usize {
        match &self.layout {
            RoadLayout::Highway(b) => b.vehicle_count(),
            RoadLayout::Urban(b) => b.vehicle_count(),
        }
    }

    /// Builds the mobility model for this scenario.
    #[must_use]
    pub fn build_mobility(&self, rng: &mut SimRng) -> Box<dyn MobilityModel + Send> {
        match &self.layout {
            RoadLayout::Highway(b) => Box::new(b.clone().build(rng)),
            RoadLayout::Urban(b) => Box::new(b.clone().build(rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_have_increasing_density() {
        assert!(TrafficRegime::Sparse.density_per_km() < TrafficRegime::Normal.density_per_km());
        assert!(TrafficRegime::Normal.density_per_km() < TrafficRegime::Congested.density_per_km());
        assert_eq!(TrafficRegime::ALL.len(), 3);
        assert_eq!(TrafficRegime::Sparse.to_string(), "sparse");
    }

    #[test]
    fn scenario_builders() {
        let s = Scenario::highway(40)
            .with_name("test")
            .with_seed(9)
            .with_rsus(3)
            .with_flows(2)
            .with_radio_range(300.0);
        assert_eq!(s.name, "test");
        assert_eq!(s.seed, 9);
        assert_eq!(s.rsu_count, 3);
        assert_eq!(s.flows, 2);
        assert_eq!(s.radio_range_m, 300.0);
        assert_eq!(s.vehicle_count(), 40);
    }

    #[test]
    fn regime_scenarios_scale_population() {
        let sparse = Scenario::highway_regime(TrafficRegime::Sparse);
        let congested = Scenario::highway_regime(TrafficRegime::Congested);
        assert!(sparse.vehicle_count() < congested.vehicle_count());
    }

    #[test]
    fn urban_scenario_builds_mobility() {
        let s = Scenario::urban(25);
        let mut rng = SimRng::new(1);
        let m = s.build_mobility(&mut rng);
        assert_eq!(m.states().len(), 25);
    }

    #[test]
    fn content_hash_tracks_every_field() {
        let base = Scenario::highway(40);
        assert_eq!(base.content_hash(), Scenario::highway(40).content_hash());
        for edited in [
            base.clone().with_seed(2),
            base.clone().with_rsus(1),
            base.clone().with_flows(9),
            base.clone().with_radio_range(100.0),
            base.clone().with_name("other"),
            base.clone().with_buses(1),
            base.clone()
                .with_duration(vanet_sim::SimDuration::from_secs(1.0)),
            base.clone()
                .with_faults(FaultPlan::new().node_outage(3, 5.0, 10.0)),
            base.clone().with_dtn_buffer(4),
            base.clone()
                .with_dtn_ttl(vanet_sim::SimDuration::from_secs(90.0)),
            base.clone().with_dtn_copies(2),
        ] {
            assert_ne!(
                base.content_hash(),
                edited.content_hash(),
                "edit not reflected in content hash: {edited:?}"
            );
        }
    }

    #[test]
    fn default_dtn_knobs_are_invisible_to_hash_and_debug() {
        let base = Scenario::highway(40);
        let rendered = format!("{base:?}");
        assert!(
            !rendered.contains("dtn"),
            "default DTN knobs must be omitted from Debug: {rendered}"
        );
        let tuned = base.clone().with_dtn_buffer(8);
        assert!(format!("{tuned:?}").contains("dtn"));
        assert_ne!(base.content_hash(), tuned.content_hash());
    }

    #[test]
    fn disrupted_highway_is_sparse_and_fault_laden() {
        let s = Scenario::disrupted_highway(10);
        assert_eq!(s.vehicle_count(), 10);
        assert!(!s.faults.is_empty());
        assert!(s.radio_range_m < 250.0);
        // Bundles must outlive the partition gaps the scenario engineers, so
        // the TTL spans the whole run.
        assert_eq!(s.dtn.bundle_ttl, SimDuration::from_secs(300.0));
    }

    #[test]
    fn buses_can_be_added() {
        let s = Scenario::highway(20).with_buses(2);
        assert_eq!(s.vehicle_count(), 20);
    }

    #[test]
    fn empty_fault_plan_is_invisible_to_hash_and_debug() {
        let base = Scenario::highway(40);
        let explicit_empty = base.clone().with_faults(FaultPlan::default());
        assert_eq!(base.content_hash(), explicit_empty.content_hash());
        let rendered = format!("{base:?}");
        assert!(
            !rendered.contains("faults"),
            "empty plan must be omitted from Debug: {rendered}"
        );
        // A non-empty plan appears in the rendering (and thus the hash), and
        // two different plans hash differently.
        let jammed = base
            .clone()
            .with_faults(FaultPlan::new().jam(0, 0.9, 0.0, 10.0));
        assert!(format!("{jammed:?}").contains("faults"));
        let outage = base
            .clone()
            .with_faults(FaultPlan::new().node_outage(1, 0.0, 10.0));
        assert_ne!(jammed.content_hash(), outage.content_hash());
    }
}
