//! # vanet-core — scenarios, simulation driver, metrics and campaign plans
//!
//! The integration layer of the workspace: it wires the mobility substrate
//! (`vanet-mobility`), the wireless network (`vanet-net`), the analytic link
//! models (`vanet-links`) and the routing protocols (`vanet-routing`) into a
//! runnable discrete-event simulation, and declares campaigns as a
//! [`CampaignPlan`]. Plans are executed and reduced by `vanet-runner`, which
//! regenerates every figure and table of the paper.
//!
//! # Example
//!
//! ```
//! use vanet_core::{run_scenario, ProtocolKind, Scenario};
//! use vanet_sim::SimDuration;
//!
//! let scenario = Scenario::highway(30)
//!     .with_flows(2)
//!     .with_duration(SimDuration::from_secs(20.0));
//! let report = run_scenario(scenario, ProtocolKind::Aodv);
//! assert!(report.data_sent > 0);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod fault;
pub mod metrics;
pub mod plan;
pub mod scenario;
pub mod simulation;
pub mod taxonomy;
pub mod telemetry;

pub use counters::EngineCounters;
pub use fault::{Fault, FaultKind, FaultPlan, FaultPlanError};
pub use metrics::{Metrics, Report, ReportField};
pub use plan::{CampaignPlan, PlanCell, PlanJob, ReplicationPolicy};
pub use scenario::{ChannelModel, RoadLayout, Scenario, TrafficRegime};
pub use simulation::{run_scenario, Simulation};
pub use taxonomy::{taxonomy_lines, ProtocolKind};
pub use telemetry::{
    NoTelemetry, RegionRecord, Telemetry, WindowRecord, WindowedTap, DROP_REASON_COUNT,
    DROP_REASON_NAMES,
};
// The telemetry trait's hook signatures mention these types, so downstream
// crates (the runner) can name them without depending on the layer crates.
pub use vanet_mobility::Position;
pub use vanet_net::MediumStats;
pub use vanet_routing::{BundleOp, DropReason, DtnParams};
