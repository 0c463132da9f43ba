//! # vanet-runner — the parallel experiment-campaign engine
//!
//! The paper's contribution is an evaluation *matrix*: protocol families
//! compared across scenarios, densities and seeds. This crate turns that
//! matrix into a first-class object:
//!
//! * [`CampaignPlan`] (from `vanet-core`, re-exported here) declares a
//!   campaign as explicit per-cell (label, scenario, protocol,
//!   [`ReplicationPolicy`]) bindings — mixed comparisons are one plan — with
//!   [`CampaignPlan::cross_product`] (or the [`CampaignSpec`] builder the
//!   catalog is written in) covering uniform sweeps;
//! * [`Runner::run_plan`] is the one way a campaign runs — the CLI, the
//!   figure generators and the examples all execute their plans there — on
//!   a work-stealing `std::thread` pool sized to the available cores,
//!   streaming progress to stderr; with
//!   [`Runner::with_journal`] every completed job is persisted to a
//!   content-hash-keyed [`Journal`], so interrupted campaigns resume
//!   executing only the missing jobs and edited plans re-run only changed
//!   cells;
//! * [`ReplicationPolicy::ConfidenceWidth`] keeps adding seeds to a cell
//!   until the 95% CI of a chosen metric is narrow enough, while
//!   [`ReplicationPolicy::Fixed`] runs exactly `n` seeds;
//! * every cell is reduced to a [`Summary`] carrying mean, std-dev, min/max
//!   and 95% confidence intervals per metric;
//! * results export as fixed-width tables, CSV and JSONL
//!   ([`render_table`], [`render_csv`], [`render_jsonl`]) and parse back
//!   losslessly ([`parse_csv`], [`parse_jsonl`]);
//! * [`record`] is the one JSONL codec and append-log under the journal, the
//!   telemetry log, the manifest and the JSONL export — strict on read, so a
//!   corrupt line is skipped and re-run, never replayed;
//! * [`catalog`] names the standard campaigns, and the `vanet-campaign`
//!   binary runs named or parameterised campaigns from the command line
//!   (`--resume DIR` for journals, `--ci-target` for adaptive replication).
//!
//! **Determinism contract:** a job's result depends only on its pre-assigned
//! seed, cells are reduced in plan order, and adaptive stopping decisions
//! depend only on the (deterministic) reports — so campaign results are
//! byte-identical whether they ran on 1 worker or 64, cold or resumed.
//!
//! # Example
//!
//! ```
//! use vanet_runner::{CampaignPlan, Runner};
//! use vanet_core::{ProtocolKind, Scenario};
//! use vanet_sim::SimDuration;
//!
//! let plan = CampaignPlan::new("doc")
//!     .cell(
//!         "hw-flooding",
//!         Scenario::highway(10).with_duration(SimDuration::from_secs(5.0)),
//!         ProtocolKind::Flooding,
//!     )
//!     .cell(
//!         "hw-greedy",
//!         Scenario::highway(10).with_duration(SimDuration::from_secs(5.0)),
//!         ProtocolKind::Greedy,
//!     );
//! let results = Runner::new().run_plan(&plan);
//! assert_eq!(results.cells.len(), 2);
//! assert_eq!(results.executed_jobs, 2);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod catalog;
pub mod engine;
pub mod export;
pub mod journal;
pub mod manifest;
pub mod record;
mod rss;
pub mod scenario_spec;
pub mod summary;
pub mod telemetry;

pub use analysis::{metric_value, run_analyze, welch_t_test, AnalyzeReport, WelchResult};
pub use campaign::{protocol_by_name, CampaignSpec};
pub use catalog::{campaign_by_name, parse_scenario, CATALOG};
pub use engine::{CampaignResults, CellSummary, QuarantinedJob, Runner, TelemetrySettings};
pub use export::{
    parse_csv, parse_jsonl, render_csv, render_jsonl, render_table, ExportError, ParsedCampaign,
};
pub use journal::{Journal, JournalEntry, QuarantineEntry, JOURNAL_FILE};
pub use manifest::{ManifestEntry, MANIFEST_FILE};
pub use rss::peak_rss_bytes;
pub use scenario_spec::ScenarioParseError;
pub use summary::{t_critical_95, Summary, SummaryStat, METRIC_NAMES};
pub use telemetry::{TelemetryEntry, TelemetryLog, TELEMETRY_FILE};
// The plan types live in vanet-core (beside the scenarios they bind) but are
// part of this crate's primary API.
pub use vanet_core::{CampaignPlan, PlanCell, PlanJob, ReplicationPolicy};
