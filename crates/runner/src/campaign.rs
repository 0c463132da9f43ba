//! Legacy campaign specification: the (scenario grid × protocols × seeds)
//! cube, superseded by [`CampaignPlan`].
//!
//! A [`CampaignSpec`] names a set of labelled scenarios, a set of protocols
//! and a replication count, and expands into a flat list of independent
//! [`Job`]s. Each job's seed is fixed at expansion time
//! (`scenario.seed + replicate`, the same convention as
//! `vanet_core::run_averaged`), which is what makes parallel execution
//! trivially deterministic: a job's result depends only on the job, never on
//! which worker runs it or when.
//!
//! **Deprecated in favour of [`CampaignPlan`]**: a spec can only apply every
//! protocol to every scenario uniformly with a fixed replication count. It is
//! kept as a convenience wrapper for exactly that shape — the engine converts
//! it via [`CampaignSpec::to_plan`] (which preserves cell numbering, seeding
//! and therefore byte-identical results) and all new capabilities (per-cell
//! protocol bindings, adaptive replication, journals) exist only on the plan
//! side.

use vanet_core::{CampaignPlan, ProtocolKind, Scenario};

/// A declarative description of one uniform cross-product campaign.
/// Superseded by [`CampaignPlan`]; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in exports and progress output).
    pub name: String,
    /// Labelled scenarios (the rows of the evaluation matrix).
    pub scenarios: Vec<(String, Scenario)>,
    /// Protocols to evaluate on every scenario.
    pub protocols: Vec<ProtocolKind>,
    /// Seed replications per (scenario, protocol) cell.
    pub replications: usize,
}

/// One independent unit of work: a single simulation run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the (scenario × protocol) cell this job belongs to.
    pub cell: usize,
    /// Replication index within the cell (0-based).
    pub replicate: usize,
    /// The fully seeded scenario to run.
    pub scenario: Scenario,
    /// The protocol to run it with.
    pub protocol: ProtocolKind,
}

impl CampaignSpec {
    /// Creates an empty campaign with 1 replication.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            scenarios: Vec::new(),
            protocols: Vec::new(),
            replications: 1,
        }
    }

    /// Adds a labelled scenario.
    #[must_use]
    pub fn scenario(mut self, label: impl Into<String>, scenario: Scenario) -> Self {
        self.scenarios.push((label.into(), scenario));
        self
    }

    /// Sets the protocol list.
    #[must_use]
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.protocols = protocols.into_iter().collect();
        self
    }

    /// Sets the replication count (clamped to at least 1).
    #[must_use]
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Number of (scenario × protocol) cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.protocols.len()
    }

    /// Number of individual simulation jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.replications.max(1)
    }

    /// The label, scenario and protocol of cell `index` (cells are
    /// scenario-major); the single place the cell numbering is decoded.
    #[must_use]
    pub fn cell(&self, index: usize) -> (&str, &Scenario, ProtocolKind) {
        let per_scenario = self.protocols.len();
        let (label, scenario) = &self.scenarios[index / per_scenario];
        (label, scenario, self.protocols[index % per_scenario])
    }

    /// Converts the spec to the equivalent [`CampaignPlan`]: one `Fixed`
    /// cell per (scenario, protocol) pair in the same scenario-major order,
    /// so plan execution reproduces spec execution byte-identically.
    #[must_use]
    pub fn to_plan(&self) -> CampaignPlan {
        CampaignPlan::cross_product(
            self.name.clone(),
            &self.scenarios,
            &self.protocols,
            self.replications.max(1),
        )
    }

    /// Expands the campaign into its flat, cell-major job list.
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        let replications = self.replications.max(1);
        let mut jobs = Vec::with_capacity(self.job_count());
        let mut cell = 0;
        for (_, scenario) in &self.scenarios {
            for &protocol in &self.protocols {
                for replicate in 0..replications {
                    jobs.push(Job {
                        cell,
                        replicate,
                        scenario: scenario
                            .clone()
                            .with_seed(scenario.seed.wrapping_add(replicate as u64)),
                        protocol,
                    });
                }
                cell += 1;
            }
        }
        jobs
    }
}

/// Parses a protocol by its display name (e.g. `"AODV"`, `"Greedy"`) or its
/// enum-ish identifier (case-insensitive).
#[must_use]
pub fn protocol_by_name(name: &str) -> Option<ProtocolKind> {
    ProtocolKind::ALL.into_iter().find(|p| {
        p.name().eq_ignore_ascii_case(name) || format!("{p:?}").eq_ignore_ascii_case(name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_sim::SimDuration;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("test")
            .scenario("a", Scenario::highway(10).with_seed(100))
            .scenario("b", Scenario::urban(10).with_seed(200))
            .protocols([ProtocolKind::Aodv, ProtocolKind::Greedy])
            .replications(3)
    }

    #[test]
    fn job_expansion_is_cell_major_and_seeded() {
        let spec = spec();
        assert_eq!(spec.cell_count(), 4);
        assert_eq!(spec.job_count(), 12);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12);
        // First cell: scenario "a" with AODV, seeds 100..103.
        for (r, job) in jobs[..3].iter().enumerate() {
            assert_eq!(job.cell, 0);
            assert_eq!(job.replicate, r);
            assert_eq!(job.scenario.seed, 100 + r as u64);
            assert_eq!(job.protocol, ProtocolKind::Aodv);
        }
        // Cells are numbered scenario-major.
        assert_eq!(jobs[3].cell, 1);
        assert_eq!(jobs[3].protocol, ProtocolKind::Greedy);
        assert_eq!(jobs[6].cell, 2);
        assert_eq!(jobs[6].scenario.seed, 200);
        let (label, scenario, protocol) = spec.cell(2);
        assert_eq!(
            (label, scenario.seed, protocol),
            ("b", 200, ProtocolKind::Aodv)
        );
    }

    #[test]
    fn replications_clamp_to_one() {
        let spec = CampaignSpec::new("x")
            .scenario(
                "a",
                Scenario::highway(4).with_duration(SimDuration::from_secs(1.0)),
            )
            .protocols([ProtocolKind::Flooding])
            .replications(0);
        assert_eq!(spec.job_count(), 1);
        assert_eq!(spec.jobs().len(), 1);
    }

    #[test]
    fn protocol_names_round_trip() {
        // Exhaustive: every catalogued kind must round-trip through both its
        // display name and its enum identifier, case-insensitively — a new
        // protocol that forgets a name mapping fails here.
        for kind in ProtocolKind::ALL {
            assert_eq!(protocol_by_name(kind.name()), Some(kind), "{kind:?}");
            assert_eq!(
                protocol_by_name(&kind.name().to_lowercase()),
                Some(kind),
                "{kind:?} (lowercase display name)"
            );
            let identifier = format!("{kind:?}");
            assert_eq!(
                protocol_by_name(&identifier),
                Some(kind),
                "{kind:?} (enum identifier)"
            );
        }
        assert_eq!(protocol_by_name("aodv"), Some(ProtocolKind::Aodv));
        assert_eq!(protocol_by_name("YanTbpss"), Some(ProtocolKind::YanTbpss));
        assert_eq!(protocol_by_name("nope"), None);
    }

    #[test]
    fn spec_converts_to_equivalent_plan() {
        let spec = spec();
        let plan = spec.to_plan();
        assert_eq!(plan.name, spec.name);
        assert_eq!(plan.cells.len(), spec.cell_count());
        assert_eq!(plan.initial_job_count(), spec.job_count());
        // Same cell numbering, labels, protocols and job seeding.
        let plan_jobs = plan.initial_jobs();
        for (job, plan_job) in spec.jobs().iter().zip(&plan_jobs) {
            assert_eq!(job.cell, plan_job.cell);
            assert_eq!(job.replicate, plan_job.replicate);
            assert_eq!(job.scenario, plan_job.scenario);
            assert_eq!(job.protocol, plan_job.protocol);
        }
    }
}
