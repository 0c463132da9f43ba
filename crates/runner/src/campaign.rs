//! The uniform campaign builder: a (scenario grid × protocols × seeds)
//! cube that converts to a [`CampaignPlan`].
//!
//! A [`CampaignSpec`] names a set of labelled scenarios, a set of protocols
//! and a replication count; [`CampaignSpec::to_plan`] turns it into the
//! equivalent [`CampaignPlan`] (scenario-major cells, `Fixed` replication),
//! which is what the engine runs and which owns job expansion and seeding.
//! The builder stays because the catalog ([`crate::campaign_by_name`]) and
//! the CLI's `--scenarios × --protocols` campaigns are written in it, and the
//! repo benchmark builds its campaign workload from
//! `campaign_by_name(..).to_plan()`.

use vanet_core::{CampaignPlan, ProtocolKind, Scenario};

/// A declarative description of one uniform cross-product campaign.
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

    /// Converts the spec to the equivalent [`CampaignPlan`]: one `Fixed`
    /// cell per (scenario, protocol) pair, in scenario-major order.
    #[must_use]
    pub fn to_plan(&self) -> CampaignPlan {
        CampaignPlan::cross_product(
            self.name.clone(),
            &self.scenarios,
            &self.protocols,
            self.replications.max(1),
        )
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

    fn spec() -> CampaignSpec {
        CampaignSpec::new("test")
            .scenario("a", Scenario::highway(10).with_seed(100))
            .scenario("b", Scenario::urban(10).with_seed(200))
            .protocols([ProtocolKind::Aodv, ProtocolKind::Greedy])
            .replications(3)
    }

    #[test]
    fn job_expansion_is_cell_major_and_seeded() {
        let jobs = spec().to_plan().initial_jobs();
        // Cell-major jobs seeded `base seed + replicate`.
        let job_cells: Vec<(usize, usize)> =
            jobs.iter().map(|job| (job.cell, job.replicate)).collect();
        assert_eq!(
            job_cells,
            [
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 0),
                (3, 1),
                (3, 2),
            ]
        );
        let seeds: Vec<u64> = jobs.iter().map(|job| job.scenario.seed).collect();
        assert_eq!(
            seeds,
            [100, 101, 102, 100, 101, 102, 200, 201, 202, 200, 201, 202]
        );
    }

    #[test]
    fn replications_clamp_to_one() {
        // A replication count of zero still runs one seed.
        let one = CampaignSpec::new("x")
            .scenario("a", Scenario::highway(4))
            .protocols([ProtocolKind::Flooding])
            .replications(0)
            .to_plan();
        assert_eq!(one.initial_job_count(), 1);
        assert_eq!(one.initial_jobs().len(), 1);
    }

    #[test]
    fn spec_converts_to_equivalent_plan() {
        let plan = spec().to_plan();
        assert_eq!(plan.name, "test");
        assert_eq!(plan.initial_job_count(), 12);
        // Cells are scenario-major: every protocol on "a", then on "b".
        let cells: Vec<(&str, u64, ProtocolKind)> = plan
            .cells
            .iter()
            .map(|c| (c.label.as_str(), c.scenario.seed, c.protocol))
            .collect();
        assert_eq!(
            cells,
            [
                ("a", 100, ProtocolKind::Aodv),
                ("a", 100, ProtocolKind::Greedy),
                ("b", 200, ProtocolKind::Aodv),
                ("b", 200, ProtocolKind::Greedy),
            ]
        );
    }
}
