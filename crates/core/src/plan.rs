//! Declarative campaign plans: the one description of an experiment sweep.
//!
//! A [`CampaignPlan`] is a list of explicit *cells* — each a labelled
//! (scenario, protocol, replication policy) binding — rather than a uniform
//! (scenario grid × protocol list) cross product. That makes mixed
//! comparisons (Fig. 5's "AODV without RSUs vs DRR with increasing RSU
//! counts") one plan, while [`CampaignPlan::cross_product`] covers uniform
//! sweeps.
//!
//! The plan also owns the campaign layer's two determinism conventions, so
//! everything that runs or caches a plan (the `vanet-runner` engine, its
//! journal) agrees by construction:
//!
//! * **seeding** — replication `r` of a cell runs the cell's scenario with
//!   seed `scenario.seed + r` ([`CampaignPlan::job`]);
//! * **identity** — a job is identified by the stable content hash of its
//!   fully seeded scenario and its protocol ([`PlanJob::key`]), which is what
//!   journals and caches key on.

use crate::scenario::Scenario;
use crate::taxonomy::ProtocolKind;
use vanet_sim::StableHasher;

/// How many replications a cell runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationPolicy {
    /// Exactly `n` replications (clamped to at least 1).
    Fixed(usize),
    /// Keep adding replications until the 95% confidence interval of the
    /// chosen summary metric is narrow enough (or `max` is reached).
    ConfidenceWidth {
        /// The summary metric to watch (a `METRIC_NAMES` entry, e.g.
        /// `"delivery_ratio"`).
        metric: String,
        /// Stop once the CI half-width is at or below this value.
        target_width: f64,
        /// Replications to run before the first width check (at least 2 —
        /// a single sample has no width).
        min: usize,
        /// Hard ceiling on replications (clamped to at least `min`).
        max: usize,
    },
}

impl ReplicationPolicy {
    /// A confidence-width policy with the usual clamps applied.
    #[must_use]
    pub fn confidence_width(
        metric: impl Into<String>,
        target_width: f64,
        min: usize,
        max: usize,
    ) -> Self {
        ReplicationPolicy::ConfidenceWidth {
            metric: metric.into(),
            target_width,
            min,
            max,
        }
    }

    /// Replications to schedule before any adaptive decision.
    #[must_use]
    fn initial_replications(&self) -> usize {
        match self {
            ReplicationPolicy::Fixed(n) => (*n).max(1),
            ReplicationPolicy::ConfidenceWidth { min, .. } => (*min).max(2),
        }
    }

    /// The most replications the policy will ever run.
    #[must_use]
    pub fn max_replications(&self) -> usize {
        match self {
            ReplicationPolicy::Fixed(n) => (*n).max(1),
            ReplicationPolicy::ConfidenceWidth { min, max, .. } => (*max).max((*min).max(2)),
        }
    }
}

/// One explicit cell of a campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// The cell label used in results and exports.
    pub label: String,
    /// The scenario this cell runs (its `seed` is the replication base seed).
    pub scenario: Scenario,
    /// The protocol this cell evaluates.
    pub protocol: ProtocolKind,
    /// How many replications to run.
    pub replication: ReplicationPolicy,
}

/// A declarative campaign: explicit per-cell (scenario, protocol, policy)
/// bindings, built with the fluent methods or [`CampaignPlan::cross_product`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Campaign name (used in exports and progress output).
    pub name: String,
    /// The cells, in result order.
    pub cells: Vec<PlanCell>,
}

impl CampaignPlan {
    /// Creates an empty plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignPlan {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a cell with a single replication (override with
    /// [`CampaignPlan::cell_with`] or [`CampaignPlan::with_replication`]).
    #[must_use]
    pub fn cell(
        self,
        label: impl Into<String>,
        scenario: Scenario,
        protocol: ProtocolKind,
    ) -> Self {
        self.cell_with(label, scenario, protocol, ReplicationPolicy::Fixed(1))
    }

    /// Adds a cell with an explicit replication policy.
    #[must_use]
    pub fn cell_with(
        mut self,
        label: impl Into<String>,
        scenario: Scenario,
        protocol: ProtocolKind,
        replication: ReplicationPolicy,
    ) -> Self {
        self.cells.push(PlanCell {
            label: label.into(),
            scenario,
            protocol,
            replication,
        });
        self
    }

    /// Applies one replication policy to every cell added so far (the CLI's
    /// `--seeds` / `--ci-target` override).
    #[must_use]
    pub fn with_replication(mut self, policy: ReplicationPolicy) -> Self {
        for cell in &mut self.cells {
            cell.replication = policy.clone();
        }
        self
    }

    /// The uniform (scenario grid × protocol list) sweep: scenario-major
    /// cell order, every protocol on every scenario, `replications` fixed
    /// seeds per cell.
    #[must_use]
    pub fn cross_product(
        name: impl Into<String>,
        scenarios: &[(String, Scenario)],
        protocols: &[ProtocolKind],
        replications: usize,
    ) -> Self {
        let mut plan = CampaignPlan::new(name);
        for (label, scenario) in scenarios {
            for &protocol in protocols {
                plan = plan.cell_with(
                    label.clone(),
                    scenario.clone(),
                    protocol,
                    ReplicationPolicy::Fixed(replications),
                );
            }
        }
        plan
    }

    /// Number of jobs scheduled before any adaptive growth.
    #[must_use]
    pub fn initial_job_count(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.replication.initial_replications())
            .sum()
    }

    /// Whether any cell uses an adaptive replication policy.
    #[cfg(test)]
    #[must_use]
    fn is_adaptive(&self) -> bool {
        self.cells
            .iter()
            .any(|c| matches!(c.replication, ReplicationPolicy::ConfidenceWidth { .. }))
    }

    /// The fully seeded job for replication `replicate` of cell `cell`:
    /// the single place the `base seed + replicate` convention lives. The
    /// sum wraps, so a base seed near `u64::MAX` (a spec string can ask for
    /// one) still yields distinct seeds instead of an overflow panic.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn job(&self, cell: usize, replicate: usize) -> PlanJob {
        let spec = &self.cells[cell];
        PlanJob {
            cell,
            replicate,
            scenario: spec
                .scenario
                .clone()
                .with_seed(spec.scenario.seed.wrapping_add(replicate as u64)),
            protocol: spec.protocol,
        }
    }

    /// Expands every cell's initial replications into a flat, cell-major job
    /// list (for `Fixed`-only plans this is the complete job list).
    #[must_use]
    pub fn initial_jobs(&self) -> Vec<PlanJob> {
        let mut jobs = Vec::with_capacity(self.initial_job_count());
        for (cell, spec) in self.cells.iter().enumerate() {
            for replicate in 0..spec.replication.initial_replications() {
                jobs.push(self.job(cell, replicate));
            }
        }
        jobs
    }
}

/// One independent unit of work: a single seeded simulation run.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Index of the plan cell this job belongs to.
    pub cell: usize,
    /// Replication index within the cell (0-based).
    pub replicate: usize,
    /// The fully seeded scenario to run.
    pub scenario: Scenario,
    /// The protocol to run it with.
    pub protocol: ProtocolKind,
}

impl PlanJob {
    /// The job's stable identity: the content hash of its seeded scenario
    /// and protocol. Two jobs share a key exactly when they would produce
    /// the same report, so journals and caches key on it — independent of
    /// campaign name, cell label, cell index or replication index.
    #[must_use]
    pub fn key(&self) -> u64 {
        let mut hasher = StableHasher::new();
        hasher.write_str("job/v1");
        hasher.write_u64(self.scenario.content_hash());
        hasher.write_u64(self.protocol.content_hash());
        hasher.finish()
    }

    /// The key rendered as fixed-width hex (the journal's on-disk form).
    #[cfg(test)]
    fn key_hex(&self) -> String {
        format!("{:016x}", self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_sim::SimDuration;

    fn tiny(seed: u64) -> Scenario {
        Scenario::highway(8)
            .with_seed(seed)
            .with_duration(SimDuration::from_secs(5.0))
    }

    #[test]
    fn cross_product_matches_legacy_cell_order() {
        let scenarios = vec![("a".to_owned(), tiny(100)), ("b".to_owned(), tiny(200))];
        let protocols = [ProtocolKind::Aodv, ProtocolKind::Greedy];
        let plan = CampaignPlan::cross_product("x", &scenarios, &protocols, 3);
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.cells[0].label, "a");
        assert_eq!(plan.cells[0].protocol, ProtocolKind::Aodv);
        assert_eq!(plan.cells[1].protocol, ProtocolKind::Greedy);
        assert_eq!(plan.cells[2].label, "b");
        let jobs = plan.initial_jobs();
        assert_eq!(jobs.len(), 12);
        // Cell-major, seeds base + replicate.
        assert_eq!(jobs[0].cell, 0);
        assert_eq!(jobs[0].scenario.seed, 100);
        assert_eq!(jobs[2].scenario.seed, 102);
        assert_eq!(jobs[3].cell, 1);
        assert_eq!(jobs[6].scenario.seed, 200);
    }

    #[test]
    fn mixed_cells_bind_protocols_per_cell() {
        let plan = CampaignPlan::new("fig5")
            .cell("AODV / 0 RSUs", tiny(5), ProtocolKind::Aodv)
            .cell_with(
                "DRR / 4 RSUs",
                tiny(5).with_rsus(4),
                ProtocolKind::Drr,
                ReplicationPolicy::Fixed(2),
            );
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.initial_job_count(), 3);
        assert!(!plan.is_adaptive());
    }

    #[test]
    fn policy_clamps() {
        assert_eq!(ReplicationPolicy::Fixed(0).initial_replications(), 1);
        let cw = ReplicationPolicy::confidence_width("delivery_ratio", 0.1, 0, 0);
        assert_eq!(cw.initial_replications(), 2);
        assert_eq!(cw.max_replications(), 2);
        let cw = ReplicationPolicy::confidence_width("delivery_ratio", 0.1, 3, 10);
        assert_eq!(cw.initial_replications(), 3);
        assert_eq!(cw.max_replications(), 10);
    }

    #[test]
    fn job_keys_identify_work_not_bookkeeping() {
        let a = CampaignPlan::new("one").cell("l1", tiny(7), ProtocolKind::Greedy);
        let b = CampaignPlan::new("two")
            .cell("other-label", tiny(1), ProtocolKind::Aodv)
            .cell("l2", tiny(7), ProtocolKind::Greedy);
        // Same (scenario, protocol, seed) → same key, despite different
        // campaign names, labels and cell indices.
        assert_eq!(a.job(0, 0).key(), b.job(1, 0).key());
        // Different seed, protocol or scenario → different key.
        assert_ne!(a.job(0, 0).key(), a.job(0, 1).key());
        assert_ne!(
            a.job(0, 0).key(),
            CampaignPlan::new("p")
                .cell("l", tiny(7), ProtocolKind::Aodv)
                .job(0, 0)
                .key()
        );
        assert_eq!(a.job(0, 0).key_hex().len(), 16);
    }

    #[test]
    fn replicate_seeds_wrap_past_the_largest_base_seed() {
        let plan = CampaignPlan::new("edge").cell_with(
            "l",
            tiny(u64::MAX),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(3),
        );
        let jobs = plan.initial_jobs();
        let seeds: Vec<u64> = jobs.iter().map(|j| j.scenario.seed).collect();
        assert_eq!(seeds, vec![u64::MAX, 0, 1]);
        let keys: Vec<u64> = jobs.iter().map(PlanJob::key).collect();
        assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
    }

    #[test]
    fn with_replication_applies_to_all_cells() {
        let plan = CampaignPlan::new("x")
            .cell("a", tiny(1), ProtocolKind::Flooding)
            .cell("b", tiny(2), ProtocolKind::Greedy)
            .with_replication(ReplicationPolicy::confidence_width(
                "delivery_ratio",
                0.05,
                2,
                8,
            ));
        assert!(plan.is_adaptive());
        assert_eq!(plan.initial_job_count(), 4);
    }
}
