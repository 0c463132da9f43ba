//! The six workloads: what each one runs and why it is here.
//!
//! A workload is a name, a reason, and a recipe that turns `--seed` into the
//! inputs the program sees — a built [`Scenario`] or [`CampaignPlan`]. No
//! workload name or seed ever reaches a crate under `crates/`.
//!
//! Sizes are fixed; only simulated durations scale (`--smoke` divides them
//! by 20). Every workload is sized so that one repeat's timed region lasts
//! a quarter of a second to a second: a run then holds a dozen repeats or
//! more, so the fastest third of them is several repeats, not one. The highway scenarios start their flows after a 5 s warm-up, so
//! those two run 12 and 15 simulated seconds. `README.md` lists how the durations and replication counts were
//! scaled from the issue that defined this benchmark, and why.

use vanet_core::{CampaignPlan, ProtocolKind, ReplicationPolicy, Scenario};
use vanet_runner::{campaign_by_name, parse_scenario};
use vanet_sim::SimDuration;

/// Pool workers for the campaign workloads: two, or one on a single-core
/// host. Reported with every campaign result because it decides the wall
/// time.
pub fn campaign_workers() -> usize {
    vanet_sim::pool::available_workers().min(2)
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One simulation, one thread.
    Sim {
        /// Scenario specifier, parsed by `vanet_runner::parse_scenario`
        /// inside the set-up region (spec parsing is part of set-up).
        spec: &'static str,
        protocol: ProtocolKind,
        sim_seconds: f64,
    },
    /// The `table1` catalog campaign on the worker pool, journaled.
    Campaign { replications: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "city10k-greedy",
        why: "Beacon plane only at 10k nodes: scheduler, mobility step, grid, medium, arena do the work, routing almost none; the BENCH_hotpath scenario",
        kind: Kind::Sim {
            spec: "megacity-10000",
            protocol: ProtocolKind::Greedy,
            sim_seconds: 2.5,
        },
    },
    Workload {
        name: "city100k-greedy",
        why: "Same layers with a working set beyond L2/L3 (100k nodes): arena slab, calendar tier, pre-sizing and cache warming pay here or nowhere",
        kind: Kind::Sim {
            spec: "megacity-100000",
            protocol: ProtocolKind::Greedy,
            sim_seconds: 0.25,
        },
    },
    Workload {
        name: "highway-yan",
        why: "The paper's protocol on the paper's regime (480 vehicles, 32 flows): the only workload where links (Eq. 1-4) and routing::yan carry weight",
        kind: Kind::Sim {
            spec: "congested:flows=32",
            protocol: ProtocolKind::Yan,
            sim_seconds: 15.0,
        },
    },
    Workload {
        name: "highway-aodv",
        why: "Control-heavy: RREQ floods make routing::ondemand and broadcast fan-out in net::medium dominate; a scheduler win should not move it",
        kind: Kind::Sim {
            spec: "congested:flows=16",
            protocol: ProtocolKind::Aodv,
            sim_seconds: 12.0,
        },
    },
    Workload {
        name: "dtn-epidemic",
        why: "Buffer-heavy: counterflow highway with outages, nearly all host time in routing::dtn summary vectors and BundleBuffer; bypasses what the city workloads stress",
        kind: Kind::Sim {
            spec: "disrupted-60:flows=8,ttl=20",
            protocol: ProtocolKind::Epidemic,
            sim_seconds: 60.0,
        },
    },
    Workload {
        name: "campaign-cold",
        why: "144 short simulations on 2 pool workers with a journal, then JSONL export: Simulation::new, pool hand-off, Journal::record and Summary dominate",
        kind: Kind::Campaign { replications: 8 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario a simulation workload runs.
    ///
    /// # Panics
    ///
    /// Panics on a campaign workload, or if the built-in spec stops parsing.
    pub fn scenario(&self, seed: u64, scale: f64) -> Scenario {
        let Kind::Sim {
            spec, sim_seconds, ..
        } = self.kind
        else {
            panic!("{} is not a simulation workload", self.name);
        };
        parse_scenario(spec)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
            .with_duration(SimDuration::from_secs(sim_seconds / scale))
            .with_seed(seed)
    }

    /// The plan a campaign workload runs: the quick `table1` catalog entry
    /// (3 regimes x 6 representative protocols) with a fixed replication
    /// count. Replicate `r` of `--seed N` runs seed `1000 N + r`, so two
    /// benchmark seeds share no job.
    ///
    /// # Panics
    ///
    /// Panics on a simulation workload.
    pub fn plan(&self, seed: u64, scale: f64) -> CampaignPlan {
        let Kind::Campaign { replications } = self.kind else {
            panic!("{} is not a campaign workload", self.name);
        };
        let mut plan = campaign_by_name("table1", false)
            .expect("table1 is in the catalog")
            .to_plan()
            .with_replication(ReplicationPolicy::Fixed(replications));
        for cell in &mut plan.cells {
            let duration = cell.scenario.duration / scale;
            cell.scenario = cell
                .scenario
                .clone()
                .with_duration(duration)
                .with_seed(seed * 1000);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn seeds_reach_the_inputs_and_scale_only_shortens() {
        let yan = by_name("highway-yan").unwrap();
        let (a, b) = (yan.scenario(1, 1.0), yan.scenario(2, 1.0));
        assert_eq!((a.seed, b.seed, a.flows), (1, 2, 32));
        assert_eq!(a.vehicle_count(), 480);
        assert_eq!(yan.scenario(1, 20.0).duration.as_secs(), 0.75);
        assert_eq!(yan.scenario(1, 20.0).vehicle_count(), 480);

        let cold = by_name("campaign-cold").unwrap();
        let plan = cold.plan(3, 1.0);
        assert_eq!((plan.cells.len(), plan.initial_job_count()), (18, 144));
        assert!(plan.cells.iter().all(|c| c.scenario.seed == 3000));
    }
}
