//! Named, ready-to-run campaigns for the paper's evaluation matrix.
//!
//! The catalog gives the `vanet-campaign` CLI (and tests) one-word access to
//! the standard sweeps: every simulated figure and table of the paper is
//! `vanet-campaign NAME [--full] [--seeds N]`. Every campaign comes in a quick
//! variant (CI-sized) and a full variant (paper-scale densities and
//! durations).

use crate::campaign::CampaignSpec;
use vanet_core::{ProtocolKind, Scenario, TrafficRegime};
use vanet_sim::SimDuration;

/// Parses a scenario specifier used by the CLI's `--scenarios` flag (see
/// `scenario_spec.rs`).
pub use crate::scenario_spec::parse as parse_scenario;

/// Names of the campaigns [`campaign_by_name`] knows, with one-line blurbs.
pub const CATALOG: [(&str, &str); 6] = [
    (
        "quick",
        "2 scenarios x 3 protocols x 3 seeds smoke campaign",
    ),
    (
        "table1",
        "Table I: one representative protocol per category, three traffic regimes",
    ),
    ("fig2", "Fig. 2: AODV discovery cost vs network size"),
    ("fig5", "Fig. 5: AODV vs RSU-assisted DRR in sparse traffic"),
    ("fig6", "Fig. 6: geographic/zone routing on the urban grid"),
    (
        "density",
        "highway density sweep over all six representatives",
    ),
];

fn quick_duration(full: bool) -> SimDuration {
    if full {
        SimDuration::from_secs(90.0)
    } else {
        SimDuration::from_secs(20.0)
    }
}

fn regime_scenario(regime: TrafficRegime, full: bool) -> Scenario {
    if full {
        Scenario::highway_regime(regime)
    } else {
        // Scaled-down populations that keep the sparse < normal < congested
        // ordering while staying CI-fast.
        let vehicles = match regime {
            TrafficRegime::Sparse => 10,
            TrafficRegime::Normal => 40,
            TrafficRegime::Congested => 90,
        };
        Scenario::highway(vehicles).with_name(format!("quick-{regime}"))
    }
}

/// Builds a named catalog campaign, or `None` for an unknown name.
#[must_use]
pub fn campaign_by_name(name: &str, full: bool) -> Option<CampaignSpec> {
    let duration = quick_duration(full);
    let seeds = if full { 5 } else { 3 };
    let spec = match name {
        "quick" => {
            let vehicles = if full { 60 } else { 30 };
            CampaignSpec::new("quick")
                .scenario(
                    format!("highway-{vehicles}"),
                    Scenario::highway(vehicles)
                        .with_flows(3)
                        .with_duration(duration),
                )
                .scenario(
                    format!("urban-{vehicles}"),
                    Scenario::urban(vehicles)
                        .with_flows(3)
                        .with_duration(duration),
                )
                .protocols([
                    ProtocolKind::Aodv,
                    ProtocolKind::Greedy,
                    ProtocolKind::Flooding,
                ])
                .replications(seeds)
        }
        "table1" => {
            let mut spec = CampaignSpec::new("table1")
                .protocols(ProtocolKind::REPRESENTATIVES)
                .replications(seeds);
            for regime in TrafficRegime::ALL {
                spec = spec.scenario(
                    regime.to_string(),
                    regime_scenario(regime, full)
                        .with_flows(4)
                        .with_duration(duration),
                );
            }
            spec
        }
        "fig2" => {
            let sizes: &[usize] = if full {
                &[20, 40, 80, 120, 160]
            } else {
                &[20, 40]
            };
            let mut spec = CampaignSpec::new("fig2")
                .protocols([ProtocolKind::Aodv])
                .replications(seeds);
            for &n in sizes {
                spec = spec.scenario(
                    format!("fig2-{n}"),
                    Scenario::highway(n)
                        .with_name(format!("fig2-{n}"))
                        .with_flows(2)
                        .with_duration(duration),
                );
            }
            spec
        }
        "fig5" => {
            let rsu_counts: &[usize] = if full { &[0, 2, 4, 8] } else { &[0, 4] };
            let mut spec = CampaignSpec::new("fig5")
                .protocols([ProtocolKind::Aodv, ProtocolKind::Drr])
                .replications(seeds);
            for &rsus in rsu_counts {
                spec = spec.scenario(
                    format!("fig5-{rsus}-rsus"),
                    Scenario::highway_regime(TrafficRegime::Sparse)
                        .with_name(format!("fig5-{rsus}-rsus"))
                        .with_seed(5)
                        .with_flows(5)
                        .with_rsus(rsus)
                        .with_duration(duration),
                );
            }
            spec
        }
        "fig6" => CampaignSpec::new("fig6")
            .scenario(
                "fig6-urban",
                Scenario::urban(if full { 80 } else { 40 })
                    .with_name("fig6-urban")
                    .with_flows(4)
                    .with_duration(duration),
            )
            .protocols([
                ProtocolKind::Flooding,
                ProtocolKind::Zone,
                ProtocolKind::Greedy,
            ])
            .replications(seeds),
        "density" => {
            let mut spec = CampaignSpec::new("density")
                .protocols(ProtocolKind::REPRESENTATIVES)
                .replications(seeds);
            for vehicles in [10usize, 40, 90] {
                spec = spec.scenario(
                    format!("highway-{vehicles}"),
                    Scenario::highway(vehicles)
                        .with_flows(3)
                        .with_duration(duration),
                );
            }
            spec
        }
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_builds() {
        for (name, _) in CATALOG {
            for full in [false, true] {
                let spec = campaign_by_name(name, full)
                    .unwrap_or_else(|| panic!("catalog entry {name} missing"));
                assert!(
                    spec.to_plan().initial_job_count() > 0,
                    "{name} expands to zero jobs"
                );
            }
        }
        assert!(campaign_by_name("nope", false).is_none());
    }

    #[test]
    fn quick_campaign_matches_acceptance_shape() {
        let spec = campaign_by_name("quick", false).unwrap();
        assert!(spec.scenarios.len() >= 2);
        assert!(spec.protocols.len() >= 3);
        assert_eq!(spec.replications, 3);
    }

    #[test]
    fn table1_crosses_three_regimes_with_six_categories() {
        for full in [false, true] {
            let spec = campaign_by_name("table1", full).unwrap();
            assert_eq!(spec.scenarios.len(), TrafficRegime::ALL.len());
            let plan = spec.to_plan();
            assert_eq!(plan.cells.len(), 18);
            let mut categories: Vec<_> = plan.cells.iter().map(|c| c.protocol.category()).collect();
            categories.sort();
            categories.dedup();
            assert_eq!(categories.len(), 6, "one representative per category");
        }
    }

    #[test]
    fn fig5_crosses_rsu_counts_with_aodv_and_drr() {
        for (full, rsus) in [(false, &[0, 4][..]), (true, &[0, 2, 4, 8][..])] {
            let spec = campaign_by_name("fig5", full).unwrap();
            assert_eq!(spec.protocols, [ProtocolKind::Aodv, ProtocolKind::Drr]);
            let shape: Vec<_> = spec
                .scenarios
                .iter()
                .map(|(_, s)| (s.rsu_count, s.seed, s.flows))
                .collect();
            let expected: Vec<_> = rsus.iter().map(|&n| (n, 5, 5)).collect();
            assert_eq!(shape, expected);
        }
    }
}
