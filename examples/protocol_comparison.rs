//! The full Table-I style comparison: one representative protocol per
//! category, across the three traffic regimes (sparse / normal / congested),
//! printing delivery ratio, delay, overhead and route breaks.
//!
//! Run with: `cargo run --release --example protocol_comparison`

use vanet::core::{CampaignPlan, ProtocolKind, Scenario, TrafficRegime};
use vanet::sim::SimDuration;
use vanet_runner::{render_table, Runner};

fn main() {
    let scenarios: Vec<(String, Scenario)> = TrafficRegime::ALL
        .iter()
        .map(|&regime| {
            (
                regime.to_string(),
                Scenario::highway_regime(regime)
                    .with_flows(4)
                    .with_duration(SimDuration::from_secs(60.0)),
            )
        })
        .collect();

    println!("Representative protocol per category, 3 traffic regimes, 60 s each\n");
    let plan = CampaignPlan::cross_product(
        "protocol-comparison",
        &scenarios,
        &ProtocolKind::REPRESENTATIVES,
        2,
    );
    println!("{}", render_table(&Runner::new().run_plan(&plan)));

    println!("Categories (Fig. 1 taxonomy):");
    for line in vanet::core::taxonomy_lines() {
        println!("  {line}");
    }
}
