//! # vanet-bench — experiment generators for every figure and table
//!
//! Each `figN_*` function regenerates the data behind the corresponding
//! figure of the paper; [`table1_campaign`] regenerates the category
//! comparison. The binaries in `src/bin/` print the results.
//!
//! All generators accept a [`Effort`] knob: `Quick` keeps runs short enough
//! for CI; `Full` runs the paper-scale densities and durations (the
//! binaries' `--full`, README "The campaign CLI"). No full-effort results
//! are committed.
//!
//! Every simulation-backed generator is a [`CampaignPlan`] executed by
//! [`Runner::run_plan`], so figure regeneration parallelises across all
//! available cores while staying byte-identical to a serial run. The figure
//! generators reduce each cell to its mean [`Report`]
//! ([`vanet_runner::CellSummary::mean_report`]); [`table1_campaign`] returns
//! the full per-cell [`vanet_runner::Summary`] statistics.

#![warn(missing_docs)]

use vanet_core::{ProtocolKind, Report, Scenario, TrafficRegime};
use vanet_links::direction::{same_direction, DirectionGroup};
use vanet_links::lifetime::{link_lifetime_constant_acceleration, link_lifetime_constant_speed};
use vanet_links::probability::expected_link_duration;
use vanet_mobility::Vec2;
use vanet_runner::{CampaignPlan, CampaignResults, CellSummary, ReplicationPolicy, Runner};
use vanet_sim::SimDuration;

/// How much work an experiment generator should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Short runs: suitable for CI.
    Quick,
    /// Paper-scale densities and durations (the binaries' `--full`).
    Full,
}

impl Effort {
    fn duration(self) -> SimDuration {
        match self {
            Effort::Quick => SimDuration::from_secs(20.0),
            Effort::Full => SimDuration::from_secs(90.0),
        }
    }

    fn seeds(self) -> usize {
        match self {
            Effort::Quick => 1,
            Effort::Full => 3,
        }
    }
}

/// A catalog campaign (the single source of truth for its grid) at
/// `effort`'s scale, with `effort`'s seed count in every cell.
fn catalog_plan(name: &str, effort: Effort) -> CampaignPlan {
    vanet_runner::campaign_by_name(name, effort == Effort::Full)
        .unwrap_or_else(|| panic!("{name} is a catalog campaign"))
        .to_plan()
        .with_replication(ReplicationPolicy::Fixed(effort.seeds()))
}

/// Figure 1 — the taxonomy, rendered as one line per category.
#[must_use]
pub fn fig1_taxonomy() -> Vec<String> {
    vanet_core::taxonomy_lines()
}

/// Figure 2 — connectivity-based RREQ/RREP discovery: how many control
/// packets a single AODV discovery costs as the network grows (the broadcast
/// storm behind Fig. 2's flood).
#[must_use]
pub fn fig2_discovery(effort: Effort) -> Vec<(usize, Report)> {
    let plan = catalog_plan("fig2", effort);
    let results = Runner::new().run_plan(&plan);
    plan.cells
        .iter()
        .zip(&results.cells)
        .map(|(cell, result)| (cell.scenario.vehicle_count(), result.mean_report()))
        .collect()
}

/// One row of the Fig. 3 sweep: the analytic link lifetime for a given
/// relative speed and acceleration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimePoint {
    /// Relative speed `v_i − v_j` in m/s.
    pub relative_speed: f64,
    /// Relative acceleration `a_i − a_j` in m/s².
    pub relative_acceleration: f64,
    /// Initial separation `d_0` in metres.
    pub initial_separation: f64,
    /// Closed-form lifetime, seconds.
    pub lifetime_s: f64,
    /// Expected lifetime when the relative speed is uncertain (σ = 3 m/s).
    pub expected_lifetime_s: f64,
}

/// Figure 3 — link lifetime as a function of the mobility parameters
/// (Eq. 1–4), for both the constant-speed and constant-acceleration cases.
#[must_use]
pub fn fig3_link_lifetime() -> Vec<LifetimePoint> {
    let range = 250.0;
    let mut points = Vec::new();
    for &d0 in &[-150.0, 0.0, 150.0] {
        for &dv in &[1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0] {
            for &da in &[0.0, 0.5, -0.5] {
                let lifetime = if da == 0.0 {
                    link_lifetime_constant_speed(d0, dv, 0.0, range)
                } else {
                    link_lifetime_constant_acceleration(d0, dv, 0.0, da, 0.0, range)
                };
                points.push(LifetimePoint {
                    relative_speed: dv,
                    relative_acceleration: da,
                    initial_separation: d0,
                    lifetime_s: lifetime.duration_s,
                    expected_lifetime_s: expected_link_duration(d0, dv, 3.0, range),
                });
            }
        }
    }
    points
}

/// One row of the Fig. 4 comparison: link duration for same-direction vs
/// opposite-direction vehicle pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionPoint {
    /// Speed of both vehicles, m/s.
    pub speed: f64,
    /// Lifetime when both travel in the same direction (5 m/s speed delta).
    pub same_direction_lifetime_s: f64,
    /// Lifetime when they travel in opposite directions.
    pub opposite_direction_lifetime_s: f64,
}

/// Figure 4 — the direction decomposition: same-direction links last an order
/// of magnitude longer than opposite-direction links, which is why the
/// mobility-based protocols filter on direction.
#[must_use]
pub fn fig4_direction() -> Vec<DirectionPoint> {
    let range = 250.0;
    [10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
        .into_iter()
        .map(|speed| {
            let same = link_lifetime_constant_speed(0.0, speed, speed - 5.0, range);
            let opposite = link_lifetime_constant_speed(0.0, speed, -speed, range);
            DirectionPoint {
                speed,
                same_direction_lifetime_s: same.duration_s,
                opposite_direction_lifetime_s: opposite.duration_s,
            }
        })
        .collect()
}

/// Sanity statistics for the same-direction predicate on random pairs: the
/// fraction of same-group pairs correctly classified (used by the Fig. 4
/// binary to demonstrate the projection test).
#[must_use]
pub fn fig4_predicate_agreement() -> f64 {
    let mut agree = 0;
    let mut total = 0;
    for angle_deg in (0..360).step_by(15) {
        for other_deg in (0..360).step_by(15) {
            let a_vel = Vec2::from_angle(f64::from(angle_deg).to_radians()) * 20.0;
            let b_vel = Vec2::from_angle(f64::from(other_deg).to_radians()) * 20.0;
            let a_pos = Vec2::new(0.0, 0.0);
            let b_pos = Vec2::new(120.0, 35.0);
            let predicate = same_direction(a_pos, a_vel, b_pos, b_vel);
            let groups = DirectionGroup::same_group(a_vel, b_vel);
            if predicate == groups {
                agree += 1;
            }
            total += 1;
        }
    }
    f64::from(agree) / f64::from(total)
}

/// Figure 5 — RSU-assisted routing in sparse traffic: delivery ratio of DRR
/// with increasing numbers of road-side units versus plain AODV.
#[must_use]
pub fn fig5_rsu(effort: Effort) -> Vec<(String, Report)> {
    let base = Scenario::highway_regime(TrafficRegime::Sparse)
        .with_flows(5)
        .with_seed(5)
        .with_duration(effort.duration());
    let rsu_counts: &[usize] = match effort {
        Effort::Quick => &[4],
        Effort::Full => &[2, 4, 8],
    };
    // AODV without infrastructure and DRR with increasing RSU counts bind
    // different protocols to different scenarios — per-cell bindings make
    // that one CampaignPlan instead of the two specs it used to take.
    let replication = ReplicationPolicy::Fixed(effort.seeds());
    let mut plan = CampaignPlan::new("fig5").cell_with(
        "AODV / 0 RSUs",
        base.clone().with_name("fig5-aodv"),
        ProtocolKind::Aodv,
        replication.clone(),
    );
    for &rsus in rsu_counts {
        plan = plan.cell_with(
            format!("DRR / {rsus} RSUs"),
            base.clone()
                .with_rsus(rsus)
                .with_name(format!("fig5-drr-{rsus}")),
            ProtocolKind::Drr,
            replication.clone(),
        );
    }
    Runner::new()
        .run_plan(&plan)
        .cells
        .iter()
        .map(|cell| (cell.label.clone(), cell.mean_report()))
        .collect()
}

/// Figure 6 — geographic/zone routing on the urban grid: duplicate data
/// transmissions and delivery for flooding vs zone-restricted flooding vs
/// greedy forwarding.
#[must_use]
pub fn fig6_geographic(effort: Effort) -> Vec<Report> {
    Runner::new()
        .run_plan(&catalog_plan("fig6", effort))
        .cells
        .iter()
        .map(CellSummary::mean_report)
        .collect()
}

/// Table I — one representative protocol per category over the three
/// traffic regimes, with full per-cell statistics (mean, std-dev, min/max,
/// 95% CI).
#[must_use]
pub fn table1_campaign(effort: Effort) -> CampaignResults {
    Runner::new().run_plan(&catalog_plan("table1", effort))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_lists_all_six_categories() {
        assert_eq!(fig1_taxonomy().len(), 6);
    }

    #[test]
    fn fig3_lifetimes_decrease_with_relative_speed() {
        let points = fig3_link_lifetime();
        assert!(!points.is_empty());
        let at = |dv: f64| {
            points
                .iter()
                .find(|p| {
                    p.relative_speed == dv
                        && p.relative_acceleration == 0.0
                        && p.initial_separation == 0.0
                })
                .unwrap()
                .lifetime_s
        };
        assert!(at(1.0) > at(10.0));
        assert!(at(10.0) > at(60.0));
    }

    #[test]
    fn fig4_same_direction_links_last_longer() {
        for p in fig4_direction() {
            assert!(p.same_direction_lifetime_s > p.opposite_direction_lifetime_s);
        }
        assert!(fig4_predicate_agreement() > 0.5);
    }

    #[test]
    fn fig2_overhead_grows_with_network_size() {
        let rows = fig2_discovery(Effort::Quick);
        assert!(rows.len() >= 2);
        let first = &rows.first().unwrap().1;
        let last = &rows.last().unwrap().1;
        assert!(last.control_packets > first.control_packets);
    }

    #[test]
    fn fig5_rsus_improve_sparse_delivery() {
        let rows = fig5_rsu(Effort::Quick);
        let aodv = &rows[0].1;
        let best_drr = rows[1..]
            .iter()
            .map(|(_, r)| r.delivery_ratio)
            .fold(0.0f64, f64::max);
        assert!(
            best_drr >= aodv.delivery_ratio,
            "DRR with RSUs ({best_drr}) should not be worse than AODV ({})",
            aodv.delivery_ratio
        );
    }

    #[test]
    fn fig6_zone_is_no_more_expensive_than_flooding() {
        // On the small quick grid the corridor prunes little, so allow parity;
        // the strict reduction is asserted by the urban integration test.
        let rows = fig6_geographic(Effort::Quick);
        assert_eq!(rows.len(), 3);
        let flooding = &rows[0];
        let zone = &rows[1];
        assert!(zone.data_transmissions <= flooding.data_transmissions * 11 / 10 + 10);
    }

    #[test]
    fn table1_covers_regimes_and_categories() {
        let results = table1_campaign(Effort::Quick);
        assert_eq!(results.cells.len(), 18);
        let text = vanet_runner::render_table(&results);
        assert!(text.contains("AODV") && text.contains("DRR") && text.contains("Yan"));
        assert!(text.contains("Epidemic"), "DTN representative in Table I");
    }
}
