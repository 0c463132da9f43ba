//! Integration tests for the campaign engine's determinism contract and the
//! lossless JSONL round-trip — the acceptance criteria of the runner
//! subsystem.

use vanet_core::{ProtocolKind, Scenario};
use vanet_runner::{parse_jsonl, render_csv, render_jsonl, CampaignPlan, Runner};
use vanet_sim::SimDuration;

/// A 2-scenario × 2-protocol × 3-seed campaign, small enough for CI.
fn campaign() -> CampaignPlan {
    let duration = SimDuration::from_secs(15.0);
    CampaignPlan::cross_product(
        "determinism",
        &[
            (
                "highway".to_owned(),
                Scenario::highway(20).with_flows(2).with_duration(duration),
            ),
            (
                "urban".to_owned(),
                Scenario::urban(20).with_flows(2).with_duration(duration),
            ),
        ],
        &[ProtocolKind::Aodv, ProtocolKind::Greedy],
        3,
    )
}

#[test]
fn campaign_is_deterministic_across_worker_counts() {
    let plan = campaign();
    let serial = Runner::new().with_workers(1).run_plan(&plan);
    for workers in [2, 4, 8] {
        let parallel = Runner::new().with_workers(workers).run_plan(&plan);
        assert_eq!(
            serial.cells, parallel.cells,
            "{workers}-worker campaign diverged from the serial run"
        );
        // Byte-identical, not merely equal-within-epsilon: the exports are
        // deterministic functions of the cells.
        assert_eq!(
            render_jsonl(&serial),
            render_jsonl(&parallel),
            "JSONL export differs at {workers} workers"
        );
        assert_eq!(render_csv(&serial), render_csv(&parallel));
    }
}

#[test]
fn summaries_carry_real_spread_information() {
    let results = Runner::new().run_plan(&campaign());
    assert_eq!(results.cells.len(), 4);
    for cell in &results.cells {
        let s = &cell.summary;
        assert_eq!(s.replications, 3);
        let sent = s.metric("data_sent").expect("a metric name");
        assert!(sent.mean > 0.0, "no traffic in {}", cell.label);
        let pdr = s.metric("delivery_ratio").expect("a metric name");
        assert!(pdr.min <= pdr.mean + 1e-12);
        assert!(pdr.mean <= pdr.max + 1e-12);
        assert!(pdr.std_dev >= 0.0);
        assert!(pdr.ci95 >= 0.0);
    }
    // Across three different seeds at least one metric must actually vary —
    // if every std-dev were zero the replication seeds would not be applied.
    assert!(
        results.cells.iter().any(|c| {
            c.summary
                .metrics()
                .iter()
                .any(|(_, stat)| stat.std_dev > 0.0)
        }),
        "replications show no variance at all"
    );
}

#[test]
fn jsonl_round_trips_the_cells() {
    let results = Runner::new().run_plan(&campaign());

    let jsonl = render_jsonl(&results);
    assert_eq!(jsonl.lines().count(), results.cells.len());
    let parsed = parse_jsonl(&jsonl).expect("JSONL parses");
    assert_eq!(parsed.campaign, results.campaign);
    assert_eq!(parsed.cells.len(), results.cells.len());
    assert_eq!(parsed.cells, results.cells, "JSONL round-trip is lossless");

    let csv = render_csv(&results);
    assert_eq!(
        csv.lines().count(),
        results.cells.len() + 1,
        "header + one row per cell"
    );
}
