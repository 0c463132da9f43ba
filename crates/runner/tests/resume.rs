//! Integration tests for the campaign engine's acceptance criteria: a
//! `Fixed`-policy campaign against a hand-rolled serial golden,
//! journal-based resume executing only missing jobs, cell-level caching of
//! edited plans, and adaptive (`ConfidenceWidth`) replication — all
//! byte-identical to cold serial runs.

use std::sync::atomic::{AtomicU64, Ordering};
use vanet_core::{run_scenario, FaultPlan, ProtocolKind, Scenario};
use vanet_runner::{
    render_jsonl, CampaignPlan, CampaignSpec, ReplicationPolicy, Runner, Summary, JOURNAL_FILE,
};
use vanet_sim::SimDuration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vanet-resume-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny(vehicles: usize, seed: u64) -> Scenario {
    Scenario::highway(vehicles)
        .with_seed(seed)
        .with_flows(2)
        .with_duration(SimDuration::from_secs(10.0))
}

/// A mixed plan: different protocols bound to different cells (the fig5
/// shape the old cross-product spec could not express).
fn mixed_plan() -> CampaignPlan {
    CampaignPlan::new("mixed")
        .cell_with(
            "aodv-bare",
            tiny(14, 100).with_name("mixed-aodv"),
            ProtocolKind::Aodv,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "drr-rsus",
            tiny(14, 100).with_rsus(2).with_name("mixed-drr"),
            ProtocolKind::Drr,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "greedy",
            tiny(20, 300).with_name("mixed-greedy"),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(3),
        )
}

#[test]
fn fixed_policy_plan_is_byte_identical_to_legacy_spec_path() {
    // Golden: a CampaignSpec cross product run through run_plan must
    // reproduce a hand-rolled serial loop over (scenario, protocol,
    // base seed + replicate) exactly — a reference fully independent of
    // the plan's job expansion, run_plan's scheduling, journaling and rounds.
    let spec = CampaignSpec::new("golden")
        .scenario("hw", tiny(12, 100))
        .scenario("hw2", tiny(16, 200))
        .protocols([ProtocolKind::Flooding, ProtocolKind::Greedy])
        .replications(2);
    let results = Runner::new().with_workers(4).run_plan(&spec.to_plan());

    let mut expected = Vec::new();
    for (label, scenario) in &spec.scenarios {
        for &protocol in &spec.protocols {
            let reports: Vec<_> = (0..spec.replications)
                .map(|r| {
                    run_scenario(
                        scenario.clone().with_seed(scenario.seed + r as u64),
                        protocol,
                    )
                })
                .collect();
            expected.push((
                label.clone(),
                protocol,
                Summary::from_reports(&reports).unwrap(),
            ));
        }
    }
    assert_eq!(results.cells.len(), expected.len());
    for (cell, (label, protocol, summary)) in results.cells.iter().zip(&expected) {
        assert_eq!(&cell.label, label);
        assert_eq!(cell.protocol, *protocol);
        assert_eq!(
            &cell.summary, summary,
            "cell {label}/{protocol} diverged from the serial reduction"
        );
    }
}

#[test]
fn interrupted_journal_resumes_executing_only_missing_jobs() {
    let plan = mixed_plan();
    let total_jobs = plan.initial_job_count();
    let cold = Runner::new().with_workers(2).run_plan(&plan);

    // First run with a journal: everything executes, everything is recorded.
    let dir = temp_dir("interrupt");
    let first = Runner::new()
        .with_workers(2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(first.executed_jobs, total_jobs);
    assert_eq!(first.cached_jobs, 0);
    assert_eq!(
        render_jsonl(&cold),
        render_jsonl(&first),
        "journaling changed the results"
    );

    // Simulate an interrupted campaign: keep only the first 3 journal lines
    // (plus half of the next line, as a crash mid-write would leave).
    let path = dir.join(JOURNAL_FILE);
    let full = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), total_jobs);
    let kept = 3;
    let mut truncated = lines[..kept].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[kept][..lines[kept].len() / 2]);
    std::fs::write(&path, &truncated).unwrap();

    // Resume: only the missing jobs run, and the merged results are
    // byte-identical to the cold run.
    let resumed = Runner::new()
        .with_workers(2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(resumed.cached_jobs, kept, "cached jobs must be replayed");
    assert_eq!(
        resumed.executed_jobs,
        total_jobs - kept,
        "only the jobs missing from the journal may execute"
    );
    assert_eq!(
        render_jsonl(&cold),
        render_jsonl(&resumed),
        "resumed results diverged from the cold run"
    );

    // A third run replays everything from the journal: zero executions.
    let replayed = Runner::new()
        .with_workers(2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(replayed.executed_jobs, 0);
    assert_eq!(replayed.cached_jobs, total_jobs);
    assert_eq!(render_jsonl(&cold), render_jsonl(&replayed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn editing_a_plan_reruns_only_the_changed_cells() {
    let dir = temp_dir("edit");
    let plan = mixed_plan();
    let first = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(first.executed_jobs, plan.initial_job_count());

    // Edit one cell (different RSU count → different scenario content hash)
    // and add a new one; the untouched cells must replay from the cache.
    let edited = CampaignPlan::new("mixed-edited")
        .cell_with(
            "aodv-bare",
            tiny(14, 100).with_name("mixed-aodv"),
            ProtocolKind::Aodv,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "drr-rsus",
            tiny(14, 100).with_rsus(4).with_name("mixed-drr"), // edited: 2 → 4 RSUs
            ProtocolKind::Drr,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "greedy",
            tiny(20, 300).with_name("mixed-greedy"),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(3),
        )
        .cell(
            "zone-new",
            tiny(10, 900).with_name("mixed-zone"),
            ProtocolKind::Zone,
        );
    let second = Runner::new().with_journal(&dir).run_plan(&edited);
    assert_eq!(
        second.executed_jobs, 3,
        "2 edited DRR jobs + 1 new Zone job"
    );
    assert_eq!(second.cached_jobs, 5, "aodv (2) and greedy (3) jobs cached");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_resume_composes_with_the_journal() {
    let plan = mixed_plan();
    let dir = temp_dir("shard");
    // Shard 0 of 2 owns cells 0 and 2 (4 jobs); run and journal them.
    let shard0 = Runner::new()
        .with_shard(0, 2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(shard0.cells.len(), 2);
    assert_eq!(shard0.executed_jobs, 5);
    // Re-running the same shard replays entirely from the journal; the other
    // shard finds none of its own jobs there.
    let again = Runner::new()
        .with_shard(0, 2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(again.executed_jobs, 0);
    assert_eq!(again.cached_jobs, 5);
    let shard1 = Runner::new()
        .with_shard(1, 2)
        .with_journal(&dir)
        .run_plan(&plan);
    assert_eq!(shard1.cells.len(), 1);
    assert_eq!(shard1.executed_jobs, 2);
    assert_eq!(shard1.cached_jobs, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A plan mixing per-cell protocols with one adaptive cell — the acceptance
/// shape from the issue.
fn adaptive_plan(target_width: f64, max: usize) -> CampaignPlan {
    CampaignPlan::new("adaptive")
        .cell_with(
            "flooding-fixed",
            tiny(10, 400).with_name("adaptive-flooding"),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "greedy-adaptive",
            tiny(16, 500).with_name("adaptive-greedy"),
            ProtocolKind::Greedy,
            ReplicationPolicy::confidence_width("delivery_ratio", target_width, 2, max),
        )
}

#[test]
fn adaptive_replication_respects_bounds_and_determinism() {
    // A generous target stops at the minimum; an unreachable one runs to
    // the cap. Either way the result is deterministic across worker counts.
    let generous = Runner::new().run_plan(&adaptive_plan(10.0, 8));
    assert_eq!(generous.cells[0].summary.replications, 2);
    assert_eq!(generous.cells[1].summary.replications, 2);

    let strict = Runner::new().run_plan(&adaptive_plan(1e-12, 5));
    let adaptive_cell = &strict.cells[1];
    assert_eq!(
        adaptive_cell.summary.replications, 5,
        "an unreachable target must stop at the cap"
    );
    assert_eq!(strict.cells[0].summary.replications, 2);

    for workers in [1, 4] {
        let again = Runner::new()
            .with_workers(workers)
            .run_plan(&adaptive_plan(1e-12, 5));
        assert_eq!(
            render_jsonl(&strict),
            render_jsonl(&again),
            "adaptive campaign diverged at {workers} workers"
        );
    }
}

#[test]
fn adaptive_campaign_resumes_byte_identically() {
    let plan = adaptive_plan(1e-12, 4);
    let cold = Runner::new().run_plan(&plan);
    let dir = temp_dir("adaptive");
    let first = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(render_jsonl(&cold), render_jsonl(&first));
    let executed_total = first.executed_jobs;
    assert!(executed_total > plan.initial_job_count());

    // Drop the last journal line: the resume must re-run exactly that job
    // (adaptive rounds make the same decisions from the same reports).
    let path = dir.join(JOURNAL_FILE);
    let full = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = full.lines().collect();
    lines.pop();
    let mut rest = lines.join("\n");
    rest.push('\n');
    std::fs::write(&path, &rest).unwrap();

    let resumed = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(resumed.executed_jobs, 1);
    assert_eq!(resumed.cached_jobs, executed_total - 1);
    assert_eq!(
        render_jsonl(&cold),
        render_jsonl(&resumed),
        "resumed adaptive campaign diverged from the cold run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A plan whose cells all carry scheduled disruptions — the fault-injection
/// acceptance shape: determinism and resume must hold with faults active.
fn faulted_plan() -> CampaignPlan {
    CampaignPlan::new("faulted")
        .cell_with(
            "flooding-outage",
            tiny(14, 100)
                .with_name("faulted-flooding")
                .with_faults(FaultPlan::new().node_outage(3, 2.0, 6.0)),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "greedy-jam",
            tiny(16, 200).with_name("faulted-greedy").with_faults(
                FaultPlan::new()
                    .jam(5, 0.7, 1.0, 8.0)
                    .burst_loss(0.2, 4.0, 6.0),
            ),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "drr-rsu-down",
            tiny(14, 300)
                .with_rsus(2)
                .with_name("faulted-drr")
                .with_faults(FaultPlan::new().rsu_outage(0, 3.0, 7.0)),
            ProtocolKind::Drr,
            ReplicationPolicy::Fixed(2),
        )
}

#[test]
fn faulted_campaign_is_deterministic_across_worker_counts() {
    let serial = Runner::new().with_workers(1).run_plan(&faulted_plan());
    for workers in [2, 4] {
        let parallel = Runner::new()
            .with_workers(workers)
            .run_plan(&faulted_plan());
        assert_eq!(
            render_jsonl(&serial),
            render_jsonl(&parallel),
            "faulted campaign diverged at {workers} workers"
        );
    }
}

#[test]
fn killed_faulted_campaign_resumes_byte_identically() {
    // The acceptance test: terminate a campaign mid-run (simulated by
    // truncating the journal mid-line, as a crash mid-write would), then a
    // resume must produce exports byte-identical to an uninterrupted run.
    let plan = faulted_plan();
    let total_jobs = plan.initial_job_count();
    let cold = Runner::new().run_plan(&plan);

    let dir = temp_dir("fault-kill");
    let first = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(render_jsonl(&cold), render_jsonl(&first));

    let path = dir.join(JOURNAL_FILE);
    let full = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), total_jobs);
    let kept = 2;
    let mut truncated = lines[..kept].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[kept][..lines[kept].len() / 3]);
    std::fs::write(&path, &truncated).unwrap();

    let resumed = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(resumed.cached_jobs, kept);
    assert_eq!(resumed.executed_jobs, total_jobs - kept);
    assert_eq!(
        render_jsonl(&cold),
        render_jsonl(&resumed),
        "resumed faulted campaign diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A healthy plan plus one cell that panics deterministically mid-sim.
fn partly_poisoned_plan() -> CampaignPlan {
    CampaignPlan::new("poisoned")
        .cell(
            "healthy",
            tiny(12, 100).with_name("poisoned-healthy"),
            ProtocolKind::Flooding,
        )
        .cell(
            "poisoned",
            tiny(12, 200)
                .with_name("poisoned-cell")
                .with_faults(FaultPlan::new().poison(1.0)),
            ProtocolKind::Greedy,
        )
}

#[test]
fn quarantined_campaign_resumes_byte_identically() {
    let plan = partly_poisoned_plan();
    let cold = Runner::new().run_plan(&plan);
    assert_eq!(cold.quarantined.len(), 1);
    assert_eq!(cold.cells.len(), 1, "only the healthy cell may summarise");

    let dir = temp_dir("quarantine");
    let first = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(first.quarantined.len(), 1);
    assert_eq!(render_jsonl(&cold), render_jsonl(&first));

    // Resume: the healthy job replays from the cache, the quarantine entry
    // replays from the journal — nothing executes, exports stay identical.
    let resumed = Runner::new().with_journal(&dir).run_plan(&plan);
    assert_eq!(resumed.executed_jobs, 0);
    assert_eq!(resumed.cached_jobs, 1);
    assert_eq!(resumed.quarantined.len(), 1);
    assert_eq!(
        render_jsonl(&cold),
        render_jsonl(&resumed),
        "quarantined campaign diverged on resume"
    );

    // Raising the retry budget re-runs (and re-quarantines) the poisoned
    // job instead of replaying the stale entry.
    let retried = Runner::new()
        .with_journal(&dir)
        .with_max_retries(2)
        .run_plan(&plan);
    assert_eq!(
        retried.executed_jobs, 1,
        "a bigger budget must re-run the job"
    );
    assert_eq!(retried.quarantined.len(), 1);
    assert_eq!(retried.quarantined[0].attempts, 3);
    std::fs::remove_dir_all(&dir).ok();
}
