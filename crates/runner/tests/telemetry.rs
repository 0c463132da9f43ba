//! Integration tests for the streaming telemetry tap: tap totals agreeing
//! with the simulation's own report, byte-determinism across shard splits
//! and resume replays, crash-recovery of a truncated `telemetry.jsonl`,
//! and the `analyze` pipeline producing verdicts from a real campaign.

use std::sync::atomic::{AtomicU64, Ordering};
use vanet_core::{
    run_scenario, ProtocolKind, Scenario, Simulation, WindowedTap, DROP_REASON_COUNT,
};
use vanet_runner::{
    run_analyze, CampaignPlan, ReplicationPolicy, Runner, TelemetrySettings, JOURNAL_FILE,
    TELEMETRY_FILE,
};
use vanet_sim::SimDuration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vanet-teltest-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny(vehicles: usize, seed: u64) -> Scenario {
    Scenario::highway(vehicles)
        .with_seed(seed)
        .with_flows(2)
        .with_duration(SimDuration::from_secs(10.0))
}

fn plan() -> CampaignPlan {
    CampaignPlan::new("tel")
        .cell_with(
            "hw-greedy",
            tiny(14, 100).with_name("tel-greedy"),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "hw-flooding",
            tiny(14, 100).with_name("tel-flooding"),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(2),
        )
        .cell_with(
            "hw-aodv",
            tiny(18, 300).with_name("tel-aodv"),
            ProtocolKind::Aodv,
            ReplicationPolicy::Fixed(2),
        )
}

fn settings() -> TelemetrySettings {
    TelemetrySettings {
        window_s: 2.0,
        regions_per_axis: 4,
    }
}

fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Drops the last line of a file, simulating a crash between lines (plus
/// the newline, so recovery also exercises the repair path on reopen).
fn truncate_last_line(path: &std::path::Path) {
    let text = read(path);
    let without_last = match text.trim_end_matches('\n').rfind('\n') {
        Some(pos) => &text[..=pos],
        None => "",
    };
    std::fs::write(path, without_last).unwrap();
}

fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn tap_totals_agree_with_the_untapped_report() {
    // Drr on RSUs also sends over the wired backbone, which must reach the
    // tap as a control transmission just as it reaches the report.
    let rsus = Scenario::highway(30)
        .with_rsus(4)
        .with_seed(7)
        .with_flows(4)
        .with_duration(SimDuration::from_secs(20.0));
    for (scenario, protocol) in [
        (tiny(16, 7), ProtocolKind::Greedy),
        (tiny(16, 7), ProtocolKind::Flooding),
        (tiny(16, 7), ProtocolKind::Aodv),
        (rsus, ProtocolKind::Drr),
    ] {
        let reference = run_scenario(scenario.clone(), protocol);

        let tap = WindowedTap::new(SimDuration::from_secs(2.0), 4);
        let mut sim = Simulation::with_telemetry(scenario, protocol, tap);
        let report = sim.run();
        let tap = sim.into_telemetry();

        // The tapped simulation is the same simulation: its report must be
        // identical to the untapped run.
        assert_eq!(report, reference, "{protocol}: tap changed the simulation");

        let windows = tap.windows();
        let originations: u64 = windows.iter().map(|w| w.originations).sum();
        let deliveries: u64 = windows.iter().map(|w| w.deliveries).sum();
        let drops: u64 = windows.iter().map(|w| w.drops.iter().sum::<u64>()).sum();
        let delay_sum: f64 = windows.iter().map(|w| w.delay_sum_s).sum();
        assert_eq!(originations, report.data_sent, "{protocol}: originations");
        assert_eq!(
            deliveries,
            report.data_delivered + report.duplicate_deliveries,
            "{protocol}: deliveries (report counts unique + duplicate)"
        );
        assert_eq!(drops, report.drops, "{protocol}: drops");
        if report.data_delivered > 0 {
            // Report delay averages unique deliveries only; the tap's delay
            // sum covers every delivery, so it can only be larger.
            assert!(
                delay_sum >= report.avg_delay_s * report.data_delivered as f64 - 1e-6,
                "{protocol}: delay mass"
            );
        }
        let region_sent: u64 = tap.regions().iter().map(|r| r.sent).sum();
        let window_sent: u64 = windows.iter().map(|w| w.sent_data + w.sent_control).sum();
        assert_eq!(region_sent, window_sent, "{protocol}: region/window sent");
        let sent_data: u64 = windows.iter().map(|w| w.sent_data).sum();
        let sent_control: u64 = windows.iter().map(|w| w.sent_control).sum();
        assert_eq!(
            sent_data, report.data_transmissions,
            "{protocol}: data sent"
        );
        assert_eq!(
            sent_control, report.control_packets,
            "{protocol}: control sent"
        );
        assert_eq!(DROP_REASON_COUNT, 8);
    }
}

#[test]
fn telemetry_hash_is_deterministic_across_runs() {
    let hash = |_: usize| {
        let tap = WindowedTap::new(SimDuration::from_secs(1.0), 8);
        let mut sim = Simulation::with_telemetry(tiny(14, 11), ProtocolKind::Yan, tap);
        sim.run();
        sim.into_telemetry().content_hash()
    };
    assert_eq!(hash(0), hash(1));
}

#[test]
fn shard_split_unions_to_the_unsharded_telemetry() {
    let plan = plan();
    let full_dir = temp_dir("full");
    let _ = Runner::new()
        .with_progress(false)
        .with_journal(&full_dir)
        .with_telemetry(settings())
        .run_plan(&plan);

    let mut shard_lines = Vec::new();
    let mut shard_dirs = Vec::new();
    for index in 0..2 {
        let dir = temp_dir(&format!("shard{index}"));
        let _ = Runner::new()
            .with_progress(false)
            .with_shard(index, 2)
            .with_journal(&dir)
            .with_telemetry(settings())
            .run_plan(&plan);
        shard_lines.extend(sorted_lines(&read(&dir.join(TELEMETRY_FILE))));
        shard_dirs.push(dir);
    }
    shard_lines.sort();
    assert_eq!(
        shard_lines,
        sorted_lines(&read(&full_dir.join(TELEMETRY_FILE))),
        "every job's telemetry line must be byte-identical across shard splits"
    );

    std::fs::remove_dir_all(&full_dir).ok();
    for dir in shard_dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_replays_to_byte_identical_artifacts() {
    let plan = plan();
    let dir = temp_dir("resume");
    // Single worker: file line order is execution order, so a truncated
    // tail re-executes into exactly the bytes the cold run wrote.
    let runner = || {
        Runner::new()
            .with_progress(false)
            .with_workers(1)
            .with_journal(&dir)
            .with_telemetry(settings())
    };
    let _ = runner().run_plan(&plan);
    let journal_cold = read(&dir.join(JOURNAL_FILE));
    let telemetry_cold = read(&dir.join(TELEMETRY_FILE));
    assert!(!journal_cold.is_empty() && !telemetry_cold.is_empty());

    // Crash-like truncation of both logs' final lines.
    truncate_last_line(&dir.join(JOURNAL_FILE));
    truncate_last_line(&dir.join(TELEMETRY_FILE));
    let resumed = runner().run_plan(&plan);
    assert_eq!(resumed.executed_jobs, 1, "only the truncated job re-runs");
    assert_eq!(journal_cold, read(&dir.join(JOURNAL_FILE)));
    assert_eq!(telemetry_cold, read(&dir.join(TELEMETRY_FILE)));

    // A fully-cached resume touches nothing.
    let cached = runner().run_plan(&plan);
    assert_eq!(cached.executed_jobs, 0);
    assert_eq!(telemetry_cold, read(&dir.join(TELEMETRY_FILE)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_telemetry_heals_by_reexecuting_only_that_job() {
    let plan = plan();
    let dir = temp_dir("heal");
    let runner = || {
        Runner::new()
            .with_progress(false)
            .with_workers(1)
            .with_journal(&dir)
            .with_telemetry(settings())
    };
    let _ = runner().run_plan(&plan);
    let telemetry_cold = read(&dir.join(TELEMETRY_FILE));
    let journal_cold = read(&dir.join(JOURNAL_FILE));

    // Journal intact, telemetry missing its last line: the journal hit
    // alone must NOT count as cached, because the telemetry would stay
    // incomplete forever.
    truncate_last_line(&dir.join(TELEMETRY_FILE));
    let healed = runner().run_plan(&plan);
    assert_eq!(healed.executed_jobs, 1, "telemetry miss forces one re-run");
    assert_eq!(telemetry_cold, read(&dir.join(TELEMETRY_FILE)));
    assert_eq!(
        journal_cold,
        read(&dir.join(JOURNAL_FILE)),
        "the re-run result is deterministic, so the journal keeps its bytes \
         (duplicate keys resolve last-wins on load)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeseries_round_trips_dtn_buffer_columns() {
    // A DTN campaign's windowed buffer telemetry, exported through
    // `analyze --timeseries`, must reconstruct the run's own report: counter
    // columns sum back to the report totals and the occupancy column's max
    // is the report's buffer peak.
    let plan = CampaignPlan::new("tel-dtn").cell_with(
        "epidemic",
        tiny(14, 100).with_name("tel-dtn-epidemic"),
        ProtocolKind::Epidemic,
        ReplicationPolicy::Fixed(1),
    );
    let dir = temp_dir("dtn");
    let _ = Runner::new()
        .with_progress(false)
        .with_journal(&dir)
        .with_telemetry(settings())
        .run_plan(&plan);

    let timeseries = run_analyze(&["--timeseries".to_owned(), dir.display().to_string()])
        .expect("timeseries mode");
    let mut lines = timeseries.text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let idx = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let columns = [
        "bundles_stored",
        "bundles_forwarded",
        "bundles_expired",
        "bundles_evicted",
        "custody_transfers",
    ];
    let mut sums = [0.0_f64; 5];
    let mut peak = 0.0_f64;
    let mut seed = None;
    for row in lines {
        let cells: Vec<&str> = row.split(',').collect();
        seed = Some(cells[idx("seed")].parse::<u64>().expect("seed cell"));
        for (sum, name) in sums.iter_mut().zip(columns) {
            *sum += cells[idx(name)].parse::<f64>().expect("numeric cell");
        }
        peak = peak.max(cells[idx("buffer_peak")].parse::<f64>().expect("peak"));
    }

    // Re-run the job the journal recorded and compare against its report.
    let report = run_scenario(
        tiny(14, seed.expect("at least one row")),
        ProtocolKind::Epidemic,
    );
    let expected = [
        report.bundles_stored,
        report.bundles_forwarded,
        report.bundles_expired,
        report.bundles_evicted,
        report.custody_transfers,
    ];
    assert!(report.bundles_stored > 0, "epidemic must buffer bundles");
    for ((sum, want), name) in sums.iter().zip(expected).zip(columns) {
        assert_eq!(*sum as u64, want, "{name}: windowed sum vs report total");
    }
    assert_eq!(
        peak as u64, report.buffer_peak,
        "windowed max vs report peak"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_produces_csv_and_significance_verdicts_from_a_real_campaign() {
    let plan = CampaignPlan::new("tel-analyze")
        .cell_with(
            "greedy",
            tiny(14, 100).with_name("tel-an-greedy"),
            ProtocolKind::Greedy,
            ReplicationPolicy::Fixed(3),
        )
        .cell_with(
            "flooding",
            tiny(14, 100).with_name("tel-an-flooding"),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(3),
        );
    let dir = temp_dir("analyze");
    let _ = Runner::new()
        .with_progress(false)
        .with_journal(&dir)
        .with_telemetry(settings())
        .run_plan(&plan);
    let dir_arg = dir.display().to_string();

    let significance =
        run_analyze(&["--journal".to_owned(), dir_arg.clone()]).expect("significance mode");
    assert!(significance.text.contains("greedy vs flooding"));
    assert!(
        significance.text.contains("significant at 95%"),
        "a verdict line is always rendered: {}",
        significance.text
    );

    let timeseries =
        run_analyze(&["--timeseries".to_owned(), dir_arg.clone()]).expect("timeseries mode");
    let mut lines = timeseries.text.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("key,label,seed,window,t_s,originations,"));
    assert!(header.contains("drop_no_route") && header.contains("medium_transmissions"));
    // 6 jobs x 10s / 2s windows (+1 sealed partial window at the horizon).
    let rows = lines.filter(|l| !l.trim().is_empty()).count();
    assert!(rows >= 6 * 5, "expected full windowed rows, got {rows}");

    let regions = run_analyze(&["--regions".to_owned(), dir_arg]).expect("regions mode");
    assert!(regions.text.starts_with("key,label,seed,region,rx,ry,"));
    assert!(regions.text.lines().count() > 6 * 4, "4x4 grid per job");

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `protocol` on `spec` at seed 1 for `seconds` under a [`WindowedTap`]
/// with `window`-wide windows.
fn tapped(spec: &str, protocol: ProtocolKind, seconds: f64, window: f64) -> WindowedTap {
    let scenario = vanet_runner::parse_scenario(spec)
        .expect("a valid scenario spec")
        .with_seed(1)
        .with_duration(SimDuration::from_secs(seconds));
    let tap = WindowedTap::new(SimDuration::from_secs(window), 8);
    let mut sim = Simulation::with_telemetry(scenario, protocol, tap);
    sim.run();
    sim.into_telemetry()
}

/// The tap sees the hooks of a frame's receptions in the order and at the
/// times individually scheduled receptions would raise them, however the
/// driver batches them. 1 ms windows on a dense city put window boundaries
/// between receptions of one frame (`on_event` seals windows), and the
/// outage makes HELLO frames meet a down receiver (`on_fault_drop` instead
/// of `on_neighbor_gained` and `on_receive`).
#[test]
fn tap_content_is_pinned_across_frame_batching() {
    let city = tapped("megacity-2000", ProtocolKind::Greedy, 2.0, 0.001);
    assert_eq!(city.windows().len(), 2_001);
    assert_eq!(
        city.content_hash(),
        0xc007_7d7d_317c_be56,
        "city tap diverged"
    );
    let faulted = tapped(
        "highway-120:fault=node:3:2..6s",
        ProtocolKind::Yan,
        10.0,
        0.5,
    );
    let fault_drops: u64 = faulted.windows().iter().map(|w| w.fault_drops).sum();
    assert!(fault_drops > 0, "the outage must drop receptions");
    assert_eq!(
        faulted.content_hash(),
        0xa711_73d7_2b14_3235,
        "faulted highway tap diverged"
    );
}
