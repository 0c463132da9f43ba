//! One repeat of one workload, in a process of its own.
//!
//! The parent re-executes this binary with the `child` subcommand once per
//! repeat, so every repeat starts with a cold allocator, pays its own
//! set-up, and reports its own `VmHWM`. The child prints one JSON line.

use crate::json::Json;
use crate::workloads::{campaign_workers, Kind, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vanet_core::{Report, Simulation};
use vanet_runner::{parse_jsonl, render_jsonl, CampaignResults, Runner};
use vanet_sim::StableHasher;

/// What one repeat measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeat {
    /// The seed this repeat's inputs were generated from.
    pub input_seed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Simulated seconds the timed region produced.
    pub sim_s: f64,
    /// Scheduler events (simulation workloads; 0 for campaigns).
    pub events: u64,
    /// Stable hash of the outputs: the `Report`, or the campaign export.
    pub digest: u64,
    /// Operations attempted: simulation jobs plus output checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Repeat {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("input_seed", Json::Num(self.input_seed as f64)),
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("sim_s", Json::Num(self.sim_s)),
            ("sim_s_per_wall_s", Json::Num(self.sim_s / self.wall_s)),
            ("events", Json::Num(self.events as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Repeat, String> {
        let digest = json
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("missing digest")?;
        Ok(Repeat {
            input_seed: json.num("input_seed")? as u64,
            setup_s: json.num("setup_s")?,
            wall_s: json.num("wall_s")?,
            cpu_s: json.num("cpu_s")?,
            peak_rss_mb: json.num("peak_rss_mb")?,
            sim_s: json.num("sim_s")?,
            events: json.num("events")? as u64,
            digest,
            attempted: json.num("attempted")? as u64,
            failures: json
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// Counts operations and keeps a line for each one that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// `jobs` simulation jobs ran, `failed` of them quarantined or panicked.
    pub fn jobs(&mut self, jobs: u64, failed: u64, what: &str) {
        self.attempted += jobs;
        for _ in 0..failed {
            self.failures.push(what.to_owned());
        }
    }
}

/// Stable digest of a report: its `Debug` rendering prints every field and
/// floats in shortest-round-trip form, so equal digests mean equal reports.
pub fn report_digest(report: &Report, events: u64) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_str(&format!("{report:?}"));
    hasher.write_u64(events);
    hasher.finish()
}

/// The sanity checks every simulation report must pass, whatever the seed.
pub fn check_report(checks: &mut Checks, report: &Report, events: u64) {
    checks.check(report.data_delivered <= report.data_sent, || {
        format!(
            "delivered {} > sent {}",
            report.data_delivered, report.data_sent
        )
    });
    let floats = [
        report.delivery_ratio,
        report.avg_delay_s,
        report.max_delay_s,
        report.avg_hops,
        report.control_per_delivered,
        report.transmissions_per_delivered,
        report.avg_neighbors,
    ];
    checks.check(floats.iter().all(|f| f.is_finite()), || {
        format!("non-finite float in report: {floats:?}")
    });
    checks.check(events > 0, || "no events processed".to_owned());
}

/// CPU seconds this process has used, all threads, including pool workers
/// that have already exited: the `utime + stime` of `/proc/self/stat`, read
/// from the clock behind it because procfs rounds to 10 ms ticks and the
/// shortest timed regions here last a quarter of a second.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc function std itself links; on
    // 64-bit Linux `struct timespec` is two 64-bit integers, which is what
    // `Timespec` declares, and `ts` is a live, exclusively borrowed value
    // the call only writes to.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if status == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// No process CPU clock is wired up off 64-bit Linux; `cpu_s` reads 0 there
/// (so do `peak_rss_mb` and everything else that comes from procfs).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Builds with `build` at least five times and until 50 ms have gone into
/// it, dropping each build before the next so two never coexist (`VmHWM`
/// stays that of a single run). Returns the last build and the fastest build
/// time. Set-up is deterministic work that mostly takes well under a
/// millisecond, and the shared hosts this runs on slow everything by half
/// for 100-300 ms at a time: anything above the fastest build is
/// interference.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut built = None;
    let (mut builds, mut total, mut fastest) = (0, 0.0, f64::INFINITY);
    while builds < 5 || total < 0.05 {
        drop(built.take());
        let started = Instant::now();
        built = Some(build());
        let took = started.elapsed().as_secs_f64();
        builds += 1;
        total += took;
        fastest = fastest.min(took);
    }
    (built.expect("built at least once"), fastest)
}

fn peak_rss_mb() -> f64 {
    vanet_runner::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Scratch directory of one child, under `benchmark/out/`; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path, workload: &str) -> std::io::Result<Scratch> {
        let dir = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one repeat of `workload` on the inputs `seed` generates.
pub fn run(workload: &Workload, seed: u64, scale: f64, out_dir: &Path) -> Result<Repeat, String> {
    match workload.kind {
        Kind::Sim { protocol, .. } => {
            let (mut sim, setup_s) =
                timed_setup(|| Simulation::new(workload.scenario(seed, scale), protocol));
            let cpu_before = cpu_seconds();
            let started = Instant::now();
            let report = sim.run();
            let wall_s = started.elapsed().as_secs_f64();
            let cpu_s = cpu_seconds() - cpu_before;
            let events = sim.processed_events();

            let mut checks = Checks::default();
            checks.jobs(1, 0, "");
            check_report(&mut checks, &report, events);
            Ok(Repeat {
                input_seed: seed,
                setup_s,
                wall_s,
                cpu_s,
                peak_rss_mb: peak_rss_mb(),
                sim_s: workload.scenario(seed, scale).duration.as_secs(),
                events,
                digest: report_digest(&report, events),
                attempted: checks.attempted,
                failures: checks.failures,
            })
        }
        Kind::Campaign { .. } => {
            let scratch = Scratch::new(out_dir, workload.name).map_err(|e| e.to_string())?;
            let runner = Runner::new()
                .with_workers(campaign_workers())
                .with_journal(&scratch.0);
            let mut checks = Checks::default();

            let (plan, setup_s) = timed_setup(|| workload.plan(seed, scale));
            let jobs = plan.initial_job_count();

            let cpu_before = cpu_seconds();
            let started = Instant::now();
            let results = runner.run_plan(&plan);
            let export = render_jsonl(&results);
            let wall_s = started.elapsed().as_secs_f64();
            let cpu_s = cpu_seconds() - cpu_before;

            check_campaign(&mut checks, &results, jobs);
            checks.check(
                parse_jsonl(&export).is_ok_and(|parsed| parsed.cells == results.cells),
                || "parse_jsonl(render_jsonl(r)) does not round-trip".to_owned(),
            );
            Ok(Repeat {
                input_seed: seed,
                setup_s,
                wall_s,
                cpu_s,
                peak_rss_mb: peak_rss_mb(),
                sim_s: plan
                    .initial_jobs()
                    .iter()
                    .map(|job| job.scenario.duration.as_secs())
                    .sum(),
                events: 0,
                digest: vanet_sim::stable_hash_str(&export),
                attempted: checks.attempted,
                failures: checks.failures,
            })
        }
    }
}

/// Every job of a campaign pass is an operation; a quarantined one failed.
fn check_campaign(checks: &mut Checks, results: &CampaignResults, jobs: usize) {
    checks.jobs(
        jobs as u64,
        results.quarantined.len() as u64,
        "job quarantined",
    );
    checks.check(
        results.executed_jobs == jobs && results.cached_jobs == 0,
        || {
            format!(
                "expected {jobs} executed / 0 cached jobs, got {} / {}",
                results.executed_jobs, results.cached_jobs
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_round_trips_through_its_json_line() {
        let repeat = Repeat {
            input_seed: 2001,
            setup_s: 0.012_345,
            wall_s: 1.5,
            cpu_s: 1.49,
            peak_rss_mb: 57.25,
            sim_s: 120.0,
            events: 7_644_609,
            digest: 0xdead_beef_0123_4567,
            attempted: 4,
            failures: vec!["delivered 3 > sent 2".to_owned()],
        };
        let line = repeat.to_json().render();
        assert_eq!(
            Repeat::from_json(&Json::parse(&line).unwrap()).unwrap(),
            repeat
        );
        assert!(Repeat::from_json(&Json::obj::<&str>([])).is_err());
    }

    #[test]
    fn digest_is_stable_across_runs_and_tracks_the_seed() {
        let yan = crate::workloads::by_name("highway-yan").unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::new(yan.scenario(seed, 3.0), vanet_core::ProtocolKind::Yan);
            let report = sim.run();
            let mut checks = Checks::default();
            check_report(&mut checks, &report, sim.processed_events());
            assert_eq!((checks.attempted, checks.failures.len()), (3, 0));
            report_digest(&report, sim.processed_events())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn timed_setup_repeats_short_builds_and_returns_the_last() {
        let mut builds = 0;
        let (last, fastest) = timed_setup(|| {
            builds += 1;
            builds
        });
        assert_eq!(last, builds);
        assert!(builds > 5 && (0.0..0.05).contains(&fastest));
        let mut slow = 0;
        timed_setup(|| {
            slow += 1;
            std::thread::sleep(std::time::Duration::from_millis(30));
        });
        assert_eq!(slow, 5);
    }

    #[test]
    fn process_clocks_work_on_linux() {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(peak_rss_mb() > 0.0);
            let before = cpu_seconds();
            let mut x = 0u64;
            let started = Instant::now();
            while started.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(cpu_seconds() - before >= 0.03, "cpu clock did not advance");
        }
    }

    #[test]
    fn checks_count_operations_and_keep_failures() {
        let mut checks = Checks::default();
        checks.jobs(3, 1, "job quarantined");
        checks.check(true, || unreachable!());
        checks.check(false, || "bad".to_owned());
        assert_eq!(checks.attempted, 5);
        assert_eq!(checks.failures, ["job quarantined", "bad"]);
    }
}
