//! The campaign execution engine.
//!
//! [`Runner`] executes a [`CampaignPlan`] on the work-stealing pool from
//! `vanet_sim::pool`, reducing each cell's replications into a [`Summary`].
//! Execution proceeds in rounds: the plan's initial jobs first, then — for
//! cells with a `ConfidenceWidth` replication policy — an adaptive batch of
//! extra seeds per still-too-wide cell per round (sized from the observed
//! variance, see `next_adaptive_round`), until every cell's 95% CI is
//! narrow enough or its cap is reached.
//!
//! Determinism contract: every job is seeded at expansion time
//! (`CampaignPlan::job`), results are reduced in job order, and adaptive
//! stopping decisions depend only on the (deterministic) reports, so the
//! produced [`CampaignResults`] are identical for any worker count, with or
//! without a journal, resumed or cold — the integration tests pin this down.
//!
//! With [`Runner::with_journal`], one [`Store`] holds the campaign directory:
//! it opens the journal, plan manifest and telemetry log, each degrading to
//! one warning; resolves each job of a round as cached, a replayed
//! quarantine or to run ([`Store::resolve`]); and records each outcome, a
//! telemetry line only once its journal line is on disk, so without a
//! journal the tap stays off. That is crash-resume and cell-level caching.

use crate::journal::{Journal, JournalEntry, QuarantineEntry};
use crate::manifest;
use crate::summary::{t_critical_95, Summary};
use crate::telemetry::{TelemetryEntry, TelemetryLog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};
use vanet_core::{
    run_scenario, CampaignPlan, PlanJob, ProtocolKind, ReplicationPolicy, Report, Simulation,
    WindowedTap,
};
use vanet_sim::pool::{available_workers, parallel_map_with_progress};
use vanet_sim::SimDuration;

/// Configuration of the streaming telemetry tap (see
/// [`Runner::with_telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySettings {
    /// Window width in simulated seconds.
    pub window_s: f64,
    /// Spatial buckets per axis for the per-region aggregates.
    pub regions_per_axis: usize,
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        TelemetrySettings {
            window_s: 1.0,
            regions_per_axis: 8,
        }
    }
}

/// One aggregated cell of a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell label from the plan.
    pub label: String,
    /// The scenario's own name (e.g. "highway-40").
    pub scenario: String,
    /// The protocol evaluated.
    pub protocol: ProtocolKind,
    /// Per-metric statistics over the replications.
    pub summary: Summary,
}

/// A job the campaign gave up on: every allowed attempt panicked (or a
/// previous run's quarantine was replayed from the journal).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedJob {
    /// The cell label from the plan.
    pub label: String,
    /// The protocol the job would have evaluated.
    pub protocol: ProtocolKind,
    /// The job's fully derived seed.
    pub seed: u64,
    /// Attempts made before quarantine (`--max-retries` + 1).
    pub attempts: u32,
    /// First line of the panic payload from the final attempt.
    pub error: String,
}

/// The outcome of running a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResults {
    /// The campaign name.
    pub campaign: String,
    /// Number of workers the campaign ran on.
    pub workers: usize,
    /// Wall-clock execution time (not part of the determinism contract).
    pub elapsed: Duration,
    /// Jobs actually executed this run (not part of the determinism
    /// contract: resuming from a journal lowers it).
    pub executed_jobs: usize,
    /// Jobs replayed from the journal cache instead of executed.
    pub cached_jobs: usize,
    /// One aggregated cell per plan cell, in plan order. Cells whose every
    /// job was quarantined have no summary and are omitted here — they
    /// appear in [`CampaignResults::quarantined`] instead.
    pub cells: Vec<CellSummary>,
    /// Jobs quarantined this run (freshly poisoned or replayed from the
    /// journal), in deterministic plan order.
    pub quarantined: Vec<QuarantinedJob>,
}

impl CampaignResults {
    /// Total replications across all cells.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.cells.iter().map(|c| c.summary.replications).sum()
    }
}

/// Executes campaigns on a pool of worker threads.
#[derive(Debug, Clone)]
pub struct Runner {
    workers: usize,
    progress: bool,
    shard: Option<(usize, usize)>,
    journal_dir: Option<PathBuf>,
    telemetry: Option<TelemetrySettings>,
    max_retries: u32,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner sized to the available hardware parallelism, silent.
    #[must_use]
    pub fn new() -> Self {
        Runner {
            workers: available_workers(),
            progress: false,
            shard: None,
            journal_dir: None,
            telemetry: None,
            max_retries: 0,
        }
    }

    /// Allows each job up to `retries` extra attempts after a panic before it
    /// is quarantined. The exponential backoff schedule between attempts
    /// (1s, 2s, 4s, …) is *recorded* in the quarantine entry rather than
    /// slept, so retried runs stay deterministic and fast. A quarantine
    /// replayed from the journal is honoured only while its recorded attempt
    /// count meets the current allowance — raising `--max-retries` on a
    /// resume re-runs previously quarantined jobs, healing them if they now
    /// succeed.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Restricts the runner to shard `index` of `count`: only the cells with
    /// `cell % count == index` are executed. Sharding partitions the plan's
    /// cells deterministically, so `count` machines each running one shard
    /// cover exactly the full campaign with disjoint cells. Composes with
    /// [`Runner::with_journal`]: a resumed shard skips its own completed
    /// jobs.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `index >= count` — an out-of-range shard
    /// would otherwise silently run zero cells and export an empty campaign.
    #[must_use]
    pub fn with_shard(mut self, index: usize, count: usize) -> Self {
        assert!(count > 0, "shard count must be at least 1, got 0");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards (need index < count)"
        );
        self.shard = Some((index, count));
        self
    }

    /// Enables the resumable journal in `dir` (created if missing): completed
    /// jobs stream into `dir/journal.jsonl` and jobs already recorded there
    /// are replayed from the cache instead of executed.
    #[must_use]
    pub fn with_journal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Attaches the streaming telemetry tap: every executed job runs with a
    /// [`WindowedTap`] and flushes its windows into `telemetry.jsonl` next
    /// to the campaign journal. Requires [`Runner::with_journal`] (the tap
    /// persists beside the journal; `run_plan` panics otherwise). Reports
    /// are byte-identical with and without the tap — it only observes.
    ///
    /// Telemetry is off when the journal cannot open (the warning says so):
    /// a job's telemetry line is appended only once its journal line is on
    /// disk, so a rerun never appends it twice.
    ///
    /// Resume composes: a job is only treated as cached when both its
    /// journal line *and* its telemetry line survived, so a truncated
    /// `telemetry.jsonl` re-runs exactly the affected jobs.
    ///
    /// # Panics
    ///
    /// Panics if `settings.window_s` is not positive or
    /// `settings.regions_per_axis` is zero.
    #[must_use]
    pub fn with_telemetry(mut self, settings: TelemetrySettings) -> Self {
        assert!(
            settings.window_s > 0.0,
            "telemetry window must be positive, got {}",
            settings.window_s
        );
        assert!(
            settings.regions_per_axis > 0,
            "telemetry needs at least one region per axis"
        );
        self.telemetry = Some(settings);
        self
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables per-job progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Runs every cell of `plan` and aggregates per-cell summaries.
    ///
    /// Worker panics never abort the campaign: each job runs behind
    /// `catch_unwind`, gets up to `--max-retries` extra attempts, and is then
    /// quarantined — recorded in the journal and reported in
    /// [`CampaignResults::quarantined`] while every healthy cell completes
    /// normally. Journal/telemetry IO errors (unopenable directory, disk
    /// full) degrade to a warning plus disabled persistence instead of
    /// aborting the run.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no cells, if a `ConfidenceWidth` policy names
    /// an unknown metric, or if telemetry is on without a journal.
    #[must_use]
    pub fn run_plan(&self, plan: &CampaignPlan) -> CampaignResults {
        self.validate(plan);
        let store = self.journal_dir.as_deref();
        let store = store.and_then(|dir| Store::open(dir, plan, self.telemetry));
        let store = store.as_ref();
        let allowed_attempts = self.max_retries.saturating_add(1);
        let in_shard = |cell: usize| self.shard.map_or(true, |(i, n)| cell % n == i);
        let kept: Vec<usize> = (0..plan.cells.len()).filter(|&c| in_shard(c)).collect();
        let shard = self.shard.map(|(i, n)| format!(" (shard {i}/{n})"));
        self.progress_line(format_args!(
            "campaign '{}': {} cells, {} initial jobs on {} workers{}{}",
            plan.name,
            kept.len(),
            plan.initial_job_count(),
            self.workers,
            shard.unwrap_or_default(),
            store.map_or(String::new(), Store::describe),
        ));
        let started = Instant::now();
        let (mut executed, mut cached) = (0, 0);
        let mut reports: Vec<Vec<Report>> = vec![Vec::new(); plan.cells.len()];
        let mut quarantined: Vec<QuarantinedJob> = Vec::new();
        // Cells with a quarantined job are frozen out of adaptive rounds:
        // their replicate count can no longer grow deterministically, and
        // re-deriving the missing seed would just re-run the same panic.
        let mut frozen = vec![false; plan.cells.len()];
        let mut round = plan.initial_jobs();
        round.retain(|job| in_shard(job.cell));
        while !round.is_empty() {
            let resolved: Vec<Resolved> = round
                .iter()
                .map(|job| store.map_or(Resolved::Run, |s| s.resolve(job.key(), allowed_attempts)))
                .collect();
            let to_run: Vec<&PlanJob> = round
                .iter()
                .zip(&resolved)
                .filter_map(|(job, r)| matches!(r, Resolved::Run).then_some(job))
                .collect();
            executed += to_run.len();
            cached += resolved
                .iter()
                .filter(|r| matches!(r, Resolved::Cached(_)))
                .count();
            let fresh = parallel_map_with_progress(
                to_run.len(),
                self.workers,
                |i| run_job(plan, to_run[i], store, allowed_attempts),
                |i, done, n| {
                    let job = to_run[i];
                    self.progress_line(format_args!(
                        "{done}/{n} {} on {} (seed {})",
                        job.protocol, plan.cells[job.cell].label, job.scenario.seed
                    ));
                },
            );
            for (job, outcome) in to_run.iter().zip(&fresh) {
                if let Err(entry) = outcome {
                    quarantine(store, job, entry);
                }
            }
            // Jobs are cell-major within a round, so pushing in round order
            // keeps every cell's reports in replicate order.
            let mut fresh = fresh.into_iter();
            for (job, resolution) in round.iter().zip(resolved) {
                let outcome = match resolution {
                    Resolved::Cached(report) => Ok(report.clone()),
                    Resolved::Quarantined(entry) => Err(entry.clone()),
                    Resolved::Run => fresh.next().expect("one outcome per job run"),
                };
                match outcome {
                    Ok(report) => reports[job.cell].push(report),
                    Err(entry) => {
                        frozen[job.cell] = true;
                        quarantined.push(QuarantinedJob::new(plan, job, entry));
                    }
                }
            }
            round = next_adaptive_round(plan, &kept, &reports, &frozen);
        }
        let elapsed = started.elapsed();
        let quarantine_note = match quarantined.len() {
            0 => String::new(),
            n => format!(", {n} quarantined"),
        };
        self.progress_line(format_args!(
            "campaign '{}' finished: {executed} jobs executed, {cached} cached{quarantine_note}, {:.2}s",
            plan.name,
            elapsed.as_secs_f64()
        ));
        CampaignResults {
            campaign: plan.name.clone(),
            workers: self.workers,
            elapsed,
            executed_jobs: executed,
            cached_jobs: cached,
            cells: summarize(plan, &kept, &reports),
            quarantined,
        }
    }

    /// Rejects a plan without cells, an adaptive cell watching a metric no
    /// summary has, and a tap with nowhere to persist.
    fn validate(&self, plan: &CampaignPlan) {
        assert!(
            !plan.cells.is_empty(),
            "campaign '{}' has no cells",
            plan.name
        );
        let probe = Summary::default();
        for cell in &plan.cells {
            if let ReplicationPolicy::ConfidenceWidth { metric, .. } = &cell.replication {
                assert!(
                    probe.metric(metric).is_some(),
                    "cell '{}' watches unknown metric {metric:?} (see vanet_runner::METRIC_NAMES)",
                    cell.label
                );
            }
        }
        assert!(
            self.telemetry.is_none() || self.journal_dir.is_some(),
            "telemetry requires a journal directory (Runner::with_journal) to persist into"
        );
    }

    /// Says a progress line, unless the runner is silent.
    fn progress_line(&self, message: std::fmt::Arguments<'_>) {
        if self.progress {
            report_line(message);
        }
    }
}

impl QuarantinedJob {
    /// `job` of `plan`, given up on as `entry` records.
    fn new(plan: &CampaignPlan, job: &PlanJob, entry: QuarantineEntry) -> Self {
        QuarantinedJob {
            label: plan.cells[job.cell].label.clone(),
            protocol: job.protocol,
            seed: job.scenario.seed,
            attempts: entry.attempts,
            error: entry.error,
        }
    }
}

/// One summary per kept cell, in plan order. A cell whose every job was
/// quarantined has no reports and no summary; it is reported via
/// [`CampaignResults::quarantined`] instead.
fn summarize(plan: &CampaignPlan, kept: &[usize], reports: &[Vec<Report>]) -> Vec<CellSummary> {
    let summary = |index: usize| {
        let cell = &plan.cells[index];
        Summary::from_reports(&reports[index]).map(|summary| CellSummary {
            label: cell.label.clone(),
            scenario: cell.scenario.name.clone(),
            protocol: cell.protocol,
            summary,
        })
    };
    kept.iter().filter_map(|&index| summary(index)).collect()
}

/// Warns that `job` was given up on this run and records its quarantine.
fn quarantine(store: Option<&Store>, job: &PlanJob, entry: &QuarantineEntry) {
    report_line(format_args!(
        "warning: quarantined {} on {} (seed {}) after {} attempt(s): {}",
        job.protocol, entry.label, entry.seed, entry.attempts, entry.error
    ));
    if let Some(store) = store {
        store.record_quarantine(entry);
    }
}

/// Runs `job` behind `catch_unwind` up to `allowed_attempts` times, so a
/// poisoned job only loses its own cell, never the campaign, and records a
/// success in `store`. A job whose every attempt panicked comes back as its
/// quarantine record.
fn run_job(
    plan: &CampaignPlan,
    job: &PlanJob,
    store: Option<&Store>,
    allowed_attempts: u32,
) -> Result<Report, QuarantineEntry> {
    let tap_settings = store.and_then(|store| store.tap.as_ref().map(|&(settings, _)| settings));
    let mut backoff_s = Vec::new();
    let mut error = String::new();
    for attempt in 0..allowed_attempts {
        let outcome = catch_unwind(AssertUnwindSafe(|| match tap_settings {
            Some(settings) => {
                let tap = WindowedTap::new(
                    SimDuration::from_secs(settings.window_s),
                    settings.regions_per_axis,
                );
                let mut sim = Simulation::with_telemetry(job.scenario.clone(), job.protocol, tap);
                let report = sim.run();
                (report, Some(sim.into_telemetry()))
            }
            None => (run_scenario(job.scenario.clone(), job.protocol), None),
        }));
        match outcome {
            Ok((report, tap)) => {
                if let Some(store) = store {
                    store.record(plan, job, &report, tap.as_ref());
                }
                return Ok(report);
            }
            Err(payload) => {
                error = panic_message(payload.as_ref());
                if attempt + 1 < allowed_attempts {
                    // Recorded, never slept: resume must not depend on
                    // wall-clock waits.
                    backoff_s.push(f64::from(1u32 << attempt.min(30)));
                }
            }
        }
    }
    Err(QuarantineEntry {
        key: job.key(),
        campaign: plan.name.clone(),
        label: plan.cells[job.cell].label.clone(),
        seed: job.scenario.seed,
        attempts: allowed_attempts,
        backoff_s,
        error,
    })
}

/// What the campaign directory says about one job.
enum Resolved<'s> {
    /// Its report is journaled, and its telemetry line too if the tap is on.
    Cached(&'s Report),
    /// Its journaled quarantine used up the current attempt allowance.
    Quarantined(&'s QuarantineEntry),
    /// It runs.
    Run,
}

/// An open campaign directory. The first failed append to a file warns
/// once and mutes that file for the rest of the run.
struct Store {
    journal: Journal,
    journal_muted: AtomicBool,
    /// The tap's settings and its log; `None` while the tap is off.
    tap: Option<(TelemetrySettings, TelemetryLog)>,
    telemetry_muted: AtomicBool,
}

impl Store {
    /// Opens `dir` for `plan`: the journal, then the plan-drift check and
    /// the manifest, then the telemetry log if `telemetry` asks for the tap.
    /// `None` when the journal cannot open.
    fn open(
        dir: &Path,
        plan: &CampaignPlan,
        telemetry: Option<TelemetrySettings>,
    ) -> Option<Store> {
        let without = match telemetry {
            Some(_) => "continuing without resume, caching or telemetry",
            None => "continuing without resume or caching",
        };
        let journal = degrade(Journal::open(dir), "open journal", dir, without)?;
        // A "resume" of an edited plan is a different experiment, and that
        // should never be silent.
        if !journal.is_empty() || journal.quarantined_len() > 0 {
            if let Some(previous) = manifest::load(dir) {
                for warning in manifest::diff(&previous, &manifest::manifest_entries(plan)) {
                    report_line(format_args!("warning: {warning}"));
                }
            }
        }
        let drift = "the next resume cannot check this plan for drift";
        degrade(manifest::write(dir, plan), "write manifest", dir, drift);
        let tap = telemetry.and_then(|settings| {
            let log = TelemetryLog::open(dir);
            degrade(log, "open telemetry log", dir, "continuing without the tap")
                .map(|log| (settings, log))
        });
        Some(Store {
            journal,
            journal_muted: AtomicBool::new(false),
            tap,
            telemetry_muted: AtomicBool::new(false),
        })
    }

    /// What the directory held at open time, for the opening progress line:
    /// unreadable lines mean jobs that silently re-run.
    fn describe(&self) -> String {
        let skipped = |what: &str, skipped: usize| match skipped {
            0 => String::new(),
            1 => format!(", {what}1 unreadable line skipped"),
            n => format!(", {what}{n} unreadable lines skipped"),
        };
        let telemetry = self.tap.as_ref().map_or(0, |(_, log)| log.skipped_lines());
        format!(
            ", journal cache: {} jobs{}{}",
            self.journal.len(),
            skipped("", self.journal.skipped_lines()),
            skipped("telemetry log: ", telemetry)
        )
    }

    /// Resolves the job with content key `key`. It is cached only when both
    /// its journal line and, with the tap on, its telemetry line survived,
    /// so a truncated `telemetry.jsonl` re-runs exactly the affected jobs.
    /// A journaled quarantine is replayed while its recorded attempts meet
    /// `allowed_attempts`; a raised `--max-retries` re-runs it to heal.
    fn resolve(&self, key: u64, allowed_attempts: u32) -> Resolved<'_> {
        let (journal, tap) = (&self.journal, &self.tap);
        let telemetry_kept = tap.as_ref().map_or(true, |(_, log)| log.contains(key));
        match (journal.lookup(key), journal.lookup_quarantine(key)) {
            (Some(report), _) if telemetry_kept => Resolved::Cached(report),
            (None, Some(q)) if q.attempts >= allowed_attempts => Resolved::Quarantined(q),
            _ => Resolved::Run,
        }
    }

    /// Records a finished job: its journal line unless the journal already
    /// holds it (the job re-ran only for its telemetry line), then, once
    /// that line is on disk, its telemetry line from `tap`.
    fn record(
        &self,
        plan: &CampaignPlan,
        job: &PlanJob,
        report: &Report,
        tap: Option<&WindowedTap>,
    ) {
        let (key, label) = (job.key(), &plan.cells[job.cell].label);
        let journaled = self.journal.lookup(key).is_some()
            || append(&self.journal_muted, self.journal.path(), || {
                self.journal.record(&JournalEntry {
                    key,
                    campaign: plan.name.clone(),
                    label: label.clone(),
                    seed: job.scenario.seed,
                    report: report.clone(),
                })
            });
        if let (true, Some(tap), Some((_, log))) = (journaled, tap, &self.tap) {
            let entry = TelemetryEntry::from_tap(key, &plan.name, label, job.scenario.seed, tap);
            append(&self.telemetry_muted, log.path(), || log.record(&entry));
        }
    }

    /// Records a job quarantined this run.
    fn record_quarantine(&self, entry: &QuarantineEntry) {
        let journal = &self.journal;
        append(&self.journal_muted, journal.path(), || {
            journal.record_quarantine(entry)
        });
    }
}

/// On an error, warns that the store cannot `what` in `dir` and goes on
/// `without` it.
fn degrade<T>(result: std::io::Result<T>, what: &str, dir: &Path, without: &str) -> Option<T> {
    let warn = |error| {
        report_line(format_args!(
            "warning: cannot {what} in {dir:?}: {error}; {without}"
        ))
    };
    result.map_err(warn).ok()
}

/// Appends one line to the file at `path` through `write` unless `muted`;
/// the first failure warns and sets `muted`. Returns whether the line
/// reached the file.
fn append(muted: &AtomicBool, path: &Path, write: impl FnOnce() -> std::io::Result<()>) -> bool {
    if muted.load(Relaxed) {
        return false;
    }
    let Err(error) = write() else { return true };
    if !muted.swap(true, Relaxed) {
        report_line(format_args!(
            "warning: cannot append to {path:?}: {error}; further writes to it disabled"
        ));
    }
    false
}

/// Every line the engine says to the operator — progress, and warnings when
/// a journal, manifest or telemetry file degrades — goes through here, to
/// stderr, so exports on stdout stay parseable. `--quiet` is decided by the
/// caller.
fn report_line(message: std::fmt::Arguments<'_>) {
    // lint: allow(D5) — the one operator-facing print of the campaign layer; never on the sim path and never on stdout.
    eprintln!("[vanet-runner] {message}");
}

/// Renders a caught panic payload as the single line stored in quarantine
/// records: the `&str`/`String` message panics carry, or a placeholder for
/// exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    message.lines().next().unwrap_or_default().to_owned()
}

/// The next batch of adaptive jobs for every kept `ConfidenceWidth` cell
/// whose watched metric's 95% CI is still wider than its target and whose
/// cap is not reached.
///
/// The batch is sized from the observed variance instead of one seed at a
/// time: a CI of half-width `t·s/√n` shrinks below the target once
/// `n ≥ (t·s/target)²`, so the round schedules the shortfall in one go —
/// clamped to at most double the completed count (the variance estimate `s`
/// is noisy at small `n`, so growth stays geometric rather than trusting
/// one early estimate with a huge extrapolation) and to the cell's cap.
/// Decisions depend only on the deterministic reports, so the round
/// structure is identical across worker counts and resumes.
///
/// Frozen cells (any quarantined job) are excluded entirely: their completed
/// count can no longer be trusted to derive the next replicate seed, and
/// re-deriving the quarantined seed would deterministically re-panic forever.
fn next_adaptive_round(
    plan: &CampaignPlan,
    kept: &[usize],
    reports: &[Vec<Report>],
    frozen: &[bool],
) -> Vec<PlanJob> {
    let mut next = Vec::new();
    for &index in kept {
        if frozen[index] {
            continue;
        }
        let ReplicationPolicy::ConfidenceWidth {
            metric,
            target_width,
            ..
        } = &plan.cells[index].replication
        else {
            continue;
        };
        let done = &reports[index];
        if done.is_empty() {
            continue;
        }
        let cap = plan.cells[index].replication.max_replications();
        if done.len() >= cap {
            continue;
        }
        let summary = Summary::from_reports(done).expect("adaptive cell ran its minimum");
        let stat = summary
            .metric(metric)
            .expect("metric validated before the first round");
        if stat.ci95 > *target_width {
            let t = t_critical_95(done.len().saturating_sub(1));
            let needed_f = (t * stat.std_dev / *target_width).powi(2);
            let needed = if needed_f.is_finite() {
                needed_f.ceil() as usize
            } else {
                cap
            };
            let batch = needed
                .saturating_sub(done.len())
                .clamp(1, done.len())
                .min(cap - done.len());
            for extra in 0..batch {
                next.push(plan.job(index, done.len() + extra));
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_core::Scenario;
    use vanet_sim::SimDuration;

    fn tiny_plan() -> CampaignPlan {
        CampaignPlan::new("tiny").cell_with(
            "hw",
            Scenario::highway(10)
                .with_flows(2)
                .with_duration(SimDuration::from_secs(10.0)),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(2),
        )
    }

    #[test]
    fn runs_and_aggregates() {
        let results = Runner::new().with_workers(2).run_plan(&tiny_plan());
        assert_eq!(results.cells.len(), 1);
        let cell = &results.cells[0];
        assert_eq!(cell.label, "hw");
        assert_eq!(cell.protocol, ProtocolKind::Flooding);
        assert_eq!(cell.summary.replications, 2);
        assert!(cell.summary.metric("data_sent").unwrap().mean > 0.0);
        assert_eq!(results.total_runs(), 2);
        assert_eq!(results.executed_jobs, 2);
        assert_eq!(results.cached_jobs, 0);
    }

    #[test]
    #[should_panic(expected = "has no cells")]
    fn empty_spec_panics() {
        // A spec with scenarios but no protocols converts to an empty plan.
        let spec = crate::CampaignSpec::new("empty").scenario("hw", Scenario::highway(4));
        let _ = Runner::new().run_plan(&spec.to_plan());
    }

    #[test]
    #[should_panic(expected = "has no cells")]
    fn empty_plan_panics() {
        let _ = Runner::new().run_plan(&CampaignPlan::new("empty"));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_adaptive_metric_panics() {
        let plan = CampaignPlan::new("bad").cell_with(
            "x",
            Scenario::highway(4).with_duration(SimDuration::from_secs(1.0)),
            ProtocolKind::Flooding,
            ReplicationPolicy::confidence_width("not_a_metric", 0.1, 2, 4),
        );
        let _ = Runner::new().run_plan(&plan);
    }

    fn shard_plan() -> CampaignPlan {
        let scenario = |vehicles| {
            Scenario::highway(vehicles)
                .with_flows(1)
                .with_duration(SimDuration::from_secs(5.0))
        };
        CampaignPlan::cross_product(
            "sharded",
            &[
                ("a".to_owned(), scenario(8)),
                ("b".to_owned(), scenario(12)),
            ],
            &[ProtocolKind::Flooding, ProtocolKind::Greedy],
            2,
        )
    }

    #[test]
    fn shards_are_disjoint_and_cover_the_full_campaign() {
        let plan = shard_plan();
        let full = Runner::new().with_workers(2).run_plan(&plan);
        let count = 3;
        let mut union: Vec<CellSummary> = Vec::new();
        for index in 0..count {
            let shard = Runner::new()
                .with_workers(2)
                .with_shard(index, count)
                .run_plan(&plan);
            for cell in shard.cells {
                assert!(
                    !union
                        .iter()
                        .any(|c| c.label == cell.label && c.protocol == cell.protocol),
                    "cell {}/{} appeared in two shards",
                    cell.label,
                    cell.protocol
                );
                union.push(cell);
            }
        }
        assert_eq!(union.len(), full.cells.len(), "shards must cover all cells");
        // Shard execution must not change any cell's result: compare against
        // the unsharded run cell by cell.
        for cell in &full.cells {
            let from_shard = union
                .iter()
                .find(|c| c.label == cell.label && c.protocol == cell.protocol)
                .expect("cell covered by some shard");
            assert_eq!(from_shard.summary, cell.summary, "sharding altered a cell");
        }
    }

    fn report_with_ratio(delivery_ratio: f64) -> Report {
        Report {
            protocol: "FLOOD".to_owned(),
            scenario: "hw".to_owned(),
            data_sent: 10,
            data_delivered: (delivery_ratio * 10.0) as u64,
            duplicate_deliveries: 0,
            delivery_ratio,
            avg_delay_s: 0.01,
            max_delay_s: 0.02,
            avg_hops: 2.0,
            control_packets: 5,
            control_bytes: 100,
            data_transmissions: 20,
            control_per_delivered: 1.0,
            transmissions_per_delivered: 2.0,
            route_errors: 0,
            drops: 1,
            avg_neighbors: 4.0,
            bundles_stored: 0,
            bundles_forwarded: 0,
            bundles_expired: 0,
            bundles_evicted: 0,
            custody_transfers: 0,
            buffer_peak: 0,
        }
    }

    #[test]
    fn adaptive_batches_scale_with_variance_but_stay_geometric() {
        let plan = CampaignPlan::new("batch").cell_with(
            "x",
            Scenario::highway(4).with_duration(SimDuration::from_secs(1.0)),
            ProtocolKind::Flooding,
            ReplicationPolicy::confidence_width("delivery_ratio", 0.3, 2, 10),
        );
        let kept = [0usize];

        // High variance at n=2: the t-projection wants hundreds of seeds,
        // but the batch is capped at doubling the completed count.
        let noisy = vec![vec![report_with_ratio(0.0), report_with_ratio(1.0)]];
        let round = next_adaptive_round(&plan, &kept, &noisy, &[false]);
        assert_eq!(round.len(), 2, "batch doubles, never extrapolates further");
        let base = plan.cells[0].scenario.seed;
        let seeds: Vec<u64> = round.iter().map(|j| j.scenario.seed).collect();
        assert_eq!(
            seeds,
            vec![base + 2, base + 3],
            "replicates continue in order"
        );

        // Converged cell: no follow-up jobs.
        let tight = vec![vec![report_with_ratio(0.5), report_with_ratio(0.5)]];
        assert!(next_adaptive_round(&plan, &kept, &tight, &[false]).is_empty());

        // Near the cap the batch is truncated to the remaining budget.
        let mut at_nine = vec![Vec::new()];
        for i in 0..9 {
            at_nine[0].push(report_with_ratio(if i % 2 == 0 { 0.0 } else { 1.0 }));
        }
        let round = next_adaptive_round(&plan, &kept, &at_nine, &[false]);
        assert_eq!(round.len(), 1, "cap leaves room for exactly one more");
        assert_eq!(round[0].scenario.seed, base + 9);
    }

    fn poisoned_plan() -> CampaignPlan {
        // One healthy cell and one cell whose scenario panics at t=1s via
        // the deterministic Poison chaos fault.
        let healthy = Scenario::highway(8)
            .with_flows(1)
            .with_duration(SimDuration::from_secs(5.0));
        let poisoned = Scenario::highway(8)
            .with_flows(1)
            .with_duration(SimDuration::from_secs(5.0))
            .with_faults(vanet_core::FaultPlan::new().poison(1.0));
        CampaignPlan::new("chaos")
            .cell("ok", healthy, ProtocolKind::Flooding)
            .cell("bad", poisoned, ProtocolKind::Flooding)
    }

    #[test]
    fn poisoned_job_is_quarantined_not_fatal() {
        let results = Runner::new().with_workers(2).run_plan(&poisoned_plan());
        assert_eq!(results.cells.len(), 1, "poisoned cell has no summary");
        assert_eq!(results.cells[0].label, "ok");
        assert_eq!(results.quarantined.len(), 1);
        let q = &results.quarantined[0];
        assert_eq!(q.label, "bad");
        assert_eq!(q.attempts, 1, "default allows a single attempt");
        assert!(
            q.error.contains("poison fault fired"),
            "quarantine carries the panic message, got {:?}",
            q.error
        );
    }

    #[test]
    fn retries_are_recorded_and_replayed_from_the_journal() {
        let dir =
            std::env::temp_dir().join(format!("vanet-engine-quarantine-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = poisoned_plan();
        let first = Runner::new()
            .with_workers(2)
            .with_journal(&dir)
            .with_max_retries(2)
            .run_plan(&plan);
        assert_eq!(first.quarantined.len(), 1);
        assert_eq!(first.quarantined[0].attempts, 3, "1 + 2 retries");

        // Resume: the quarantine replays from the journal, nothing re-runs.
        let resumed = Runner::new()
            .with_workers(2)
            .with_journal(&dir)
            .with_max_retries(2)
            .run_plan(&plan);
        assert_eq!(resumed.executed_jobs, 0, "quarantine replayed, not re-run");
        assert_eq!(resumed.cached_jobs, 1, "healthy cell came from the cache");
        assert_eq!(resumed.quarantined, first.quarantined);
        assert_eq!(resumed.cells.len(), 1);
        assert_eq!(resumed.cells[0].summary, first.cells[0].summary);

        // Raising the allowance re-runs the job for a chance to heal; a
        // deterministic poison panics again and is re-quarantined.
        let raised = Runner::new()
            .with_workers(2)
            .with_journal(&dir)
            .with_max_retries(4)
            .run_plan(&plan);
        assert_eq!(raised.executed_jobs, 1, "raised allowance re-runs the job");
        assert_eq!(raised.quarantined[0].attempts, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_journal_degrades_to_a_warning() {
        // A file where the journal *directory* should be: create_dir_all
        // fails, the runner warns and completes without persistence.
        let path =
            std::env::temp_dir().join(format!("vanet-engine-notadir-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        let results = Runner::new()
            .with_workers(2)
            .with_journal(&path)
            .run_plan(&tiny_plan());
        assert_eq!(results.cells.len(), 1);
        assert_eq!(results.executed_jobs, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        let _ = Runner::new().with_shard(3, 3);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shard_count_panics() {
        let _ = Runner::new().with_shard(0, 0);
    }
}
