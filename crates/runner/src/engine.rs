//! The campaign execution engine.
//!
//! [`Runner`] executes a [`CampaignPlan`] on the work-stealing pool from
//! `vanet_sim::pool`, reducing each cell's replications into a [`Summary`].
//! Execution proceeds in rounds: the plan's initial jobs first, then — for
//! cells with a `ConfidenceWidth` replication policy — an adaptive batch of
//! extra seeds per still-too-wide cell per round (sized from the observed
//! variance, see [`next_adaptive_round`]), until every cell's 95% CI is
//! narrow enough or its cap is reached.
//!
//! Determinism contract: every job is seeded at expansion time
//! (`CampaignPlan::job`), results are reduced in job order, and adaptive
//! stopping decisions depend only on the (deterministic) reports, so the
//! produced [`CampaignResults`] are identical for any worker count, with or
//! without a journal, resumed or cold — the integration tests pin this down.
//!
//! With [`Runner::with_journal`], every completed job streams into a
//! [`Journal`] keyed by its content hash; jobs already present are replayed
//! from the cache instead of executed, which is both crash-resume and
//! cell-level caching (see `crate::journal`).

use crate::journal::{Journal, JournalEntry, QuarantineEntry};
use crate::manifest;
use crate::summary::{t_critical_95, Summary};
use crate::telemetry::{TelemetryEntry, TelemetryLog};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
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

impl CellSummary {
    /// Collapses the cell to a mean-only [`Report`] ([`Summary::mean_report`]).
    #[must_use]
    pub fn mean_report(&self) -> Report {
        self.summary
            .mean_report(self.protocol.name(), &self.scenario)
    }
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

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
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
    /// Panics if the plan has no cells or if a `ConfidenceWidth` policy
    /// names an unknown metric.
    #[must_use]
    pub fn run_plan(&self, plan: &CampaignPlan) -> CampaignResults {
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
        // IO problems anywhere in the persistence layer degrade instead of
        // aborting: an unopenable journal disables resume, an unopenable
        // telemetry log disables the tap (reports are byte-identical either
        // way), and write failures mid-run are warned about once and then
        // muted — the campaign's in-memory results always complete.
        let journal = self
            .journal_dir
            .as_ref()
            .and_then(|dir| match Journal::open(dir) {
                Ok(journal) => Some(journal),
                Err(error) => {
                    report_line(format_args!(
                        "warning: cannot open journal in {dir:?}: {error}; \
                     continuing without resume or caching"
                    ));
                    None
                }
            });
        if let (Some(dir), Some(journal)) = (self.journal_dir.as_ref(), journal.as_ref()) {
            // Plan-drift check: if this journal directory already holds
            // results and a manifest, report every cell whose content
            // changed since — a "resume" of an edited plan is a different
            // experiment, and that should never be silent.
            if !journal.is_empty() || journal.quarantined_len() > 0 {
                match manifest::load(dir) {
                    Ok(Some(previous)) => {
                        for warning in manifest::diff(&previous, &manifest::manifest_entries(plan))
                        {
                            report_line(format_args!("warning: {warning}"));
                        }
                    }
                    Ok(None) => {}
                    Err(error) => report_line(format_args!(
                        "warning: cannot read manifest in {dir:?}: {error}; \
                         skipping plan-drift check"
                    )),
                }
            }
            if let Err(error) = manifest::write(dir, plan) {
                report_line(format_args!(
                    "warning: cannot write manifest in {dir:?}: {error}"
                ));
            }
        }
        let telemetry_log = self.telemetry.and_then(|_| {
            let dir = self.journal_dir.as_ref().expect(
                "telemetry requires a journal directory (Runner::with_journal) to persist into",
            );
            match TelemetryLog::open(dir) {
                Ok(log) => Some(log),
                Err(error) => {
                    report_line(format_args!(
                        "warning: cannot open telemetry log in {dir:?}: {error}; \
                         continuing without the tap"
                    ));
                    None
                }
            }
        });
        // The tap only runs when its log opened; reports are identical
        // either way, so this degradation never changes results.
        let telemetry_settings = if telemetry_log.is_some() {
            self.telemetry
        } else {
            None
        };
        let journal_writable = AtomicBool::new(true);
        let telemetry_writable = AtomicBool::new(true);
        let allowed_attempts = self.max_retries.saturating_add(1);

        let in_shard = |cell: usize| match self.shard {
            None => true,
            Some((index, count)) => cell % count == index,
        };
        // Per-kept-cell report accumulators, in plan-cell order.
        let kept: Vec<usize> = (0..plan.cells.len()).filter(|&c| in_shard(c)).collect();
        let mut reports: Vec<Vec<Report>> = vec![Vec::new(); plan.cells.len()];

        if self.progress {
            let shard_note = match self.shard {
                None => String::new(),
                Some((index, count)) => format!(" (shard {index}/{count})"),
            };
            // Lines a resume could not read mean jobs that silently re-run;
            // say so, but only then.
            let skipped_note = |what: &str, skipped: usize| match skipped {
                0 => String::new(),
                1 => format!(", {what}1 unreadable line skipped"),
                n => format!(", {what}{n} unreadable lines skipped"),
            };
            let journal_note = journal.as_ref().map_or(String::new(), |j| {
                let skipped = skipped_note("", j.skipped_lines());
                format!(", journal cache: {} jobs{skipped}", j.len())
            });
            let telemetry_note = telemetry_log.as_ref().map_or(String::new(), |log| {
                skipped_note("telemetry log: ", log.skipped_lines())
            });
            report_line(format_args!(
                "campaign '{}': {} cells, {} initial jobs on {} workers{}{}{}",
                plan.name,
                kept.len(),
                plan.initial_job_count(),
                self.workers,
                shard_note,
                journal_note,
                telemetry_note
            ));
        }
        let started = Instant::now();
        // stderr is locked per line so concurrent workers never interleave
        // within a progress line.
        let stderr = Mutex::new(std::io::stderr());
        let mut executed = 0;
        let mut cached = 0;
        let mut quarantined: Vec<QuarantinedJob> = Vec::new();
        // Cells with a quarantined job are frozen out of adaptive rounds:
        // their replicate count can no longer grow deterministically, and
        // re-deriving the missing seed would just re-run the same panic.
        let mut frozen = vec![false; plan.cells.len()];

        let mut round: Vec<PlanJob> = plan
            .initial_jobs()
            .into_iter()
            .filter(|job| in_shard(job.cell))
            .collect();
        while !round.is_empty() {
            // Resolve journal hits first; only the misses go to the pool.
            // With telemetry on, a hit additionally requires the job's
            // telemetry line — a truncated `telemetry.jsonl` re-runs the
            // affected job so the log heals deterministically. A journaled
            // quarantine is replayed (not re-run) while its recorded attempt
            // count meets the current allowance; raising --max-retries
            // re-runs it for a chance to heal.
            let mut resolved: Vec<Option<Report>> = vec![None; round.len()];
            let mut replayed_quarantine = vec![false; round.len()];
            if let Some(j) = &journal {
                for (i, job) in round.iter().enumerate() {
                    if let Some(report) = j.lookup(job.key()) {
                        match &telemetry_log {
                            Some(tlog) if !tlog.contains(job.key()) => {}
                            _ => resolved[i] = Some(report.clone()),
                        }
                    } else if let Some(q) = j.lookup_quarantine(job.key()) {
                        if q.attempts >= allowed_attempts {
                            replayed_quarantine[i] = true;
                            frozen[job.cell] = true;
                            quarantined.push(QuarantinedJob {
                                label: plan.cells[job.cell].label.clone(),
                                protocol: job.protocol,
                                seed: job.scenario.seed,
                                attempts: q.attempts,
                                error: q.error.clone(),
                            });
                        }
                    }
                }
            }
            cached += resolved.iter().filter(|r| r.is_some()).count();
            let to_run: Vec<usize> = (0..round.len())
                .filter(|&i| resolved[i].is_none() && !replayed_quarantine[i])
                .collect();
            executed += to_run.len();
            let fresh = parallel_map_with_progress(
                to_run.len(),
                self.workers,
                |i| -> Result<Report, (Vec<f64>, String)> {
                    let job = &round[to_run[i]];
                    let mut backoff_s = Vec::new();
                    let mut last_error = String::new();
                    for attempt in 0..allowed_attempts {
                        // The simulation itself runs behind catch_unwind so a
                        // poisoned job only loses its own cell, never the
                        // campaign; the (infallible-by-construction) journal
                        // and telemetry writes happen outside it.
                        let outcome = catch_unwind(AssertUnwindSafe(
                            || -> (Report, Option<TelemetryEntry>) {
                                match (telemetry_settings, &telemetry_log) {
                                    (Some(settings), Some(_)) => {
                                        let tap = WindowedTap::new(
                                            SimDuration::from_secs(settings.window_s),
                                            settings.regions_per_axis,
                                        );
                                        let mut sim = Simulation::with_telemetry(
                                            job.scenario.clone(),
                                            job.protocol,
                                            tap,
                                        );
                                        let report = sim.run();
                                        let tap = sim.into_telemetry();
                                        let entry = TelemetryEntry::from_tap(
                                            job.key(),
                                            &plan.name,
                                            &plan.cells[job.cell].label,
                                            job.scenario.seed,
                                            &tap,
                                        );
                                        (report, Some(entry))
                                    }
                                    _ => (run_scenario(job.scenario.clone(), job.protocol), None),
                                }
                            },
                        ));
                        match outcome {
                            Ok((report, entry)) => {
                                if let (Some(tlog), Some(entry)) = (&telemetry_log, entry) {
                                    if telemetry_writable.load(Ordering::Relaxed) {
                                        if let Err(error) = tlog.record(&entry) {
                                            if telemetry_writable.swap(false, Ordering::Relaxed) {
                                                report_line(format_args!(
                                                    "warning: cannot append to \
                                                     telemetry log {:?}: {error}; further \
                                                     telemetry writes disabled",
                                                    tlog.path()
                                                ));
                                            }
                                        }
                                    }
                                }
                                // A job can re-run with its journal line
                                // intact (only its telemetry line was lost);
                                // re-recording it would duplicate the line
                                // and break byte-level replay determinism, so
                                // append only on a true journal miss.
                                if let Some(j) = &journal {
                                    if j.lookup(job.key()).is_none()
                                        && journal_writable.load(Ordering::Relaxed)
                                    {
                                        let record = JournalEntry {
                                            key: job.key(),
                                            campaign: plan.name.clone(),
                                            label: plan.cells[job.cell].label.clone(),
                                            seed: job.scenario.seed,
                                            report: report.clone(),
                                        };
                                        if let Err(error) = j.record(&record) {
                                            if journal_writable.swap(false, Ordering::Relaxed) {
                                                report_line(format_args!(
                                                    "warning: cannot append to \
                                                     journal {:?}: {error}; further journal \
                                                     writes disabled",
                                                    j.path()
                                                ));
                                            }
                                        }
                                    }
                                }
                                return Ok(report);
                            }
                            Err(payload) => {
                                last_error = panic_message(payload.as_ref());
                                if attempt + 1 < allowed_attempts {
                                    // Recorded, never slept: resume must not
                                    // depend on wall-clock waits.
                                    backoff_s.push(f64::from(1u32 << attempt.min(30)));
                                }
                            }
                        }
                    }
                    Err((backoff_s, last_error))
                },
                |i, done, n| {
                    if self.progress {
                        let job = &round[to_run[i]];
                        let mut err = stderr.lock().expect("stderr lock poisoned");
                        let _ = writeln!(
                            err,
                            "[vanet-runner] {done}/{n} {} on {} (seed {})",
                            job.protocol, plan.cells[job.cell].label, job.scenario.seed
                        );
                    }
                },
            );
            for (slot, outcome) in to_run.into_iter().zip(fresh) {
                match outcome {
                    Ok(report) => resolved[slot] = Some(report),
                    Err((backoff_s, error)) => {
                        let job = &round[slot];
                        frozen[job.cell] = true;
                        report_line(format_args!(
                            "warning: quarantined {} on {} (seed {}) after {} \
                             attempt(s): {error}",
                            job.protocol,
                            plan.cells[job.cell].label,
                            job.scenario.seed,
                            allowed_attempts
                        ));
                        let entry = QuarantineEntry {
                            key: job.key(),
                            campaign: plan.name.clone(),
                            label: plan.cells[job.cell].label.clone(),
                            seed: job.scenario.seed,
                            attempts: allowed_attempts,
                            backoff_s,
                            error: error.clone(),
                        };
                        if let Some(j) = &journal {
                            if journal_writable.load(Ordering::Relaxed) {
                                if let Err(io_error) = j.record_quarantine(&entry) {
                                    if journal_writable.swap(false, Ordering::Relaxed) {
                                        report_line(format_args!(
                                            "warning: cannot append to journal \
                                             {:?}: {io_error}; further journal writes disabled",
                                            j.path()
                                        ));
                                    }
                                }
                            }
                        }
                        quarantined.push(QuarantinedJob {
                            label: plan.cells[job.cell].label.clone(),
                            protocol: job.protocol,
                            seed: job.scenario.seed,
                            attempts: allowed_attempts,
                            error,
                        });
                    }
                }
            }
            // Jobs are cell-major within a round, so pushing in round order
            // keeps every cell's reports in replicate order. Quarantined
            // slots simply contribute no report.
            for (job, report) in round.iter().zip(resolved) {
                if let Some(report) = report {
                    reports[job.cell].push(report);
                }
            }
            round = next_adaptive_round(plan, &kept, &reports, &frozen);
        }
        let elapsed = started.elapsed();

        let cells: Vec<CellSummary> = kept
            .iter()
            .filter_map(|&index| {
                let cell = &plan.cells[index];
                // A cell whose every job was quarantined has no reports and
                // no summary; it is reported via `quarantined` instead.
                Summary::from_reports(&reports[index]).map(|summary| CellSummary {
                    label: cell.label.clone(),
                    scenario: cell.scenario.name.clone(),
                    protocol: cell.protocol,
                    summary,
                })
            })
            .collect();
        if self.progress {
            let quarantine_note = if quarantined.is_empty() {
                String::new()
            } else {
                format!(", {} quarantined", quarantined.len())
            };
            report_line(format_args!(
                "campaign '{}' finished: {} jobs executed, {} cached{}, {:.2}s",
                plan.name,
                executed,
                cached,
                quarantine_note,
                elapsed.as_secs_f64()
            ));
        }
        CampaignResults {
            campaign: plan.name.clone(),
            workers: self.workers,
            elapsed,
            executed_jobs: executed,
            cached_jobs: cached,
            cells,
            quarantined,
        }
    }
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
