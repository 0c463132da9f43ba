//! Resumable per-job campaign journals, doubling as a result cache.
//!
//! While a campaign runs, the [`Runner`](crate::Runner) streams one JSON line
//! per completed job into `journal.jsonl` inside the journal directory. Each
//! line is self-contained: the job's stable content key (from
//! [`PlanJob::key`](vanet_core::PlanJob::key), a hash of the fully seeded
//! scenario and the protocol), a little bookkeeping, and the complete
//! [`Report`] — every [`Report::FIELDS`] metric, bit-exact through
//! [`crate::record`], so resumed campaigns stay byte-identical to cold runs.
//!
//! On open, every parseable line becomes a cache entry keyed by the content
//! hash. Jobs whose key is already present are not re-executed; because keys
//! depend only on (scenario, protocol, seed) content, this gives three
//! behaviours for free:
//!
//! * **resume** — re-running an interrupted campaign executes only the
//!   missing jobs;
//! * **sharded resume** — `--shard i/n` composes, since each shard only looks
//!   up its own cells' keys;
//! * **cell-level caching** — editing a plan invalidates exactly the cells
//!   whose scenario or protocol changed; untouched cells replay from disk.
//!
//! A line the codec cannot read — typically one write interrupted by the
//! crash that makes resuming worthwhile — is skipped and counted
//! ([`Journal::skipped_lines`]); its job simply re-runs.

use crate::record::{self, AppendLog, Line};
use std::collections::HashMap;
use std::path::Path;
use vanet_core::{Report, ReportField};

/// Name of the journal file inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The first this-many [`Report::FIELDS`] predate the DTN layer. Journal
/// lines written before it lack the later ones (the bundle counters), which
/// then read as zero; every earlier field is required.
const PRE_DTN_FIELDS: usize = 15;

/// One completed job as persisted in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The job's stable content key (`PlanJob::key`).
    pub key: u64,
    /// The campaign the job ran under (bookkeeping only — not part of the
    /// cache key, so campaigns can share a journal directory).
    pub campaign: String,
    /// The cell label (bookkeeping only).
    pub label: String,
    /// The job's fully derived seed.
    pub seed: u64,
    /// The complete per-run report.
    pub report: Report,
}

/// Renders one journal line (no trailing newline): the bookkeeping fields,
/// then the report's names and every [`Report::FIELDS`] metric in order.
#[must_use]
pub fn render_entry(entry: &JournalEntry) -> String {
    let mut report = Line::default();
    report
        .str("protocol", &entry.report.protocol)
        .str("scenario", &entry.report.scenario);
    for field in &Report::FIELDS {
        match field {
            ReportField::Count(name, get, _) => report.u64(name, get(&entry.report)),
            ReportField::Real(name, get, _) => report.f64(name, get(&entry.report)),
        };
    }
    Line::default()
        .hex16("key", entry.key)
        .str("campaign", &entry.campaign)
        .str("label", &entry.label)
        .u64("seed", entry.seed)
        .obj("report", &report)
        .finish()
}

/// Parses one journal line. Returns a description of the first problem for
/// malformed lines (the caller decides whether that is fatal — the journal
/// loader treats it as "interrupted write, re-run the job").
pub fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let line = record::parse(line)?;
    let fields = line.obj("report")?;
    let mut report = Report {
        protocol: fields.str("protocol")?.to_owned(),
        scenario: fields.str("scenario")?.to_owned(),
        ..Report::default()
    };
    for (index, field) in Report::FIELDS.iter().enumerate() {
        match field {
            ReportField::Count(name, _, set) if index < PRE_DTN_FIELDS => {
                set(&mut report, fields.int(name)?);
            }
            ReportField::Count(name, _, set) => {
                set(&mut report, fields.opt_u64(name)?.unwrap_or(0));
            }
            ReportField::Real(name, _, set) => set(&mut report, fields.f64(name)?),
        }
    }
    Ok(JournalEntry {
        key: line.hex16("key")?,
        campaign: line.str("campaign")?.to_owned(),
        label: line.str("label")?.to_owned(),
        seed: line.int("seed")?,
        report,
    })
}

/// A job the campaign gave up on: every allowed attempt panicked. Persisted
/// in the journal alongside completed jobs so resumed campaigns neither
/// re-run a known-poisoned job nor forget why a cell is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The job's stable content key (`PlanJob::key`).
    pub key: u64,
    /// The campaign the job ran under (bookkeeping only).
    pub campaign: String,
    /// The cell label (bookkeeping only).
    pub label: String,
    /// The job's fully derived seed.
    pub seed: u64,
    /// How many times the job was attempted before quarantine.
    pub attempts: u32,
    /// The exponential backoff schedule that *would* apply between attempts,
    /// in seconds. Recorded rather than slept so resume stays deterministic.
    pub backoff_s: Vec<f64>,
    /// First line of the panic payload from the final attempt.
    pub error: String,
}

/// Renders one quarantine line (no trailing newline). The `"quarantined":true`
/// marker distinguishes it from a report line.
#[must_use]
pub fn render_quarantine(entry: &QuarantineEntry) -> String {
    Line::default()
        .hex16("key", entry.key)
        .flag("quarantined")
        .str("campaign", &entry.campaign)
        .str("label", &entry.label)
        .u64("seed", entry.seed)
        .u64("attempts", u64::from(entry.attempts))
        .f64s("backoff_s", &entry.backoff_s)
        .str("error", &entry.error)
        .finish()
}

/// Parses one quarantine line (a line carrying the `"quarantined":true`
/// marker). Returns a description of the first problem for malformed lines.
pub fn parse_quarantine(line: &str) -> Result<QuarantineEntry, String> {
    let line = record::parse(line)?;
    if !line.flag("quarantined") {
        return Err("missing quarantined marker".to_owned());
    }
    Ok(QuarantineEntry {
        key: line.hex16("key")?,
        campaign: line.str("campaign")?.to_owned(),
        label: line.str("label")?.to_owned(),
        seed: line.int("seed")?,
        attempts: line.int("attempts")?,
        backoff_s: line.f64s("backoff_s")?.to_vec(),
        error: line.str("error")?.to_owned(),
    })
}

/// What a journal file says once every line has been applied in order.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// The cached report of every completed job, by content key.
    pub(crate) reports: HashMap<u64, Report>,
    /// The live quarantines, in file order.
    pub(crate) quarantined: Vec<QuarantineEntry>,
}

/// Replays a journal file's text, last line wins per key: a report line
/// heals an earlier quarantine (the job succeeded on a later attempt or
/// under a raised retry budget), a re-quarantine replaces the earlier
/// record, and a quarantine line supersedes nothing — a cached report for
/// the same key always takes precedence. Also returns the number of
/// unreadable lines skipped.
pub(crate) fn replay(text: &str) -> (Replay, usize) {
    let mut state = Replay::default();
    let (_, skipped) = record::records(text, |line| {
        if let Ok(entry) = parse_entry(line) {
            state.quarantined.retain(|q| q.key != entry.key);
            state.reports.insert(entry.key, entry.report);
        } else {
            let entry = parse_quarantine(line)?;
            if !state.reports.contains_key(&entry.key) {
                state.quarantined.retain(|q| q.key != entry.key);
                state.quarantined.push(entry);
            }
        }
        Ok(())
    });
    (state, skipped)
}

/// An open journal: the cache loaded from disk plus an append handle for
/// streaming new completions.
#[derive(Debug)]
pub struct Journal {
    cache: HashMap<u64, Report>,
    quarantine: HashMap<u64, QuarantineEntry>,
    log: AppendLog,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, loading every
    /// parseable line of an existing `journal.jsonl` into the cache.
    /// Unparseable lines — typically one interrupted final write — are
    /// counted and skipped, not fatal.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Journal> {
        let (log, state) = AppendLog::open(dir.as_ref(), JOURNAL_FILE, replay)?;
        Ok(Journal {
            cache: state.reports,
            quarantine: state.quarantined.into_iter().map(|q| (q.key, q)).collect(),
            log,
        })
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of cached job results loaded at open time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache loaded empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Number of unparseable lines skipped at open time.
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.log.skipped_lines()
    }

    /// Number of quarantined jobs loaded at open time.
    #[must_use]
    pub fn quarantined_len(&self) -> usize {
        self.quarantine.len()
    }

    /// Looks a completed job up by its content key.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<&Report> {
        self.cache.get(&key)
    }

    /// Looks a quarantined job up by its content key. A key never appears in
    /// both maps: a successful report heals the quarantine at load time.
    #[must_use]
    pub fn lookup_quarantine(&self, key: u64) -> Option<&QuarantineEntry> {
        self.quarantine.get(&key)
    }

    /// Appends a completed job; see [`AppendLog::append`] for the crash- and
    /// shard-safety of the write.
    pub fn record(&self, entry: &JournalEntry) -> std::io::Result<()> {
        self.log.append(render_entry(entry))
    }

    /// Appends a quarantine record, with the same guarantees as
    /// [`Journal::record`].
    pub fn record_quarantine(&self, entry: &QuarantineEntry) -> std::io::Result<()> {
        self.log.append(render_quarantine(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::temp_dir;

    fn report() -> Report {
        Report {
            protocol: "AODV".to_owned(),
            scenario: "highway-20".to_owned(),
            data_sent: 40,
            data_delivered: 31,
            duplicate_deliveries: 2,
            delivery_ratio: 0.775,
            avg_delay_s: 0.012_345_678_901_234_5,
            max_delay_s: 0.9,
            avg_hops: 2.5,
            control_packets: 120,
            control_bytes: 2880,
            data_transmissions: 77,
            control_per_delivered: 3.870_967_741_935_484,
            transmissions_per_delivered: 6.354_838_709_677_419,
            route_errors: 4,
            drops: 9,
            avg_neighbors: 5.333_333_333_333_333,
            bundles_stored: 6,
            bundles_forwarded: 3,
            bundles_expired: 1,
            bundles_evicted: 2,
            custody_transfers: 3,
            buffer_peak: 5,
        }
    }

    fn entry() -> JournalEntry {
        JournalEntry {
            key: 0x0123_4567_89ab_cdef,
            campaign: "test \"quoted\"".to_owned(),
            label: "hw,dense".to_owned(),
            seed: 101,
            report: report(),
        }
    }

    #[test]
    fn entry_round_trips_exactly() {
        let e = entry();
        let parsed = parse_entry(&render_entry(&e)).expect("rendered entry parses");
        assert_eq!(parsed, e, "journal round-trip must be lossless");
        // Above 2^53 a seed or a counter is exact only if never read as f64.
        let mut big = entry();
        big.seed = u64::MAX - 1;
        big.report.control_bytes = (1 << 53) + 1;
        assert_eq!(parse_entry(&render_entry(&big)), Ok(big));
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(parse_entry("{oops").is_err());
        assert!(parse_entry("{\"key\":\"zz\"}").is_err());
        let truncated = &render_entry(&entry())[..40];
        assert!(parse_entry(truncated).is_err());
    }

    #[test]
    fn journal_persists_and_recovers() {
        let dir = temp_dir("basic");
        let journal = Journal::open(&dir).unwrap();
        assert!(journal.is_empty());
        journal.record(&entry()).unwrap();
        let mut second = entry();
        second.key = 7;
        second.report.data_sent = 99;
        journal.record(&second).unwrap();
        drop(journal);

        let reopened = Journal::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.lookup(entry().key), Some(&entry().report));
        assert_eq!(reopened.lookup(7).unwrap().data_sent, 99);
        assert_eq!(reopened.lookup(8), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn quarantine() -> QuarantineEntry {
        QuarantineEntry {
            key: 0xdead_beef_0000_0001,
            campaign: "chaos".to_owned(),
            label: "hw/AODV".to_owned(),
            seed: 42,
            attempts: 3,
            backoff_s: vec![1.0, 2.0, 4.0],
            error: "poison fault fired at 1.000s in scenario 'hw'".to_owned(),
        }
    }

    #[test]
    fn quarantine_round_trips_exactly() {
        let q = quarantine();
        let line = render_quarantine(&q);
        assert!(line.contains("\"quarantined\":true"));
        let parsed = parse_quarantine(&line).expect("rendered quarantine parses");
        assert_eq!(parsed, q, "quarantine round-trip must be lossless");
        let mut big = quarantine();
        big.seed = u64::MAX - 1;
        let big_line = render_quarantine(&big);
        assert_eq!(parse_quarantine(&big_line), Ok(big));
        let too_many = line.replace("\"attempts\":3", "\"attempts\":4294967296");
        assert!(parse_quarantine(&too_many).is_err(), "attempts is a u32");
        // A quarantine line is not a report line and vice versa.
        assert!(parse_entry(&line).is_err());
        assert!(parse_quarantine(&render_entry(&entry())).is_err());
    }

    #[test]
    fn report_line_heals_earlier_quarantine() {
        let dir = temp_dir("heal");
        let journal = Journal::open(&dir).unwrap();
        let mut q = quarantine();
        q.key = entry().key;
        journal.record_quarantine(&q).unwrap();
        drop(journal);

        let reopened = Journal::open(&dir).unwrap();
        assert_eq!(reopened.quarantined_len(), 1);
        assert_eq!(reopened.lookup_quarantine(q.key), Some(&q));
        assert_eq!(reopened.lookup(q.key), None);
        // The job later succeeds (e.g. under a raised --max-retries): the
        // report supersedes the quarantine on the next load.
        reopened.record(&entry()).unwrap();
        drop(reopened);

        let healed = Journal::open(&dir).unwrap();
        assert_eq!(healed.quarantined_len(), 0);
        assert_eq!(healed.lookup_quarantine(q.key), None);
        assert_eq!(healed.lookup(q.key), Some(&entry().report));
        // And a cached success is never displaced by a stale quarantine line.
        healed.record_quarantine(&q).unwrap();
        drop(healed);
        let still_healed = Journal::open(&dir).unwrap();
        assert_eq!(still_healed.quarantined_len(), 0);
        assert_eq!(still_healed.lookup(q.key), Some(&entry().report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_final_line_is_skipped_not_fatal() {
        let dir = temp_dir("interrupted");
        let journal = Journal::open(&dir).unwrap();
        journal.record(&entry()).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        // Simulate a crash mid-write: append half a line.
        let full = std::fs::read_to_string(&path).unwrap();
        let half = &full[..full.len() / 2];
        std::fs::write(&path, format!("{full}{half}")).unwrap();

        let reopened = Journal::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.skipped_lines(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
