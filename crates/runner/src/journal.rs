//! Resumable per-job campaign journals, doubling as a result cache.
//!
//! While a campaign runs, the [`Runner`](crate::Runner) streams one JSON line
//! per completed job into `journal.jsonl` inside the journal directory. Each
//! line is self-contained: the job's stable content key (from
//! [`PlanJob::key`](vanet_core::PlanJob::key), a hash of the fully seeded
//! scenario and the protocol), a little bookkeeping, and the complete
//! [`Report`] with floats rendered in shortest-round-trip form — so
//! `parse(render(r))` reproduces the exact bits and resumed campaigns stay
//! byte-identical to cold runs.
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
//! A line interrupted mid-write (the crash that makes resuming worthwhile)
//! fails to parse and is skipped — its job simply re-runs.

use crate::export::{json_escape, JsonParser};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use vanet_core::Report;

/// Name of the journal file inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

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

/// Renders one journal line (no trailing newline). Floats use Rust's
/// shortest-round-trip `Display`, so parsing reproduces the exact bits.
#[must_use]
pub fn render_entry(entry: &JournalEntry) -> String {
    let r = &entry.report;
    format!(
        "{{\"key\":\"{:016x}\",\"campaign\":\"{}\",\"label\":\"{}\",\"seed\":{},\
         \"report\":{{\"protocol\":\"{}\",\"scenario\":\"{}\",\"data_sent\":{},\
         \"data_delivered\":{},\"duplicate_deliveries\":{},\"delivery_ratio\":{},\
         \"avg_delay_s\":{},\"max_delay_s\":{},\"avg_hops\":{},\"control_packets\":{},\
         \"control_bytes\":{},\"data_transmissions\":{},\"control_per_delivered\":{},\
         \"transmissions_per_delivered\":{},\"route_errors\":{},\"drops\":{},\
         \"avg_neighbors\":{},\"bundles_stored\":{},\"bundles_forwarded\":{},\
         \"bundles_expired\":{},\"bundles_evicted\":{},\"custody_transfers\":{},\
         \"buffer_peak\":{}}}}}",
        entry.key,
        json_escape(&entry.campaign),
        json_escape(&entry.label),
        entry.seed,
        json_escape(&r.protocol),
        json_escape(&r.scenario),
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.max_delay_s,
        r.avg_hops,
        r.control_packets,
        r.control_bytes,
        r.data_transmissions,
        r.control_per_delivered,
        r.transmissions_per_delivered,
        r.route_errors,
        r.drops,
        r.avg_neighbors,
        r.bundles_stored,
        r.bundles_forwarded,
        r.bundles_expired,
        r.bundles_evicted,
        r.custody_transfers,
        r.buffer_peak,
    )
}

/// Parses one journal line. Returns a description of the first problem for
/// malformed lines (the caller decides whether that is fatal — the journal
/// loader treats it as "interrupted write, re-run the job").
pub fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let value = JsonParser::new(line).value()?;
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(super::export::Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    };
    let key_hex = text("key")?;
    let key = u64::from_str_radix(&key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
    let seed = value
        .get("seed")
        .and_then(super::export::Json::as_u64)
        .ok_or("missing seed")?;
    let report_value = value.get("report").ok_or("missing report object")?;
    let rtext = |key: &str| -> Result<String, String> {
        report_value
            .get(key)
            .and_then(super::export::Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing report field {key:?}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        report_value
            .get(key)
            .and_then(super::export::Json::as_f64)
            .ok_or_else(|| format!("missing report field {key:?}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        report_value
            .get(key)
            .and_then(super::export::Json::as_u64)
            .ok_or_else(|| format!("missing report counter {key:?}"))
    };
    let report = Report {
        protocol: rtext("protocol")?,
        scenario: rtext("scenario")?,
        data_sent: int("data_sent")?,
        data_delivered: int("data_delivered")?,
        duplicate_deliveries: int("duplicate_deliveries")?,
        delivery_ratio: num("delivery_ratio")?,
        avg_delay_s: num("avg_delay_s")?,
        max_delay_s: num("max_delay_s")?,
        avg_hops: num("avg_hops")?,
        control_packets: int("control_packets")?,
        control_bytes: int("control_bytes")?,
        data_transmissions: int("data_transmissions")?,
        control_per_delivered: num("control_per_delivered")?,
        transmissions_per_delivered: num("transmissions_per_delivered")?,
        route_errors: int("route_errors")?,
        drops: int("drops")?,
        avg_neighbors: num("avg_neighbors")?,
        // Bundle counters postdate the journal format: absent in lines
        // written before the DTN layer, so they default to zero.
        bundles_stored: int("bundles_stored").unwrap_or(0),
        bundles_forwarded: int("bundles_forwarded").unwrap_or(0),
        bundles_expired: int("bundles_expired").unwrap_or(0),
        bundles_evicted: int("bundles_evicted").unwrap_or(0),
        custody_transfers: int("custody_transfers").unwrap_or(0),
        buffer_peak: int("buffer_peak").unwrap_or(0),
    };
    Ok(JournalEntry {
        key,
        campaign: text("campaign")?,
        label: text("label")?,
        seed,
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
    let backoff = entry
        .backoff_s
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"key\":\"{:016x}\",\"quarantined\":true,\"campaign\":\"{}\",\"label\":\"{}\",\
         \"seed\":{},\"attempts\":{},\"backoff_s\":[{}],\"error\":\"{}\"}}",
        entry.key,
        json_escape(&entry.campaign),
        json_escape(&entry.label),
        entry.seed,
        entry.attempts,
        backoff,
        json_escape(&entry.error),
    )
}

/// Parses one quarantine line (a line carrying the `"quarantined":true`
/// marker). Returns a description of the first problem for malformed lines.
pub fn parse_quarantine(line: &str) -> Result<QuarantineEntry, String> {
    let value = JsonParser::new(line).value()?;
    if value
        .get("quarantined")
        .and_then(super::export::Json::as_f64)
        != Some(1.0)
    {
        return Err("missing quarantined marker".to_owned());
    }
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(super::export::Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(super::export::Json::as_u64)
            .ok_or_else(|| format!("missing integer field {key:?}"))
    };
    let key_hex = text("key")?;
    let key = u64::from_str_radix(&key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
    let backoff_s = value
        .get("backoff_s")
        .and_then(super::export::Json::as_array)
        .ok_or("missing backoff_s array")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "bad backoff_s element".to_owned()))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(QuarantineEntry {
        key,
        campaign: text("campaign")?,
        label: text("label")?,
        seed: int("seed")?,
        attempts: u32::try_from(int("attempts")?).map_err(|_| "attempts out of range")?,
        backoff_s,
        error: text("error")?,
    })
}

/// An open journal: the cache loaded from disk plus an append handle for
/// streaming new completions.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    cache: HashMap<u64, Report>,
    quarantine: HashMap<u64, QuarantineEntry>,
    file: Mutex<File>,
    skipped_lines: usize,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, loading every
    /// parseable line of an existing `journal.jsonl` into the cache.
    /// Unparseable lines — typically one interrupted final write — are
    /// counted and skipped, not fatal.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Journal> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut cache = HashMap::new();
        let mut quarantine: HashMap<u64, QuarantineEntry> = HashMap::new();
        let mut skipped_lines = 0;
        let mut needs_newline = false;
        if let Ok(existing) = std::fs::read_to_string(&path) {
            // Last-wins per key: a report line heals an earlier quarantine
            // (the job succeeded on a later attempt or under a raised retry
            // budget), and a quarantine line supersedes nothing — a cached
            // report for the same key always takes precedence.
            for line in existing.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Ok(entry) = parse_entry(line) {
                    quarantine.remove(&entry.key);
                    cache.insert(entry.key, entry.report);
                } else if let Ok(entry) = parse_quarantine(line) {
                    if !cache.contains_key(&entry.key) {
                        quarantine.insert(entry.key, entry);
                    }
                } else {
                    skipped_lines += 1;
                }
            }
            // A file not ending in '\n' was interrupted mid-write; appending
            // straight after would glue the first new record onto the partial
            // line and corrupt it too.
            needs_newline = !existing.is_empty() && !existing.ends_with('\n');
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if needs_newline {
            writeln!(file)?;
        }
        Ok(Journal {
            path,
            cache,
            quarantine,
            file: Mutex::new(file),
            skipped_lines,
        })
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
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
        self.skipped_lines
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

    /// Appends a completed job and flushes, so a crash immediately after
    /// loses at most the line being written. Safe to call from worker
    /// threads; the line and its newline go down in one `write` on the
    /// append-mode handle, so concurrent shard *processes* sharing a journal
    /// directory cannot interleave within a record either.
    pub fn record(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let mut line = render_entry(entry);
        line.push('\n');
        let mut file = self.file.lock().expect("journal file lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Appends a quarantine record and flushes; same atomicity guarantees as
    /// [`Journal::record`].
    pub fn record_quarantine(&self, entry: &QuarantineEntry) -> std::io::Result<()> {
        let mut line = render_quarantine(entry);
        line.push('\n');
        let mut file = self.file.lock().expect("journal file lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vanet-journal-{tag}-{}-{n}", std::process::id()))
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
        let line = render_entry(&big);
        assert_eq!(parse_entry(&line), Ok(big));
        // Anything but a non-negative integer token in an integer field is a
        // malformed line, not a value to round.
        for bad in ["-1", "1.5", "1e3"] {
            let seed = line.replace("\"seed\":18446744073709551614", &format!("\"seed\":{bad}"));
            assert!(parse_entry(&seed).is_err(), "seed {bad}: {seed}");
            let counter = line.replace("\"drops\":9", &format!("\"drops\":{bad}"));
            assert!(parse_entry(&counter).is_err(), "drops {bad}: {counter}");
        }
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
        for bad in ["-1", "1.5", "1e3", "4294967296"] {
            let attempts = line.replace("\"attempts\":3", &format!("\"attempts\":{bad}"));
            assert!(parse_quarantine(&attempts).is_err(), "attempts {bad}");
        }
        for bad in ["-1", "1.5", "1e3"] {
            let seed = line.replace("\"seed\":42", &format!("\"seed\":{bad}"));
            assert!(parse_quarantine(&seed).is_err(), "seed {bad}");
        }
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
