//! Persisted streaming telemetry: one compact columnar JSON line per job.
//!
//! When a campaign runs with the telemetry tap enabled, the
//! [`Runner`](crate::Runner) flushes each job's sealed
//! [`WindowedTap`](vanet_core::WindowedTap) as one line of
//! `telemetry.jsonl` next to the campaign journal. The format is columnar
//! — a `"cols"` object mapping column names to arrays with one element per
//! window (plus three `region_*` columns with one element per spatial
//! bucket) — so a line is self-describing and an analysis pass can project
//! any column without touching the rest.
//!
//! The file follows the journal's persistence contract exactly: keyed by
//! the job's stable content hash, append-only, one `write` per record,
//! floats in shortest-round-trip form, unparseable lines (an interrupted
//! final write) skipped and counted at open so the affected job simply
//! re-runs. [`TelemetryLog::contains`] is the resume check: a job is only a
//! cache hit when *both* its report and its telemetry line survived.

use crate::export::{json_escape, Json, JsonParser};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use vanet_core::{WindowedTap, DROP_REASON_NAMES};

/// Name of the telemetry log inside a journal directory.
pub const TELEMETRY_FILE: &str = "telemetry.jsonl";

/// One job's windowed telemetry as persisted in `telemetry.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEntry {
    /// The job's stable content key (`PlanJob::key`, matches the journal).
    pub key: u64,
    /// The campaign the job ran under (bookkeeping only).
    pub campaign: String,
    /// The cell label (bookkeeping only).
    pub label: String,
    /// The job's fully derived seed.
    pub seed: u64,
    /// Window width in seconds.
    pub window_s: f64,
    /// Spatial buckets per axis (the `region_*` columns have this² values).
    pub regions_per_axis: usize,
    /// Named columns in canonical order: per-window counters first, then
    /// the per-region aggregates. Counter columns hold exact integers (as
    /// `f64`, far below 2^53); `delay_sum_s` is a true float.
    pub cols: Vec<(String, Vec<f64>)>,
}

impl TelemetryEntry {
    /// Projects a sealed tap into the canonical column layout.
    #[must_use]
    pub fn from_tap(key: u64, campaign: &str, label: &str, seed: u64, tap: &WindowedTap) -> Self {
        let windows = tap.windows();
        let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..windows.len()).map(f).collect() };
        let mut cols: Vec<(String, Vec<f64>)> = vec![
            (
                "originations".to_owned(),
                col(&|i| windows[i].originations as f64),
            ),
            (
                "deliveries".to_owned(),
                col(&|i| windows[i].deliveries as f64),
            ),
            ("delay_sum_s".to_owned(), col(&|i| windows[i].delay_sum_s)),
            (
                "sent_data".to_owned(),
                col(&|i| windows[i].sent_data as f64),
            ),
            (
                "sent_control".to_owned(),
                col(&|i| windows[i].sent_control as f64),
            ),
            (
                "bytes_sent".to_owned(),
                col(&|i| windows[i].bytes_sent as f64),
            ),
            ("received".to_owned(), col(&|i| windows[i].received as f64)),
        ];
        for (d, name) in DROP_REASON_NAMES.iter().enumerate() {
            cols.push((format!("drop_{name}"), col(&|i| windows[i].drops[d] as f64)));
        }
        cols.push((
            "fault_drops".to_owned(),
            col(&|i| windows[i].fault_drops as f64),
        ));
        cols.push(("outages".to_owned(), col(&|i| windows[i].outages as f64)));
        cols.push((
            "neighbors_lost".to_owned(),
            col(&|i| windows[i].neighbors_lost as f64),
        ));
        cols.push((
            "neighbors_gained".to_owned(),
            col(&|i| windows[i].neighbors_gained as f64),
        ));
        cols.push((
            "medium_transmissions".to_owned(),
            col(&|i| windows[i].medium.transmissions.value() as f64),
        ));
        cols.push((
            "medium_deliveries".to_owned(),
            col(&|i| windows[i].medium.deliveries.value() as f64),
        ));
        cols.push((
            "medium_propagation_losses".to_owned(),
            col(&|i| windows[i].medium.propagation_losses.value() as f64),
        ));
        cols.push((
            "medium_collision_losses".to_owned(),
            col(&|i| windows[i].medium.collision_losses.value() as f64),
        ));
        cols.push((
            "medium_fault_losses".to_owned(),
            col(&|i| windows[i].medium.fault_losses.value() as f64),
        ));
        cols.push((
            "medium_bytes".to_owned(),
            col(&|i| windows[i].medium.bytes_transmitted.value() as f64),
        ));
        cols.push((
            "bundles_stored".to_owned(),
            col(&|i| windows[i].bundles_stored as f64),
        ));
        cols.push((
            "bundles_forwarded".to_owned(),
            col(&|i| windows[i].bundles_forwarded as f64),
        ));
        cols.push((
            "bundles_expired".to_owned(),
            col(&|i| windows[i].bundles_expired as f64),
        ));
        cols.push((
            "bundles_evicted".to_owned(),
            col(&|i| windows[i].bundles_evicted as f64),
        ));
        cols.push((
            "custody_transfers".to_owned(),
            col(&|i| windows[i].custody_transfers as f64),
        ));
        cols.push((
            "buffer_peak".to_owned(),
            col(&|i| windows[i].buffer_peak as f64),
        ));
        let regions = tap.regions();
        cols.push((
            "region_sent".to_owned(),
            regions.iter().map(|r| r.sent as f64).collect(),
        ));
        cols.push((
            "region_received".to_owned(),
            regions.iter().map(|r| r.received as f64).collect(),
        ));
        cols.push((
            "region_drops".to_owned(),
            regions.iter().map(|r| r.drops as f64).collect(),
        ));
        TelemetryEntry {
            key,
            campaign: campaign.to_owned(),
            label: label.to_owned(),
            seed,
            window_s: tap.window_secs(),
            regions_per_axis: tap.regions_per_axis(),
            cols,
        }
    }

    /// Number of windows the entry spans (length of the per-window columns).
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.cols.first().map_or(0, |(_, v)| v.len())
    }

    /// Looks a column up by name.
    #[must_use]
    pub fn col(&self, name: &str) -> Option<&[f64]> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The per-window column names, in canonical order (excludes the
    /// `region_*` aggregates).
    #[must_use]
    pub fn window_col_names(&self) -> Vec<&str> {
        self.cols
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.starts_with("region_"))
            .collect()
    }
}

fn render_numbers(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 4 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Renders one telemetry line (no trailing newline). Floats use Rust's
/// shortest-round-trip `Display`, so parsing reproduces the exact bits.
#[must_use]
pub fn render_entry(entry: &TelemetryEntry) -> String {
    let cols: Vec<String> = entry
        .cols
        .iter()
        .map(|(name, values)| format!("\"{}\":{}", json_escape(name), render_numbers(values)))
        .collect();
    format!(
        "{{\"key\":\"{:016x}\",\"campaign\":\"{}\",\"label\":\"{}\",\"seed\":{},\
         \"window_s\":{},\"regions_per_axis\":{},\"cols\":{{{}}}}}",
        entry.key,
        json_escape(&entry.campaign),
        json_escape(&entry.label),
        entry.seed,
        entry.window_s,
        entry.regions_per_axis,
        cols.join(",")
    )
}

/// Parses one telemetry line (the inverse of [`render_entry`]). Malformed
/// lines yield a description; the log loader treats that as "interrupted
/// write, re-run the job".
pub fn parse_entry(line: &str) -> Result<TelemetryEntry, String> {
    let value = JsonParser::new(line).value()?;
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key:?}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field {key:?}"))
    };
    let key_hex = text("key")?;
    let key = u64::from_str_radix(&key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
    let cols_value = value.get("cols").ok_or("missing cols object")?;
    let pairs = cols_value.entries().ok_or("cols is not an object")?;
    let mut cols = Vec::with_capacity(pairs.len());
    for (name, col) in pairs {
        let items = col
            .as_array()
            .ok_or_else(|| format!("column {name:?} is not an array"))?;
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            values.push(
                item.as_f64()
                    .ok_or_else(|| format!("column {name:?} holds a non-number"))?,
            );
        }
        cols.push((name.clone(), values));
    }
    Ok(TelemetryEntry {
        key,
        campaign: text("campaign")?,
        label: text("label")?,
        seed: int("seed")?,
        window_s: num("window_s")?,
        regions_per_axis: usize::try_from(int("regions_per_axis")?)
            .map_err(|_| "regions_per_axis out of range")?,
        cols,
    })
}

/// An open telemetry log: entries loaded from disk (file order, last write
/// per key wins) plus an append handle for streaming new completions.
#[derive(Debug)]
pub struct TelemetryLog {
    path: PathBuf,
    entries: Vec<TelemetryEntry>,
    index: HashMap<u64, usize>,
    file: Mutex<File>,
    skipped_lines: usize,
}

impl TelemetryLog {
    /// Opens (creating if needed) the telemetry log in `dir`, loading every
    /// parseable line of an existing `telemetry.jsonl`. Unparseable lines
    /// are counted and skipped — the matching job re-runs, like a truncated
    /// journal line.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<TelemetryLog> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(TELEMETRY_FILE);
        let mut entries: Vec<TelemetryEntry> = Vec::new();
        let mut index = HashMap::new();
        let mut skipped_lines = 0;
        let mut needs_newline = false;
        if let Ok(existing) = std::fs::read_to_string(&path) {
            for line in existing.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_entry(line) {
                    Ok(entry) => match index.get(&entry.key) {
                        Some(&at) => entries[at] = entry,
                        None => {
                            index.insert(entry.key, entries.len());
                            entries.push(entry);
                        }
                    },
                    Err(_) => skipped_lines += 1,
                }
            }
            // Same interrupted-write repair as the journal: never glue a new
            // record onto a partial final line.
            needs_newline = !existing.is_empty() && !existing.ends_with('\n');
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if needs_newline {
            writeln!(file)?;
        }
        Ok(TelemetryLog {
            path,
            entries,
            index,
            file: Mutex::new(file),
            skipped_lines,
        })
    }

    /// The telemetry file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries loaded at open time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log loaded empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of unparseable lines skipped at open time.
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Whether a job's telemetry line survived (the resume check).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Looks an entry up by its content key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&TelemetryEntry> {
        self.index.get(&key).map(|&at| &self.entries[at])
    }

    /// Every loaded entry, in file order.
    #[must_use]
    pub fn entries(&self) -> &[TelemetryEntry] {
        &self.entries
    }

    /// Appends one entry and flushes — the line and its newline go down in
    /// a single `write` on an append-mode handle, mirroring the journal's
    /// crash- and shard-safety contract.
    pub fn record(&self, entry: &TelemetryEntry) -> std::io::Result<()> {
        let mut line = render_entry(entry);
        line.push('\n');
        let mut file = self.file.lock().expect("telemetry file lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vanet_core::{MediumStats, Position, Telemetry, WindowedTap};
    use vanet_sim::{SimDuration, SimTime};

    fn sample_tap() -> WindowedTap {
        let mut tap = WindowedTap::new(SimDuration::from_secs(1.0), 2);
        tap.on_start(
            Position::new(0.0, 0.0),
            Position::new(100.0, 100.0),
            SimDuration::from_secs(2.0),
        );
        let medium = MediumStats::default();
        tap.on_event(SimTime::from_secs(0.25), &medium);
        tap.on_origination(SimTime::from_secs(0.25));
        tap.on_transmit(SimTime::from_secs(0.25), Position::new(5.0, 5.0), 64, false);
        // The simulation reports the event clock before each event's hooks,
        // which is what rolls the window forward.
        tap.on_event(SimTime::from_secs(1.5), &medium);
        tap.on_delivery(SimTime::from_secs(1.5), 0.012_345_678_9);
        tap.on_bundle(SimTime::from_secs(1.5), vanet_core::BundleOp::Stored, 2);
        tap.on_finish(SimTime::from_secs(2.0), &medium);
        tap
    }

    fn entry() -> TelemetryEntry {
        TelemetryEntry::from_tap(
            0xfeed_beef_1234_5678,
            "camp \"q\"",
            "hw,dense",
            42,
            &sample_tap(),
        )
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vanet-telemetry-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn entry_round_trips_exactly() {
        let e = entry();
        let parsed = parse_entry(&render_entry(&e)).expect("rendered entry parses");
        assert_eq!(parsed, e, "telemetry round-trip must be lossless");
        // Above 2^53 a seed is exact only if never read as f64.
        let mut big = entry();
        big.seed = u64::MAX - 1;
        assert_eq!(parse_entry(&render_entry(&big)), Ok(big));
        let line = render_entry(&e);
        for bad in ["-1", "1.5", "1e3"] {
            let seed = line.replace("\"seed\":42", &format!("\"seed\":{bad}"));
            assert!(parse_entry(&seed).is_err(), "seed {bad}");
            let regions = line.replace(
                "\"regions_per_axis\":2",
                &format!("\"regions_per_axis\":{bad}"),
            );
            assert!(parse_entry(&regions).is_err(), "regions_per_axis {bad}");
        }
    }

    #[test]
    fn from_tap_projects_the_canonical_columns() {
        let e = entry();
        assert_eq!(e.window_count(), 3);
        assert_eq!(e.col("originations"), Some(&[1.0, 0.0, 0.0][..]));
        assert_eq!(e.col("deliveries"), Some(&[0.0, 1.0, 0.0][..]));
        assert_eq!(e.col("region_sent").map(<[f64]>::len), Some(4));
        assert!(e.col("drop_no_route").is_some());
        assert_eq!(e.col("fault_drops"), Some(&[0.0, 0.0, 0.0][..]));
        assert_eq!(e.col("outages"), Some(&[0.0, 0.0, 0.0][..]));
        assert_eq!(e.col("medium_fault_losses"), Some(&[0.0, 0.0, 0.0][..]));
        assert_eq!(e.col("bundles_stored"), Some(&[0.0, 1.0, 0.0][..]));
        assert_eq!(e.col("buffer_peak"), Some(&[0.0, 2.0, 0.0][..]));
        assert_eq!(e.col("custody_transfers"), Some(&[0.0, 0.0, 0.0][..]));
        assert!(e
            .window_col_names()
            .iter()
            .all(|n| !n.starts_with("region_")));
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(parse_entry("{oops").is_err());
        assert!(parse_entry("{\"key\":\"zz\"}").is_err());
        let truncated = &render_entry(&entry())[..60];
        assert!(parse_entry(truncated).is_err());
    }

    #[test]
    fn log_persists_and_recovers_like_the_journal() {
        let dir = temp_dir("basic");
        let log = TelemetryLog::open(&dir).unwrap();
        assert!(log.is_empty());
        log.record(&entry()).unwrap();
        let mut second = entry();
        second.key = 7;
        log.record(&second).unwrap();
        drop(log);

        let reopened = TelemetryLog::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.skipped_lines(), 0);
        assert!(reopened.contains(entry().key) && reopened.contains(7));
        assert_eq!(reopened.get(entry().key), Some(&entry()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_final_line_is_skipped_not_fatal() {
        let dir = temp_dir("interrupted");
        let log = TelemetryLog::open(&dir).unwrap();
        log.record(&entry()).unwrap();
        let path = log.path().to_path_buf();
        drop(log);
        let full = std::fs::read_to_string(&path).unwrap();
        let half = &full[..full.len() / 2];
        std::fs::write(&path, format!("{full}{half}")).unwrap();

        let reopened = TelemetryLog::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.skipped_lines(), 1);
        assert!(!reopened.path().to_string_lossy().is_empty());
        // Appending after the repair starts on a fresh line.
        reopened.record(&entry()).unwrap();
        drop(reopened);
        let again = TelemetryLog::open(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.skipped_lines(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
