//! Persisted streaming telemetry: one compact columnar JSON line per job.
//!
//! When a campaign runs with the telemetry tap enabled, the
//! [`Runner`](crate::Runner) flushes each job's sealed
//! [`WindowedTap`] as one line of
//! `telemetry.jsonl` next to the campaign journal. The format is columnar
//! — a `"cols"` object mapping column names to arrays with one element per
//! window (plus three `region_*` columns with one element per spatial
//! bucket) — so a line is self-describing and an analysis pass can project
//! any column without touching the rest.
//!
//! The file follows the journal's persistence contract exactly — keyed by
//! the job's stable content hash, one `AppendLog` line per record,
//! unreadable lines skipped and counted at open so the affected job simply
//! re-runs. [`TelemetryLog::contains`] is the resume check: a job is only a
//! cache hit when *both* its report and its telemetry line survived.

use crate::record::{self, AppendLog, Line};
use std::collections::HashSet;
use std::path::Path;
use vanet_core::{RegionRecord, WindowRecord, WindowedTap, DROP_REASON_NAMES};

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

/// A column: its name and how it reads off one window or region record.
type Col<T> = (&'static str, fn(&T) -> f64);

/// The per-window columns before the `drop_*` block, in canonical order.
const WINDOW_COLS: [Col<WindowRecord>; 7] = [
    ("originations", |w| w.originations as f64),
    ("deliveries", |w| w.deliveries as f64),
    ("delay_sum_s", |w| w.delay_sum_s),
    ("sent_data", |w| w.sent_data as f64),
    ("sent_control", |w| w.sent_control as f64),
    ("bytes_sent", |w| w.bytes_sent as f64),
    ("received", |w| w.received as f64),
];

/// The per-window columns after the `drop_*` block, in canonical order.
const WINDOW_COLS_AFTER_DROPS: [Col<WindowRecord>; 16] = [
    ("fault_drops", |w| w.fault_drops as f64),
    ("outages", |w| w.outages as f64),
    ("neighbors_lost", |w| w.neighbors_lost as f64),
    ("neighbors_gained", |w| w.neighbors_gained as f64),
    ("medium_transmissions", |w| {
        w.medium.transmissions.value() as f64
    }),
    ("medium_deliveries", |w| w.medium.deliveries.value() as f64),
    ("medium_propagation_losses", |w| {
        w.medium.propagation_losses.value() as f64
    }),
    ("medium_collision_losses", |w| {
        w.medium.collision_losses.value() as f64
    }),
    ("medium_fault_losses", |w| {
        w.medium.fault_losses.value() as f64
    }),
    ("medium_bytes", |w| {
        w.medium.bytes_transmitted.value() as f64
    }),
    ("bundles_stored", |w| w.bundles_stored as f64),
    ("bundles_forwarded", |w| w.bundles_forwarded as f64),
    ("bundles_expired", |w| w.bundles_expired as f64),
    ("bundles_evicted", |w| w.bundles_evicted as f64),
    ("custody_transfers", |w| w.custody_transfers as f64),
    ("buffer_peak", |w| w.buffer_peak as f64),
];

/// The per-region columns, in canonical order.
const REGION_COLS: [Col<RegionRecord>; 3] = [
    ("region_sent", |r| r.sent as f64),
    ("region_received", |r| r.received as f64),
    ("region_drops", |r| r.drops as f64),
];

impl TelemetryEntry {
    /// Projects a sealed tap into the canonical column layout.
    #[must_use]
    pub fn from_tap(key: u64, campaign: &str, label: &str, seed: u64, tap: &WindowedTap) -> Self {
        let windows = tap.windows();
        let window_col = |&(name, read): &Col<WindowRecord>| {
            (
                name.to_owned(),
                windows.iter().map(read).collect::<Vec<_>>(),
            )
        };
        let mut cols: Vec<(String, Vec<f64>)> = WINDOW_COLS.iter().map(window_col).collect();
        for (d, name) in DROP_REASON_NAMES.iter().enumerate() {
            let drops = windows.iter().map(|w| w.drops[d] as f64).collect();
            cols.push((format!("drop_{name}"), drops));
        }
        cols.extend(WINDOW_COLS_AFTER_DROPS.iter().map(window_col));
        for (name, read) in REGION_COLS {
            cols.push((name.to_owned(), tap.regions().iter().map(read).collect()));
        }
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
    pub(crate) fn window_count(&self) -> usize {
        self.cols.first().map_or(0, |(_, v)| v.len())
    }

    /// Looks a column up by name.
    #[must_use]
    pub(crate) fn col(&self, name: &str) -> Option<&[f64]> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The per-window column names, in canonical order (excludes the
    /// `region_*` aggregates).
    #[must_use]
    pub(crate) fn window_col_names(&self) -> Vec<&str> {
        self.cols
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.starts_with("region_"))
            .collect()
    }
}

/// Renders one telemetry line (no trailing newline).
#[must_use]
pub fn render_entry(entry: &TelemetryEntry) -> String {
    let mut cols = Line::default();
    for (name, values) in &entry.cols {
        cols.f64s(name, values);
    }
    Line::default()
        .hex16("key", entry.key)
        .str("campaign", &entry.campaign)
        .str("label", &entry.label)
        .u64("seed", entry.seed)
        .f64("window_s", entry.window_s)
        .u64("regions_per_axis", entry.regions_per_axis as u64)
        .obj("cols", &cols)
        .finish()
}

/// Parses one telemetry line (the inverse of [`render_entry`]). Malformed
/// lines yield a description; the log loader treats that as "interrupted
/// write, re-run the job". The shape is part of the format: every
/// per-window column has one length and every `region_*` column has
/// `regions_per_axis`² values, so readers may index any column by window
/// or region without checking.
pub fn parse_entry(line: &str) -> Result<TelemetryEntry, String> {
    let line = record::parse(line)?;
    let regions_per_axis: usize = line.int("regions_per_axis")?;
    let regions = regions_per_axis
        .checked_mul(regions_per_axis)
        .ok_or("regions_per_axis out of range")?;
    let fields = line.obj("cols")?;
    let mut cols: Vec<(String, Vec<f64>)> = Vec::new();
    let mut windows = None;
    for name in fields.keys() {
        let values = fields.f64s(name)?;
        let expected = if name.starts_with("region_") {
            regions
        } else {
            *windows.get_or_insert(values.len())
        };
        if values.len() != expected {
            return Err(format!(
                "column {name:?} has {} values, expected {expected}",
                values.len()
            ));
        }
        cols.push((name.to_owned(), values.to_vec()));
    }
    Ok(TelemetryEntry {
        key: line.hex16("key")?,
        campaign: line.str("campaign")?.to_owned(),
        label: line.str("label")?.to_owned(),
        seed: line.int("seed")?,
        window_s: line.f64("window_s")?,
        regions_per_axis,
        cols,
    })
}

/// An open telemetry log: the keys of the entries loaded from disk plus an
/// append handle for streaming new completions.
#[derive(Debug)]
pub struct TelemetryLog {
    keys: HashSet<u64>,
    log: AppendLog,
}

impl TelemetryLog {
    /// Opens (creating if needed) the telemetry log in `dir`, loading the key
    /// of every parseable line of an existing `telemetry.jsonl`. Unparseable
    /// lines are counted and skipped — the matching job re-runs, like a
    /// truncated journal line.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<TelemetryLog> {
        let (log, keys) = AppendLog::open(dir.as_ref(), TELEMETRY_FILE, |text| {
            let (keys, skipped) = record::records(text, |line| parse_entry(line).map(|e| e.key));
            (keys.into_iter().collect(), skipped)
        })?;
        Ok(TelemetryLog { keys, log })
    }

    /// The telemetry file's path.
    #[must_use]
    pub(crate) fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of unparseable lines skipped at open time.
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.log.skipped_lines()
    }

    /// Whether a job's telemetry line survived (the resume check).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Appends one entry under the journal's crash- and shard-safety
    /// contract (`AppendLog::append`).
    pub(crate) fn record(&self, entry: &TelemetryEntry) -> std::io::Result<()> {
        self.log.append(render_entry(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::temp_dir;
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

    #[test]
    fn entry_round_trips_exactly() {
        let e = entry();
        let parsed = parse_entry(&render_entry(&e)).expect("rendered entry parses");
        assert_eq!(parsed, e, "telemetry round-trip must be lossless");
        // Above 2^53 a seed is exact only if never read as f64.
        let mut big = entry();
        big.seed = u64::MAX - 1;
        assert_eq!(parse_entry(&render_entry(&big)), Ok(big));
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

    /// The entries `dir`'s telemetry file holds, in file order, and the
    /// number of its lines that do not parse.
    fn entries_on_disk(dir: &Path) -> (Vec<TelemetryEntry>, usize) {
        let text = std::fs::read_to_string(dir.join(TELEMETRY_FILE)).unwrap();
        record::records(&text, parse_entry)
    }

    #[test]
    fn log_persists_and_recovers_like_the_journal() {
        let dir = temp_dir("basic");
        let log = TelemetryLog::open(&dir).unwrap();
        assert!(!log.contains(entry().key));
        log.record(&entry()).unwrap();
        let mut second = entry();
        second.key = 7;
        log.record(&second).unwrap();
        drop(log);

        let reopened = TelemetryLog::open(&dir).unwrap();
        assert_eq!(reopened.skipped_lines(), 0);
        assert!(reopened.contains(entry().key) && reopened.contains(7));
        assert!(!reopened.contains(8));
        assert_eq!(entries_on_disk(&dir), (vec![entry(), second], 0));
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
        assert!(reopened.contains(entry().key));
        assert_eq!(reopened.skipped_lines(), 1);
        // Appending after the repair starts on a fresh line.
        reopened.record(&entry()).unwrap();
        drop(reopened);
        let again = TelemetryLog::open(&dir).unwrap();
        assert_eq!(again.skipped_lines(), 1);
        assert_eq!(entries_on_disk(&dir), (vec![entry(), entry()], 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
