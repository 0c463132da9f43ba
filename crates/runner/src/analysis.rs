//! `vanet-campaign analyze` — verdicts from campaign artifacts.
//!
//! A campaign directory accumulates two kinds of evidence: per-seed reports
//! in `journal.jsonl` and windowed telemetry in `telemetry.jsonl`. This
//! module reads them back and turns them into conclusions instead of raw
//! numbers:
//!
//! * **significance** (`--journal DIR`): groups the journal's per-seed
//!   reports by cell label and runs pairwise Welch's t-tests on a chosen
//!   metric, reusing the same Student-t machinery as the CI columns in
//!   campaign summaries — the output says which protocol differences are
//!   statistically real at 95% and which are noise;
//! * **time series** (`--timeseries DIR`): projects `telemetry.jsonl` into
//!   the workspace's CSV conventions, one row per (job, window), so the
//!   *when* of a delivery-ratio collapse is plottable; `--regions DIR`
//!   exports the spatial aggregates the same way.
//!
//! Everything here is read-only over artifacts the runner already writes;
//! the analysis can run long after the campaign, on another machine.

use crate::export::csv_quote;
use crate::journal::{self, JOURNAL_FILE};
use crate::record;
use crate::summary::{t_critical_95, SummaryStat, METRIC_NAMES};
use crate::telemetry::{self, TELEMETRY_FILE};
use std::path::Path;
use vanet_core::Report;

/// The outcome of an `analyze` invocation: the rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReport {
    /// Human-readable analysis, table/CSV conventions matching the rest of
    /// the workspace.
    pub text: String,
}

/// Reads one of [`METRIC_NAMES`] off a single report.
#[must_use]
fn metric_value(report: &Report, name: &str) -> Option<f64> {
    let field = Report::FIELDS.iter().find(|field| field.name() == name)?;
    Some(field.value(report))
}

/// The result of one Welch's t-test between two samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The t statistic (positive when the first sample's mean is larger).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Whether |t| exceeds the two-sided 95% critical value at `df`.
    pub significant: bool,
}

/// Welch's unequal-variance t-test between two samples, using the same
/// Student-t table as the campaign CI columns. Returns `None` when either
/// sample has fewer than two values (no variance estimate) or when both
/// variances are zero with equal means (no test to run).
#[must_use]
fn welch_t_test(a: &[f64], b: &[f64]) -> Option<WelchResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var =
        |v: &[f64], m: f64| v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (var(a, ma), var(b, mb));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        // Identical constants on both sides: a zero difference is trivially
        // not significant; a non-zero one is an exact separation.
        let separated = ma != mb;
        return Some(WelchResult {
            t: if separated { f64::INFINITY } else { 0.0 },
            df: (na + nb) - 2.0,
            significant: separated,
        });
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / (va * va / (na * na * (na - 1.0)) + vb * vb / (nb * nb * (nb - 1.0)));
    let critical = t_critical_95((df.floor() as usize).max(1));
    Some(WelchResult {
        t,
        df,
        significant: t.abs() > critical,
    })
}

/// One journal group: a cell label with its per-seed metric values, in
/// ascending seed order.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    label: String,
    values: Vec<f64>,
}

fn load_journal_groups(text: &str, metric: &str) -> Result<Vec<Group>, String> {
    // Group by label, keeping (seed, value) so replicate order is the
    // label's seed order — deterministic regardless of journal line order.
    // Legacy cross-product specs label cells by scenario only, so the same
    // label may cover several protocols — group by (label, protocol) and
    // disambiguate display names only where labels actually collide.
    struct Raw {
        label: String,
        protocol: String,
        seeded: Vec<(u64, f64)>,
    }
    let mut groups: Vec<Raw> = Vec::new();
    // Unreadable lines are skipped — same tolerance as resume.
    for entry in record::records(text, journal::parse_entry).0 {
        let value = metric_value(&entry.report, metric)
            .ok_or_else(|| format!("unknown metric {metric:?} (see METRIC_NAMES)"))?;
        let protocol = entry.report.protocol.clone();
        match groups
            .iter_mut()
            .find(|g| g.label == entry.label && g.protocol == protocol)
        {
            Some(group) => group.seeded.push((entry.seed, value)),
            None => groups.push(Raw {
                label: entry.label,
                protocol,
                seeded: vec![(entry.seed, value)],
            }),
        }
    }
    Ok(groups
        .iter()
        .map(|group| {
            let collides = groups
                .iter()
                .any(|g| g.label == group.label && g.protocol != group.protocol);
            let mut seeded = group.seeded.clone();
            seeded.sort_by_key(|&(seed, _)| seed);
            Group {
                label: if collides {
                    format!("{}/{}", group.label, group.protocol)
                } else {
                    group.label.clone()
                },
                values: seeded.into_iter().map(|(_, v)| v).collect(),
            }
        })
        .collect())
}

fn significance_report(dir: &Path, metric: &str) -> Result<String, String> {
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let quarantines = journal::replay(&text).0.quarantined;
    let groups = load_journal_groups(&text, metric)?;
    if groups.is_empty() && quarantines.is_empty() {
        return Err(format!("{} holds no parseable entries", path.display()));
    }
    let mut out = format!(
        "significance: metric {metric}, {} group(s) from {}\n",
        groups.len(),
        path.display()
    );
    out.push_str(&format!(
        "{:<20} {:>3} {:>12} {:>12} {:>12}\n",
        "label", "n", "mean", "std", "ci95"
    ));
    for group in &groups {
        let stat = SummaryStat::from_values(&group.values).expect("group is non-empty");
        out.push_str(&format!(
            "{:<20} {:>3} {:>12.6} {:>12.6} {:>12.6}\n",
            group.label,
            group.values.len(),
            stat.mean,
            stat.std_dev,
            stat.ci95
        ));
    }
    for i in 0..groups.len() {
        for j in i + 1..groups.len() {
            let (a, b) = (&groups[i], &groups[j]);
            let line = match welch_t_test(&a.values, &b.values) {
                None => format!(
                    "{} vs {}: not enough replications for a test (need >= 2 each)\n",
                    a.label, b.label
                ),
                Some(result) => {
                    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                    format!(
                        "{} vs {}: d_mean={:.6}, t={:.3}, df={:.1} -> {}\n",
                        a.label,
                        b.label,
                        mean(&a.values) - mean(&b.values),
                        result.t,
                        result.df,
                        if result.significant {
                            "SIGNIFICANT at 95%"
                        } else {
                            "not significant at 95%"
                        }
                    )
                }
            };
            out.push_str(&line);
        }
    }
    if !quarantines.is_empty() {
        out.push_str(&format!(
            "quarantined: {} job(s) never produced a report\n",
            quarantines.len()
        ));
        for q in &quarantines {
            out.push_str(&format!(
                "  {} (seed {}): {} attempt(s), last error: {}\n",
                q.label, q.seed, q.attempts, q.error
            ));
        }
    }
    Ok(out)
}

fn timeseries_csv(dir: &Path) -> Result<String, String> {
    let path = dir.join(TELEMETRY_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let (entries, _) = record::records(&text, telemetry::parse_entry);
    if entries.is_empty() {
        return Err(format!("{} holds no parseable entries", path.display()));
    }
    let names = entries[0].window_col_names();
    let mut out = format!("key,label,seed,window,t_s,{}\n", names.join(","));
    for entry in &entries {
        if entry.window_col_names() != names {
            return Err(format!(
                "telemetry entries disagree on columns (key {:016x})",
                entry.key
            ));
        }
        for window in 0..entry.window_count() {
            let mut row = format!(
                "{:016x},{},{},{},{}",
                entry.key,
                csv_quote(&entry.label),
                entry.seed,
                window,
                window as f64 * entry.window_s
            );
            for name in &names {
                let col = entry.col(name).expect("column names came from this entry");
                row.push(',');
                row.push_str(&col[window].to_string());
            }
            out.push_str(&row);
            out.push('\n');
        }
    }
    Ok(out)
}

fn regions_csv(dir: &Path) -> Result<String, String> {
    let path = dir.join(TELEMETRY_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let mut out = "key,label,seed,region,rx,ry,sent,received,drops\n".to_owned();
    let mut any = false;
    for entry in record::records(&text, telemetry::parse_entry).0 {
        let (sent, received, drops) = match (
            entry.col("region_sent"),
            entry.col("region_received"),
            entry.col("region_drops"),
        ) {
            (Some(s), Some(r), Some(d)) => (s, r, d),
            _ => continue,
        };
        let per_axis = entry.regions_per_axis.max(1);
        for region in 0..sent.len() {
            any = true;
            out.push_str(&format!(
                "{:016x},{},{},{},{},{},{},{},{}\n",
                entry.key,
                csv_quote(&entry.label),
                entry.seed,
                region,
                region % per_axis,
                region / per_axis,
                sent[region],
                received[region],
                drops[region],
            ));
        }
    }
    if !any {
        return Err(format!("{} holds no parseable entries", path.display()));
    }
    Ok(out)
}

const USAGE: &str = "\
vanet-campaign analyze — verdicts from campaign artifacts

  analyze --journal DIR [--metric NAME]   pairwise Welch significance tests
                                          over the journal's per-seed reports
                                          (default metric: delivery_ratio)
  analyze --timeseries DIR                windowed telemetry as CSV
  analyze --regions DIR                   per-region telemetry as CSV

Modes compose: each requested section is appended to the output.";

/// Runs the `analyze` subcommand over its argument list (everything after
/// the literal `analyze`). Returns the rendered report or a usage/IO error.
pub fn run_analyze(args: &[String]) -> Result<AnalyzeReport, String> {
    let mut journal_dir: Option<String> = None;
    let mut timeseries_dir: Option<String> = None;
    let mut regions_dir: Option<String> = None;
    let mut metric = "delivery_ratio".to_owned();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--journal" => journal_dir = Some(value("--journal")?),
            "--timeseries" => timeseries_dir = Some(value("--timeseries")?),
            "--regions" => regions_dir = Some(value("--regions")?),
            "--metric" => metric = value("--metric")?,
            "--help" | "-h" => {
                return Ok(AnalyzeReport {
                    text: USAGE.to_owned(),
                })
            }
            other => return Err(format!("unknown analyze flag {other:?}\n\n{USAGE}")),
        }
    }
    if !METRIC_NAMES.contains(&metric.as_str()) {
        return Err(format!("unknown metric {metric:?} (see METRIC_NAMES)"));
    }

    let mut sections: Vec<String> = Vec::new();
    if let Some(dir) = &journal_dir {
        sections.push(significance_report(Path::new(dir), &metric)?);
    }
    if let Some(dir) = &timeseries_dir {
        sections.push(timeseries_csv(Path::new(dir))?);
    }
    if let Some(dir) = &regions_dir {
        sections.push(regions_csv(Path::new(dir))?);
    }
    if sections.is_empty() {
        return Err(format!("nothing to analyze\n\n{USAGE}"));
    }
    Ok(AnalyzeReport {
        text: sections.join("\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_separates_clearly_different_samples() {
        let a = [0.9, 0.92, 0.91, 0.89, 0.9];
        let b = [0.5, 0.52, 0.49, 0.51, 0.5];
        let result = welch_t_test(&a, &b).unwrap();
        assert!(result.significant, "clear separation must be significant");
        assert!(result.t > 0.0, "first mean is larger");

        let same = welch_t_test(&a, &a).unwrap();
        assert!(!same.significant, "a sample is never different from itself");
        assert!(same.t.abs() < 1e-9);
    }

    #[test]
    fn welch_handles_degenerate_samples() {
        assert_eq!(welch_t_test(&[1.0], &[2.0, 3.0]), None);
        let constant = welch_t_test(&[0.5, 0.5], &[0.5, 0.5]).unwrap();
        assert!(!constant.significant);
        let separated = welch_t_test(&[0.5, 0.5], &[0.7, 0.7]).unwrap();
        assert!(separated.significant);
        assert!(separated.t.is_infinite());
    }

    #[test]
    fn welch_respects_noise() {
        // Overlapping noisy samples with nearly equal means: no verdict.
        let a = [0.50, 0.70, 0.45, 0.65, 0.55];
        let b = [0.52, 0.68, 0.47, 0.63, 0.58];
        let result = welch_t_test(&a, &b).unwrap();
        assert!(!result.significant, "t={} df={}", result.t, result.df);
    }

    #[test]
    fn metric_values_cover_every_metric_name() {
        let report = vanet_core::Metrics::new().report("X", "y");
        for name in METRIC_NAMES {
            assert!(
                metric_value(&report, name).is_some(),
                "metric {name} unmapped"
            );
        }
        assert_eq!(metric_value(&report, "nope"), None);
    }

    #[test]
    fn unknown_flags_and_metrics_are_rejected() {
        let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|x| (*x).to_owned()).collect() };
        assert!(run_analyze(&argv(&["--frobnicate"])).is_err());
        for removed in ["--bench-trend", "--gate-ratio", "--rss-gate-ratio"] {
            let message = run_analyze(&argv(&[removed, "x"])).unwrap_err();
            assert!(message.contains("unknown analyze flag"), "{message}");
        }
        assert!(run_analyze(&argv(&["--journal", "/nonexistent", "--metric", "nope"])).is_err());
        assert!(run_analyze(&argv(&[])).is_err());
        let help = run_analyze(&argv(&["--help"])).unwrap();
        assert!(help.text.contains("analyze"));
    }

    #[test]
    fn journal_analysis_reports_quarantined_jobs() {
        use crate::journal::{render_entry, render_quarantine, JournalEntry, QuarantineEntry};
        let dir = std::env::temp_dir().join(format!("vanet-quarantine-sig-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = vanet_core::Metrics::new().report("FLOOD", "hw");
        let entry = |key: u64, seed: u64| JournalEntry {
            key,
            campaign: "c".to_owned(),
            label: "hw".to_owned(),
            seed,
            report: report.clone(),
        };
        let quarantine = |key: u64, seed: u64| QuarantineEntry {
            key,
            campaign: "c".to_owned(),
            label: "bad".to_owned(),
            seed,
            attempts: 2,
            backoff_s: vec![1.0],
            error: "poison fault fired".to_owned(),
        };
        let lines = [
            render_entry(&entry(1, 10)),
            render_entry(&entry(2, 11)),
            render_quarantine(&quarantine(3, 12)),
            // Healed: a later report supersedes this quarantine.
            render_quarantine(&quarantine(4, 13)),
            render_entry(&entry(4, 13)),
        ];
        std::fs::write(dir.join(JOURNAL_FILE), format!("{}\n", lines.join("\n"))).unwrap();
        let report = run_analyze(&["--journal".to_owned(), dir.display().to_string()]).unwrap();
        assert!(
            report.text.contains("quarantined: 1 job(s)"),
            "{}",
            report.text
        );
        assert!(report.text.contains("bad (seed 12): 2 attempt(s)"));
        assert!(report.text.contains("poison fault fired"));

        // A journal holding only quarantines still renders (no groups).
        std::fs::write(
            dir.join(JOURNAL_FILE),
            format!("{}\n", render_quarantine(&quarantine(9, 1))),
        )
        .unwrap();
        let only = run_analyze(&["--journal".to_owned(), dir.display().to_string()]).unwrap();
        assert!(only.text.contains("0 group(s)"), "{}", only.text);
        assert!(only.text.contains("quarantined: 1 job(s)"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
