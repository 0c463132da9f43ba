//! Campaign result exports: fixed-width tables, CSV and JSONL.
//!
//! CSV and JSONL are written *and* parsed here; a JSONL line is one cell,
//! read and written through [`crate::record`]. Render → parse is lossless
//! for every statistic: floats are formatted with Rust's shortest-round-trip
//! `Display`, so `parse(render(r))` reproduces the exact same bits — the
//! round-trip integration tests rely on that.

use crate::campaign::protocol_by_name;
use crate::engine::{CampaignResults, CellSummary};
use crate::record::{self, Line};
use crate::summary::{Summary, SummaryStat, METRIC_NAMES};

/// A campaign reconstructed from an export (no execution metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCampaign {
    /// The campaign name recorded in the export.
    pub campaign: String,
    /// The aggregated cells, in export order.
    pub cells: Vec<CellSummary>,
}

/// Errors produced when parsing a CSV or JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportError {
    /// The input was empty or had no data rows.
    Empty,
    /// A structural problem at the given line (1-based), with a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Empty => write!(f, "export contains no data rows"),
            ExportError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

fn malformed(line: usize, reason: impl Into<String>) -> ExportError {
    ExportError::Malformed {
        line,
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------- table --

/// Renders the headline metrics of every cell as a fixed-width table.
#[must_use]
pub fn render_table(results: &CampaignResults) -> String {
    let mut out = format!(
        "campaign '{}': {} cells, {} runs, {} workers, {:.2}s\n",
        results.campaign,
        results.cells.len(),
        results.total_runs(),
        results.workers,
        results.elapsed.as_secs_f64()
    );
    out.push_str(&format!(
        "{:<18} {:<10} {:>3} {:>7} {:>7} {:>9} {:>8} {:>7} {:>10} {:>9}\n",
        "label",
        "protocol",
        "n",
        "pdr",
        "±ci95",
        "delay_ms",
        "±ci95",
        "hops",
        "ctrl/dlvd",
        "tx/dlvd"
    ));
    for cell in &results.cells {
        let stat = |name: &str| cell.summary.metric(name).expect("a METRIC_NAMES entry");
        out.push_str(&format!(
            "{:<18} {:<10} {:>3} {:>7.3} {:>7.3} {:>9.1} {:>8.1} {:>7.2} {:>10.1} {:>9.1}\n",
            cell.label,
            cell.protocol.name(),
            cell.summary.replications,
            stat("delivery_ratio").mean,
            stat("delivery_ratio").ci95,
            stat("avg_delay_s").mean * 1e3,
            stat("avg_delay_s").ci95 * 1e3,
            stat("avg_hops").mean,
            stat("control_per_delivered").mean,
            stat("transmissions_per_delivered").mean,
        ));
    }
    if !results.quarantined.is_empty() {
        out.push_str(&format!(
            "quarantined: {} job(s) panicked on every allowed attempt\n",
            results.quarantined.len()
        ));
        for q in &results.quarantined {
            out.push_str(&format!(
                "  {} {} (seed {}): {} attempt(s), last error: {}\n",
                q.label,
                q.protocol.name(),
                q.seed,
                q.attempts,
                q.error,
            ));
        }
    }
    out
}

// ------------------------------------------------------------------ csv --

/// The CSV header matching [`render_csv`].
#[must_use]
pub fn csv_header() -> String {
    let mut cols = vec![
        "campaign".to_owned(),
        "label".to_owned(),
        "scenario".to_owned(),
        "protocol".to_owned(),
        "replications".to_owned(),
    ];
    for metric in METRIC_NAMES {
        for stat in ["mean", "std", "min", "max", "ci95"] {
            cols.push(format!("{metric}_{stat}"));
        }
    }
    cols.join(",")
}

/// Quotes a CSV field when it contains a comma, quote or newline
/// (RFC 4180: wrap in quotes, double any embedded quotes).
pub(crate) fn csv_quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Splits one CSV line into fields, honouring RFC 4180 quoting.
fn csv_split(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if current.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    fields.push(current);
    fields
}

/// Renders every cell as one CSV row (header included). Names containing
/// commas or quotes are RFC 4180-quoted.
#[must_use]
pub fn render_csv(results: &CampaignResults) -> String {
    let mut out = csv_header();
    out.push('\n');
    for cell in &results.cells {
        let mut row = vec![
            csv_quote(&results.campaign),
            csv_quote(&cell.label),
            csv_quote(&cell.scenario),
            cell.protocol.name().to_owned(),
            cell.summary.replications.to_string(),
        ];
        for (_, stat) in cell.summary.metrics() {
            row.push(stat.mean.to_string());
            row.push(stat.std_dev.to_string());
            row.push(stat.min.to_string());
            row.push(stat.max.to_string());
            row.push(stat.ci95.to_string());
        }
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Parses a CSV export produced by [`render_csv`].
pub fn parse_csv(input: &str) -> Result<ParsedCampaign, ExportError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or(ExportError::Empty)?;
    if header != csv_header() {
        return Err(malformed(1, "unrecognised CSV header"));
    }
    let mut campaign = None;
    let mut cells = Vec::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields = csv_split(line);
        let expected = 5 + METRIC_NAMES.len() * 5;
        if fields.len() != expected {
            return Err(malformed(
                lineno,
                format!("expected {expected} fields, found {}", fields.len()),
            ));
        }
        campaign.get_or_insert_with(|| fields[0].to_owned());
        let protocol = protocol_by_name(&fields[3])
            .ok_or_else(|| malformed(lineno, format!("unknown protocol {:?}", fields[3])))?;
        let replications: usize = fields[4]
            .parse()
            .map_err(|_| malformed(lineno, "bad replication count"))?;
        let mut summary = Summary {
            replications,
            ..Summary::default()
        };
        for (m, metric) in METRIC_NAMES.iter().enumerate() {
            let base = 5 + m * 5;
            let parse = |i: usize| -> Result<f64, ExportError> {
                fields[i]
                    .parse()
                    .map_err(|_| malformed(lineno, format!("bad number {:?}", fields[i])))
            };
            *summary
                .metric_mut(metric)
                .expect("METRIC_NAMES is exhaustive") = SummaryStat {
                mean: parse(base)?,
                std_dev: parse(base + 1)?,
                min: parse(base + 2)?,
                max: parse(base + 3)?,
                ci95: parse(base + 4)?,
            };
        }
        cells.push(CellSummary {
            label: fields[1].to_owned(),
            scenario: fields[2].to_owned(),
            protocol,
            summary,
        });
    }
    Ok(ParsedCampaign {
        campaign: campaign.ok_or(ExportError::Empty)?,
        cells,
    })
}

// ---------------------------------------------------------------- jsonl --

/// Renders every cell as one JSON object per line.
#[must_use]
pub fn render_jsonl(results: &CampaignResults) -> String {
    let mut out = String::new();
    for cell in &results.cells {
        let mut metrics = Line::default();
        for (name, stat) in cell.summary.metrics() {
            metrics.obj(
                name,
                Line::default()
                    .f64("mean", stat.mean)
                    .f64("std_dev", stat.std_dev)
                    .f64("min", stat.min)
                    .f64("max", stat.max)
                    .f64("ci95", stat.ci95),
            );
        }
        let line = Line::default()
            .str("campaign", &results.campaign)
            .str("label", &cell.label)
            .str("scenario", &cell.scenario)
            .str("protocol", cell.protocol.name())
            .u64("replications", cell.summary.replications as u64)
            .obj("metrics", &metrics)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn parse_cell(line: &str) -> Result<(String, CellSummary), String> {
    let line = record::parse(line)?;
    let protocol_name = line.str("protocol")?;
    let protocol = protocol_by_name(protocol_name)
        .ok_or_else(|| format!("unknown protocol {protocol_name:?}"))?;
    let metrics = line.obj("metrics")?;
    let mut summary = Summary {
        replications: line.int("replications")?,
        ..Summary::default()
    };
    for metric in METRIC_NAMES {
        let stat = metrics.obj(metric)?;
        *summary
            .metric_mut(metric)
            .expect("METRIC_NAMES is exhaustive") = SummaryStat {
            mean: stat.f64("mean")?,
            std_dev: stat.f64("std_dev")?,
            min: stat.f64("min")?,
            max: stat.f64("max")?,
            ci95: stat.f64("ci95")?,
        };
    }
    let cell = CellSummary {
        label: line.str("label")?.to_owned(),
        scenario: line.str("scenario")?.to_owned(),
        protocol,
        summary,
    };
    Ok((line.str("campaign")?.to_owned(), cell))
}

/// Parses a JSONL export produced by [`render_jsonl`].
pub fn parse_jsonl(input: &str) -> Result<ParsedCampaign, ExportError> {
    let mut campaign = None;
    let mut cells = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (name, cell) = parse_cell(line).map_err(|reason| malformed(idx + 1, reason))?;
        campaign.get_or_insert(name);
        cells.push(cell);
    }
    Ok(ParsedCampaign {
        campaign: campaign.ok_or(ExportError::Empty)?,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vanet_core::ProtocolKind;

    fn fake_results() -> CampaignResults {
        let mut summary = Summary {
            replications: 3,
            ..Summary::default()
        };
        *summary.metric_mut("delivery_ratio").unwrap() = SummaryStat {
            mean: 0.75,
            std_dev: 0.1,
            min: 0.6,
            max: 0.9,
            ci95: 0.248,
        };
        *summary.metric_mut("avg_delay_s").unwrap() = SummaryStat {
            mean: 0.012_345_678_9,
            std_dev: 1e-4,
            min: 0.011,
            max: 0.013,
            ci95: 2.5e-4,
        };
        CampaignResults {
            campaign: "fake".to_owned(),
            workers: 4,
            elapsed: Duration::from_millis(1),
            executed_jobs: 6,
            cached_jobs: 0,
            cells: vec![
                CellSummary {
                    label: "hw".to_owned(),
                    scenario: "highway-30".to_owned(),
                    protocol: ProtocolKind::Aodv,
                    summary: summary.clone(),
                },
                CellSummary {
                    label: "urb".to_owned(),
                    scenario: "urban-25".to_owned(),
                    protocol: ProtocolKind::Greedy,
                    summary,
                },
            ],
            quarantined: Vec::new(),
        }
    }

    #[test]
    fn csv_round_trips_exactly() {
        let results = fake_results();
        let parsed = parse_csv(&render_csv(&results)).unwrap();
        assert_eq!(parsed.campaign, "fake");
        assert_eq!(parsed.cells, results.cells);
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let results = fake_results();
        let parsed = parse_jsonl(&render_jsonl(&results)).unwrap();
        assert_eq!(parsed.campaign, "fake");
        assert_eq!(parsed.cells, results.cells);
    }

    #[test]
    fn table_mentions_every_cell() {
        let text = render_table(&fake_results());
        assert!(text.contains("AODV") && text.contains("Greedy"));
        assert!(text.contains("hw") && text.contains("urb"));
        assert!(!text.contains("quarantined"), "no footer without failures");
    }

    #[test]
    fn table_reports_quarantined_jobs() {
        let mut results = fake_results();
        results.quarantined.push(crate::QuarantinedJob {
            label: "bad".to_owned(),
            protocol: ProtocolKind::Aodv,
            seed: 9,
            attempts: 3,
            error: "poison fault fired at 1.000s".to_owned(),
        });
        let text = render_table(&results);
        assert!(text.contains("quarantined: 1 job(s)"));
        assert!(text.contains("bad AODV (seed 9): 3 attempt(s)"));
        assert!(text.contains("poison fault fired"));
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        assert_eq!(parse_csv(""), Err(ExportError::Empty));
        let err = parse_csv("not,a,header\n").unwrap_err();
        assert!(matches!(err, ExportError::Malformed { line: 1, .. }));
        let err = parse_jsonl("{\"campaign\":\"x\"}\n").unwrap_err();
        assert!(matches!(err, ExportError::Malformed { line: 1, .. }));
        let err = parse_jsonl("{oops\n").unwrap_err();
        assert!(matches!(err, ExportError::Malformed { line: 1, .. }));
    }

    #[test]
    fn json_escaping_survives_round_trip() {
        let mut results = fake_results();
        results.campaign = "we\"ird\\name\twith\nnews".to_owned();
        let parsed = parse_jsonl(&render_jsonl(&results)).unwrap();
        assert_eq!(parsed.campaign, results.campaign);
    }

    #[test]
    fn csv_quoting_survives_round_trip() {
        let mut results = fake_results();
        results.campaign = "sweep, with \"quotes\"".to_owned();
        results.cells[0].label = "highway, dense".to_owned();
        let parsed = parse_csv(&render_csv(&results)).unwrap();
        assert_eq!(parsed.campaign, results.campaign);
        assert_eq!(parsed.cells, results.cells);
    }
}
