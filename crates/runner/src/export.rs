//! Campaign result exports: fixed-width tables, CSV and JSONL.
//!
//! CSV and JSONL are written *and* parsed here (the environment has no serde
//! runtime, so the JSON emitter/parser is a self-contained ~100-line
//! recursive-descent affair). Render → parse is lossless for every statistic:
//! floats are formatted with Rust's shortest-round-trip `Display`, so
//! `parse(render(r))` reproduces the exact same bits — the round-trip
//! integration tests rely on that.

use crate::campaign::protocol_by_name;
use crate::engine::{CampaignResults, CellSummary};
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

pub(crate) fn malformed(line: usize, reason: impl Into<String>) -> ExportError {
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
        let s = &cell.summary;
        out.push_str(&format!(
            "{:<18} {:<10} {:>3} {:>7.3} {:>7.3} {:>9.1} {:>8.1} {:>7.2} {:>10.1} {:>9.1}\n",
            cell.label,
            cell.protocol.name(),
            s.replications,
            s.delivery_ratio.mean,
            s.delivery_ratio.ci95,
            s.avg_delay_s.mean * 1e3,
            s.avg_delay_s.ci95 * 1e3,
            s.avg_hops.mean,
            s.control_per_delivered.mean,
            s.transmissions_per_delivered.mean,
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
fn csv_quote(field: &str) -> String {
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

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_stat(stat: &SummaryStat) -> String {
    format!(
        "{{\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{},\"ci95\":{}}}",
        stat.mean, stat.std_dev, stat.min, stat.max, stat.ci95
    )
}

/// Renders every cell as one JSON object per line.
#[must_use]
pub fn render_jsonl(results: &CampaignResults) -> String {
    let mut out = String::new();
    for cell in &results.cells {
        let metrics: Vec<String> = cell
            .summary
            .metrics()
            .into_iter()
            .map(|(name, stat)| format!("\"{name}\":{}", json_stat(stat)))
            .collect();
        out.push_str(&format!(
            "{{\"campaign\":\"{}\",\"label\":\"{}\",\"scenario\":\"{}\",\"protocol\":\"{}\",\"replications\":{},\"metrics\":{{{}}}}}\n",
            json_escape(&results.campaign),
            json_escape(&cell.label),
            json_escape(&cell.scenario),
            json_escape(cell.protocol.name()),
            cell.summary.replications,
            metrics.join(",")
        ));
    }
    out
}

/// A parsed JSON value (the subset JSONL exports, journals and telemetry
/// logs use).
pub(crate) enum Json {
    /// A token of digits only that fits `u64`, kept exact.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            // Nearest-even, exactly what parsing the same digits as `f64` gives.
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A non-negative integer, exactly: seeds and counters above 2^53 do not
    /// survive a trip through `f64`, and `-1`, `1.5` or `1e3` in an integer
    /// field is a malformed line, not a value to round.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to an index or a count.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A minimal recursive-descent JSON parser over the export subset
/// (objects, arrays, strings, numbers).
pub(crate) struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            // Booleans surface as numbers (1/0): nothing in the export subset
            // needs to distinguish `true` from `1` on the read path.
            Some(b't') => self.literal(b"true", Json::Num(1.0)),
            Some(b'f') => self.literal(b"false", Json::Num(0.0)),
            other => Err(format!("unexpected token {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match token.parse::<u64>() {
            Ok(n) => Ok(Json::Int(n)),
            Err(_) => token
                .parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}")),
        }
    }
}

/// Parses a JSONL export produced by [`render_jsonl`].
pub fn parse_jsonl(input: &str) -> Result<ParsedCampaign, ExportError> {
    let mut campaign = None;
    let mut cells = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let mut parser = JsonParser::new(line);
        let value = parser.value().map_err(|e| malformed(lineno, e))?;
        let field_str = |key: &str| -> Result<String, ExportError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| malformed(lineno, format!("missing string field {key:?}")))
        };
        campaign.get_or_insert(field_str("campaign")?);
        let protocol_name = field_str("protocol")?;
        let protocol = protocol_by_name(&protocol_name)
            .ok_or_else(|| malformed(lineno, format!("unknown protocol {protocol_name:?}")))?;
        let replications = value
            .get("replications")
            .and_then(Json::as_usize)
            .ok_or_else(|| malformed(lineno, "missing replications"))?;
        let metrics = value
            .get("metrics")
            .ok_or_else(|| malformed(lineno, "missing metrics object"))?;
        let mut summary = Summary {
            replications,
            ..Summary::default()
        };
        for metric in METRIC_NAMES {
            let obj = metrics
                .get(metric)
                .ok_or_else(|| malformed(lineno, format!("missing metric {metric:?}")))?;
            let num = |key: &str| -> Result<f64, ExportError> {
                obj.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed(lineno, format!("missing {metric}.{key}")))
            };
            *summary
                .metric_mut(metric)
                .expect("METRIC_NAMES is exhaustive") = SummaryStat {
                mean: num("mean")?,
                std_dev: num("std_dev")?,
                min: num("min")?,
                max: num("max")?,
                ci95: num("ci95")?,
            };
        }
        cells.push(CellSummary {
            label: field_str("label")?,
            scenario: field_str("scenario")?,
            protocol,
            summary,
        });
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
        for bad in ["-1", "1.5", "1e3"] {
            let text = render_jsonl(&results)
                .replace("\"replications\":3", &format!("\"replications\":{bad}"));
            assert!(parse_jsonl(&text).is_err(), "replications {bad}");
        }
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
