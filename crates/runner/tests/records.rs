//! Byte pins and one mutation corpus for the five JSONL record kinds of the
//! campaign layer — journal entry, quarantine, telemetry entry, manifest
//! entry, export cell — all of which go through `vanet_runner::record`.
//!
//! The pins were captured from the renderers as they stood *before* the
//! shared codec existed (the four hand-rolled ones, at 6da25b7), so
//! `render == pin` is "the bytes did not move" and `parse(pin) == value` is
//! "files written by older binaries still load". Everything else here is a
//! line that must be an `Err`: never a panic, never a record.

use std::time::Duration;
use vanet_core::{
    BundleOp, MediumStats, Position, ProtocolKind, Report, ReportField, Telemetry as _, WindowedTap,
};
use vanet_runner::journal::{self, Journal, JournalEntry, QuarantineEntry};
use vanet_runner::manifest::{self, ManifestEntry};
use vanet_runner::telemetry::{self, TelemetryEntry, TelemetryLog};
use vanet_runner::{
    parse_jsonl, render_jsonl, run_analyze, CampaignResults, CellSummary, Summary, JOURNAL_FILE,
    TELEMETRY_FILE,
};
use vanet_sim::{SimDuration, SimTime};

/// Above 2^53: exact only if never read through `f64`.
const BIG: u64 = (1 << 53) + 1;

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
        control_bytes: BIG,
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

fn journal_entry() -> JournalEntry {
    JournalEntry {
        key: 0x0123_4567_89ab_cdef,
        campaign: "test \"quoted\"".to_owned(),
        label: "hw,dense".to_owned(),
        seed: BIG,
        report: report(),
    }
}

fn quarantine_entry() -> QuarantineEntry {
    QuarantineEntry {
        key: 0xdead_beef_0000_0001,
        campaign: "chaos \\ \"q\"".to_owned(),
        label: "hw,dense".to_owned(),
        seed: u64::MAX - 1,
        attempts: 3,
        backoff_s: vec![1.0, 2.0, 4.0],
        error: "poison fault fired at 1.000s\tin scenario 'hw'".to_owned(),
    }
}

fn sample_tap() -> WindowedTap {
    let mut tap = WindowedTap::new(SimDuration::from_secs(0.5), 2);
    tap.on_start(
        Position::new(0.0, 0.0),
        Position::new(100.0, 100.0),
        SimDuration::from_secs(1.0),
    );
    let medium = MediumStats::default();
    tap.on_event(SimTime::from_secs(0.25), &medium);
    tap.on_origination(SimTime::from_secs(0.25));
    tap.on_transmit(SimTime::from_secs(0.25), Position::new(5.0, 5.0), 64, false);
    tap.on_event(SimTime::from_secs(0.75), &medium);
    tap.on_delivery(SimTime::from_secs(0.75), 0.012_345_678_9);
    tap.on_bundle(SimTime::from_secs(0.75), BundleOp::Stored, 2);
    tap.on_finish(SimTime::from_secs(1.0), &medium);
    tap
}

fn telemetry_entry() -> TelemetryEntry {
    TelemetryEntry::from_tap(
        0xfeed_beef_1234_5678,
        "camp \"q\"",
        "hw,dense",
        BIG,
        &sample_tap(),
    )
}

fn manifest_entry() -> ManifestEntry {
    ManifestEntry {
        cell: 1,
        campaign: "manifest \"test\"".to_owned(),
        label: "hw,dense".to_owned(),
        protocol: "AODV".to_owned(),
        scenario: "highway-10".to_owned(),
        hash: 0x00ab_cdef_0123_4567,
    }
}

fn export_results() -> CampaignResults {
    let mut second = report();
    second.data_sent = 44;
    second.delivery_ratio = 0.5;
    second.avg_delay_s = 0.25;
    CampaignResults {
        campaign: "fake \"q\"".to_owned(),
        workers: 1,
        elapsed: Duration::ZERO,
        executed_jobs: 2,
        cached_jobs: 0,
        cells: vec![CellSummary {
            label: "hw,dense".to_owned(),
            scenario: "highway-20".to_owned(),
            protocol: ProtocolKind::Aodv,
            summary: Summary::from_reports(&[report(), second]).expect("two reports"),
        }],
        quarantined: Vec::new(),
    }
}

const JOURNAL_PIN: &str = r#"{"key":"0123456789abcdef","campaign":"test \"quoted\"","label":"hw,dense","seed":9007199254740993,"report":{"protocol":"AODV","scenario":"highway-20","data_sent":40,"data_delivered":31,"duplicate_deliveries":2,"delivery_ratio":0.775,"avg_delay_s":0.0123456789012345,"max_delay_s":0.9,"avg_hops":2.5,"control_packets":120,"control_bytes":9007199254740993,"data_transmissions":77,"control_per_delivered":3.870967741935484,"transmissions_per_delivered":6.354838709677419,"route_errors":4,"drops":9,"avg_neighbors":5.333333333333333,"bundles_stored":6,"bundles_forwarded":3,"bundles_expired":1,"bundles_evicted":2,"custody_transfers":3,"buffer_peak":5}}"#;
const QUARANTINE_PIN: &str = r#"{"key":"deadbeef00000001","quarantined":true,"campaign":"chaos \\ \"q\"","label":"hw,dense","seed":18446744073709551614,"attempts":3,"backoff_s":[1,2,4],"error":"poison fault fired at 1.000s\tin scenario 'hw'"}"#;
const TELEMETRY_PIN: &str = r#"{"key":"feedbeef12345678","campaign":"camp \"q\"","label":"hw,dense","seed":9007199254740993,"window_s":0.5,"regions_per_axis":2,"cols":{"originations":[1,0,0],"deliveries":[0,1,0],"delay_sum_s":[0,0.0123456789,0],"sent_data":[1,0,0],"sent_control":[0,0,0],"bytes_sent":[64,0,0],"received":[0,0,0],"drop_ttl_expired":[0,0,0],"drop_no_route":[0,0,0],"drop_local_maximum":[0,0,0],"drop_duplicate":[0,0,0],"drop_buffer_overflow":[0,0,0],"drop_expired":[0,0,0],"drop_out_of_zone":[0,0,0],"drop_not_for_me":[0,0,0],"fault_drops":[0,0,0],"outages":[0,0,0],"neighbors_lost":[0,0,0],"neighbors_gained":[0,0,0],"medium_transmissions":[0,0,0],"medium_deliveries":[0,0,0],"medium_propagation_losses":[0,0,0],"medium_collision_losses":[0,0,0],"medium_fault_losses":[0,0,0],"medium_bytes":[0,0,0],"bundles_stored":[0,1,0],"bundles_forwarded":[0,0,0],"bundles_expired":[0,0,0],"bundles_evicted":[0,0,0],"custody_transfers":[0,0,0],"buffer_peak":[0,2,0],"region_sent":[1,0,0,0],"region_received":[0,0,0,0],"region_drops":[0,0,0,0]}}"#;
const MANIFEST_PIN: &str = r#"{"cell":1,"campaign":"manifest \"test\"","label":"hw,dense","protocol":"AODV","scenario":"highway-10","hash":"00abcdef01234567"}"#;
const EXPORT_PIN: &str = r#"{"campaign":"fake \"q\"","label":"hw,dense","scenario":"highway-20","protocol":"AODV","replications":2,"metrics":{"data_sent":{"mean":42,"std_dev":2.8284271247461903,"min":40,"max":44,"ci95":25.412},"data_delivered":{"mean":31,"std_dev":0,"min":31,"max":31,"ci95":0},"duplicate_deliveries":{"mean":2,"std_dev":0,"min":2,"max":2,"ci95":0},"delivery_ratio":{"mean":0.6375,"std_dev":0.19445436482630057,"min":0.5,"max":0.775,"ci95":1.747075},"avg_delay_s":{"mean":0.13117283945061725,"std_dev":0.1680469820272223,"min":0.0123456789012345,"max":0.25,"ci95":1.5098179019404572},"max_delay_s":{"mean":0.9,"std_dev":0,"min":0.9,"max":0.9,"ci95":0},"avg_hops":{"mean":2.5,"std_dev":0,"min":2.5,"max":2.5,"ci95":0},"control_packets":{"mean":120,"std_dev":0,"min":120,"max":120,"ci95":0},"control_bytes":{"mean":9007199254740992,"std_dev":0,"min":9007199254740992,"max":9007199254740992,"ci95":0},"data_transmissions":{"mean":77,"std_dev":0,"min":77,"max":77,"ci95":0},"control_per_delivered":{"mean":3.870967741935484,"std_dev":0,"min":3.870967741935484,"max":3.870967741935484,"ci95":0},"transmissions_per_delivered":{"mean":6.354838709677419,"std_dev":0,"min":6.354838709677419,"max":6.354838709677419,"ci95":0},"route_errors":{"mean":4,"std_dev":0,"min":4,"max":4,"ci95":0},"drops":{"mean":9,"std_dev":0,"min":9,"max":9,"ci95":0},"avg_neighbors":{"mean":5.333333333333333,"std_dev":0,"min":5.333333333333333,"max":5.333333333333333,"ci95":0},"bundles_stored":{"mean":6,"std_dev":0,"min":6,"max":6,"ci95":0},"bundles_forwarded":{"mean":3,"std_dev":0,"min":3,"max":3,"ci95":0},"bundles_expired":{"mean":1,"std_dev":0,"min":1,"max":1,"ci95":0},"bundles_evicted":{"mean":2,"std_dev":0,"min":2,"max":2,"ci95":0},"custody_transfers":{"mean":3,"std_dev":0,"min":3,"max":3,"ci95":0},"buffer_peak":{"mean":5,"std_dev":0,"min":5,"max":5,"ci95":0}}}"#;

#[test]
fn rendered_bytes_match_the_pre_codec_pins_and_the_pins_parse_back() {
    assert_eq!(journal::render_entry(&journal_entry()), JOURNAL_PIN);
    assert_eq!(journal::parse_entry(JOURNAL_PIN), Ok(journal_entry()));
    assert_eq!(
        journal::render_quarantine(&quarantine_entry()),
        QUARANTINE_PIN
    );
    assert_eq!(
        journal::parse_quarantine(QUARANTINE_PIN),
        Ok(quarantine_entry())
    );
    assert_eq!(telemetry::render_entry(&telemetry_entry()), TELEMETRY_PIN);
    assert_eq!(telemetry::parse_entry(TELEMETRY_PIN), Ok(telemetry_entry()));
    assert_eq!(manifest::render_entry(&manifest_entry()), MANIFEST_PIN);
    assert_eq!(manifest::parse_entry(MANIFEST_PIN), Ok(manifest_entry()));
    assert_eq!(render_jsonl(&export_results()), format!("{EXPORT_PIN}\n"));
    let parsed = parse_jsonl(EXPORT_PIN).expect("the export pin parses");
    assert_eq!(parsed.campaign, export_results().campaign);
    assert_eq!(parsed.cells, export_results().cells);
    // A report line and a quarantine line are never mistaken for each other.
    assert!(journal::parse_entry(QUARANTINE_PIN).is_err());
    assert!(journal::parse_quarantine(JOURNAL_PIN).is_err());
}

/// One record kind for the mutation corpus: its pinned line, its parser,
/// the text right before each of its integer tokens and before one float.
struct Kind {
    name: &'static str,
    pin: &'static str,
    parses: fn(&str) -> bool,
    integers: Vec<String>,
    float: Option<&'static str>,
}

fn kinds() -> Vec<Kind> {
    let field = |name: &str| format!("\"{name}\":");
    let mut journal_integers = vec![field("seed")];
    for report_field in &Report::FIELDS {
        if let ReportField::Count(name, ..) = report_field {
            journal_integers.push(field(name));
        }
    }
    vec![
        Kind {
            name: "journal entry",
            pin: JOURNAL_PIN,
            parses: |line| journal::parse_entry(line).is_ok(),
            integers: journal_integers,
            float: Some("\"delivery_ratio\":"),
        },
        Kind {
            name: "quarantine",
            pin: QUARANTINE_PIN,
            parses: |line| journal::parse_quarantine(line).is_ok(),
            integers: vec![field("seed"), field("attempts")],
            float: Some("\"backoff_s\":["),
        },
        Kind {
            name: "telemetry entry",
            pin: TELEMETRY_PIN,
            parses: |line| telemetry::parse_entry(line).is_ok(),
            integers: vec![field("seed"), field("regions_per_axis")],
            float: Some("\"window_s\":"),
        },
        Kind {
            name: "manifest entry",
            pin: MANIFEST_PIN,
            parses: |line| manifest::parse_entry(line).is_ok(),
            integers: vec![field("cell")],
            float: None,
        },
        Kind {
            name: "export cell",
            pin: EXPORT_PIN,
            parses: |line| parse_jsonl(line).is_ok(),
            integers: vec![field("replications")],
            float: Some("\"mean\":"),
        },
    ]
}

/// Replaces the number token right after the first `anchor` in `line`.
fn with_number(line: &str, anchor: &str, number: &str) -> String {
    let start = line.find(anchor).expect("anchor is in the pin") + anchor.len();
    let len = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .expect("a number is followed by a delimiter");
    assert!(len > 0, "no number after {anchor}");
    format!("{}{number}{}", &line[..start], &line[start + len..])
}

#[test]
fn every_mutation_of_every_record_kind_is_an_error() {
    let mut accepted: Vec<String> = Vec::new();
    for kind in kinds() {
        assert!((kind.parses)(kind.pin), "{} pin must parse", kind.name);
        let mut mutants: Vec<(String, String)> = Vec::new();
        // Anything but a non-negative integer token that fits the field is a
        // malformed line, not a value to round.
        for anchor in &kind.integers {
            for bad in ["-1", "1.5", "1e3", "18446744073709551616"] {
                mutants.push((format!("{anchor}{bad}"), with_number(kind.pin, anchor, bad)));
            }
        }
        if let Some(anchor) = kind.float {
            for bad in ["1e999", "-1e999", "NaN"] {
                mutants.push((format!("{anchor}{bad}"), with_number(kind.pin, anchor, bad)));
            }
        }
        // A write interrupted anywhere.
        for cut in (0..kind.pin.len()).filter(|&cut| kind.pin.is_char_boundary(cut)) {
            mutants.push((format!("cut at {cut}"), kind.pin[..cut].to_owned()));
        }
        // A record followed by anything — two writes glued together included.
        for tail in ["garbage", "}", ",", kind.pin] {
            let label: String = tail.chars().take(8).collect();
            mutants.push((format!("trailing {label:?}"), format!("{}{tail}", kind.pin)));
        }
        // Its first field twice.
        let first_field = &kind.pin[1..=kind.pin.find(',').expect("more than one field")];
        mutants.push((
            "duplicated first key".to_owned(),
            format!("{{{first_field}{}", &kind.pin[1..]),
        ));
        mutants.push((
            "depth 10,000".to_owned(),
            format!(
                "{}{}",
                &kind.pin[..=kind.pin.find(':').unwrap()],
                "[".repeat(10_000)
            ),
        ));
        for (what, line) in mutants {
            if (kind.parses)(&line) {
                accepted.push(format!("{}: {what}", kind.name));
            }
        }
    }
    assert!(
        accepted.is_empty(),
        "corrupt lines accepted:\n{}",
        accepted.join("\n")
    );
}

#[test]
fn a_duplicate_key_is_rejected_rather_than_first_wins() {
    let line = JOURNAL_PIN.replace("\"seed\":9007199254740993", "\"seed\":1,\"seed\":2");
    assert!(journal::parse_entry(&line).is_err());
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    let escaped = |escape: &str| MANIFEST_PIN.replace("hw,dense", escape);
    let parsed = manifest::parse_entry(&escaped("\\u0041")).expect("a well-formed escape");
    assert_eq!(parsed.label, "A");
    // `u32::from_str_radix` alone takes a sign.
    for bad in ["\\u+041", "\\u-041", "\\u004", "\\u00g1"] {
        assert!(manifest::parse_entry(&escaped(bad)).is_err(), "{bad}");
    }
}

#[test]
fn journal_open_survives_glued_deep_and_half_written_lines() {
    let dir = std::env::temp_dir().join(format!("vanet-records-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut other = journal_entry();
    other.key = 7;
    let good = format!("{JOURNAL_PIN}\n{}\n", journal::render_entry(&other));
    // What an unlucky crash, a concurrent writer without O_APPEND or a bad
    // disk can leave behind. The deep line used to overflow the stack and
    // abort the process inside `Journal::open` — on every later `--resume`.
    let corrupt = format!(
        "{good}{JOURNAL_PIN}{JOURNAL_PIN}\n{{\"key\":{}\n{}",
        "[".repeat(200_000),
        &JOURNAL_PIN[..JOURNAL_PIN.len() / 2]
    );
    std::fs::write(dir.join(JOURNAL_FILE), corrupt).unwrap();
    let journal = Journal::open(&dir).expect("a corrupt journal still opens");
    assert_eq!(journal.len(), 2);
    assert_eq!(journal.skipped_lines(), 3);
    assert_eq!(journal.lookup(journal_entry().key), Some(&report()));
    // The repair newline keeps the next record off the half-written line.
    other.key = 8;
    journal.record(&other).unwrap();
    drop(journal);
    let reopened = Journal::open(&dir).unwrap();
    assert_eq!((reopened.len(), reopened.skipped_lines()), (3, 3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn optional_bundle_counters_may_be_absent_but_not_malformed() {
    // A line written before the DTN layer existed: no bundle counters.
    let counters = ",\"bundles_stored\":6,\"bundles_forwarded\":3,\"bundles_expired\":1,\
                    \"bundles_evicted\":2,\"custody_transfers\":3,\"buffer_peak\":5";
    let pre_dtn = JOURNAL_PIN.replace(counters, "");
    assert_ne!(pre_dtn, JOURNAL_PIN);
    let mut expected = journal_entry();
    for counter in [
        &mut expected.report.bundles_stored,
        &mut expected.report.bundles_forwarded,
        &mut expected.report.bundles_expired,
        &mut expected.report.bundles_evicted,
        &mut expected.report.custody_transfers,
        &mut expected.report.buffer_peak,
    ] {
        *counter = 0;
    }
    assert_eq!(journal::parse_entry(&pre_dtn), Ok(expected));
    // Present but malformed is a corrupt line, not a zero.
    let negative = JOURNAL_PIN.replace("\"buffer_peak\":5", "\"buffer_peak\":-7");
    assert!(journal::parse_entry(&negative).is_err());
    // Only those six are optional.
    assert!(journal::parse_entry(&JOURNAL_PIN.replace("\"drops\":9,", "")).is_err());
    assert!(
        journal::parse_entry(&JOURNAL_PIN.replace("\"avg_neighbors\":5.333333333333333,", ""))
            .is_err()
    );
}

#[test]
fn ragged_telemetry_is_rejected_and_analyze_quotes_labels() {
    let ragged = [
        TELEMETRY_PIN.replace("\"deliveries\":[0,1,0]", "\"deliveries\":[0,1]"),
        TELEMETRY_PIN.replace(
            "\"region_received\":[0,0,0,0]",
            "\"region_received\":[0,0,0]",
        ),
        TELEMETRY_PIN.replace("\"regions_per_axis\":2", "\"regions_per_axis\":3"),
        TELEMETRY_PIN.replace("\"regions_per_axis\":2", "\"regions_per_axis\":4294967296"),
    ];
    for line in &ragged {
        assert_ne!(line, TELEMETRY_PIN);
        assert!(telemetry::parse_entry(line).is_err(), "{line}");
    }
    // The runner tolerates such lines in `telemetry.jsonl`, so `analyze`
    // must too: it used to index out of bounds on them.
    let dir = std::env::temp_dir().join(format!("vanet-records-ragged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(TELEMETRY_FILE),
        format!("{}\n{TELEMETRY_PIN}\n{}\n", ragged[0], ragged[1]),
    )
    .unwrap();
    let log = TelemetryLog::open(&dir).unwrap();
    assert_eq!((log.len(), log.skipped_lines()), (1, 2));
    drop(log);
    let dir_arg = dir.display().to_string();
    let timeseries = run_analyze(&["--timeseries".to_owned(), dir_arg.clone()]).unwrap();
    let regions = run_analyze(&["--regions".to_owned(), dir_arg]).unwrap();
    // Three windows and four regions of the one readable entry, its
    // comma-bearing label quoted so every row has the header's field count.
    assert_eq!(
        timeseries.text.lines().count(),
        1 + 3,
        "{}",
        timeseries.text
    );
    assert_eq!(regions.text.lines().count(), 1 + 4, "{}", regions.text);
    for row in timeseries
        .text
        .lines()
        .chain(regions.text.lines())
        .filter(|row| !row.starts_with("key,"))
    {
        assert!(
            row.starts_with("feedbeef12345678,\"hw,dense\",9007199254740993,"),
            "{row}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
