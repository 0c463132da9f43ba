//! Drives the built binary the way the driver and a person would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vanet-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The names `BENCHMARK.json` lists under `key`.
fn manifest_names(key: &str) -> Vec<String> {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let section = &manifest[manifest
        .find(&format!("\"{key}\""))
        .expect("section present")..];
    let section = &section[..section.find(']').expect("section is an array")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_owned())
        .collect()
}

/// Minimal field extraction: the value text after `"key":` up to the next
/// `,` or `}` at the same level is enough for the flat numbers checked here.
fn number_after(text: &str, key: &str) -> f64 {
    let at = text
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("{key} missing in {text}"));
    let rest = text[at + key.len() + 3..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {text}"))
}

#[test]
fn smoke_run_lists_every_metric_for_every_workload_and_compares_clean() {
    let out = tmp("smoke.json");
    let started = std::time::Instant::now();
    let run = bench(&["run", "--smoke", "--out", out.to_str().unwrap()]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "smoke set took {:?}",
        started.elapsed()
    );

    let stdout = String::from_utf8(run.stdout).unwrap();
    let workloads = manifest_names("workloads");
    let end_to_end = manifest_names("end_to_end");
    assert_eq!((workloads.len(), end_to_end.len()), (6, 5));
    // One driver line per workload; each holds every end-to-end metric,
    // none of them zero, and no failed operation.
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .collect();
    assert_eq!(lines.len(), workloads.len());
    for line in &lines {
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        assert_eq!(number_after(line, "failed"), 0.0);
        assert!(number_after(line, "attempted") >= 1.0);
        for metric in &end_to_end {
            let at = line
                .find(&format!("\"{metric}\":{{"))
                .unwrap_or_else(|| panic!("{metric} missing"));
            assert!(
                number_after(&line[at..], "value") > 0.0,
                "{metric} in {line}"
            );
        }
    }
    assert!(
        stdout.trim_end().ends_with(lines[lines.len() - 1]),
        "the driver line comes last"
    );

    let file = std::fs::read_to_string(&out).unwrap();
    for name in workloads.iter().chain(&end_to_end) {
        assert!(
            file.contains(&format!("\"{name}\"")),
            "{name} missing from the result file"
        );
    }

    // A result compared with itself is within every bound.
    let same = bench(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let table = String::from_utf8(same.stdout).unwrap();
    assert!(
        !table.contains("regressed") && !table.contains("unresolved"),
        "{table}"
    );
    assert_eq!(
        table.matches(" ok").count(),
        workloads.len() * end_to_end.len()
    );
}

#[test]
fn traced_smoke_pass_emits_every_per_layer_metric() {
    let per_layer = manifest_names("per_layer");
    assert!(per_layer.len() >= 50);
    for workload in ["highway-aodv", "campaign-cold"] {
        let out = tmp(&format!("trace-{workload}.json"));
        let run = bench(&[
            "run",
            "--smoke",
            "--trace",
            "1",
            "--workload",
            workload,
            "--seed",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).unwrap();
        let line = stdout.lines().last().unwrap();
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        for metric in &per_layer {
            assert!(
                line.contains(&format!("\"{metric}\":{{\"value\":")),
                "{workload}: {metric} missing"
            );
        }
        let spans = &line[line.find("\"trace.spans\"").unwrap()..];
        assert!(number_after(spans, "value") > 3.0);
        // A traced file holds no end-to-end numbers, so `compare` refuses it.
        let refused = bench(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
        assert_eq!(refused.status.code(), Some(2));
    }
}

#[test]
fn bad_arguments_fail_with_one_line_and_no_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seed", "x"],
        &["run", "--trace", "2"],
        &["run", "--seconds"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).lines().count(),
            1,
            "{args:?}"
        );
    }
}
