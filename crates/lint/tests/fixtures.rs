//! Fixture-corpus and end-to-end tests for `vanet-lint`.
//!
//! The corpus under `tests/fixtures/` carries, per rule, at least one true
//! positive and one *tricky* false positive (the rule's name in a string,
//! a raw string, a comment, test-only code, or an audited allow). These
//! tests pin both directions: the true positives must be found, and the
//! tricky files must scan clean — plus the repo itself must be lint-clean.

use std::fs;
use std::path::Path;
use std::process::Command;

use vanet_lint::{collect_sources, scan_source, scan_workspace, Finding};

/// Scans a fixture file as if it lived at `as_path` in the workspace.
fn scan_fixture(name: &str, as_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    scan_source(as_path, &source)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

const SIM_PATH: &str = "crates/net/src/fixture.rs";

#[test]
fn d1_true_positive_found() {
    let f = scan_fixture("d1_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["D1", "D1"], "{f:?}");
}

#[test]
fn d1_tricky_false_positives_clean() {
    let f = scan_fixture("d1_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d1_does_not_apply_outside_sim_visible_crates() {
    let f = scan_fixture("d1_true.rs", "crates/runner/src/fixture.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d2_true_positive_found() {
    let f = scan_fixture("d2_true.rs", SIM_PATH);
    assert!(
        !f.is_empty() && rules_of(&f).iter().all(|r| *r == "D2"),
        "{f:?}"
    );
}

#[test]
fn d2_tricky_false_positives_clean() {
    let f = scan_fixture("d2_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d2_exempts_runner_and_bench() {
    assert!(scan_fixture("d2_true.rs", "crates/runner/src/fixture.rs").is_empty());
    assert!(scan_fixture("d2_true.rs", "crates/bench/src/fixture.rs").is_empty());
}

#[test]
fn d3_true_positive_found() {
    let f = scan_fixture("d3_true.rs", SIM_PATH);
    assert!(
        !f.is_empty() && rules_of(&f).iter().all(|r| *r == "D3"),
        "{f:?}"
    );
}

#[test]
fn d3_tricky_false_positives_clean() {
    let f = scan_fixture("d3_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d4_true_positive_found() {
    let f = scan_fixture("d4_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["D4"], "{f:?}");
}

#[test]
fn d4_tricky_false_positives_clean() {
    let f = scan_fixture("d4_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d4_exempts_the_pool_module() {
    let f = scan_fixture("d4_true.rs", "crates/sim/src/pool.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d5_true_positive_found() {
    let f = scan_fixture("d5_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["D5"], "{f:?}");
}

#[test]
fn d5_tricky_false_positives_clean() {
    let f = scan_fixture("d5_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn d5_exempts_binaries() {
    assert!(scan_fixture("d5_true.rs", "crates/runner/src/main.rs").is_empty());
    assert!(scan_fixture("d5_true.rs", "crates/runner/src/bin/tool.rs").is_empty());
}

#[test]
fn p1_true_positive_found() {
    let f = scan_fixture("p1_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["P1", "P1"], "{f:?}");
}

#[test]
fn p1_tricky_false_positives_clean() {
    let f = scan_fixture("p1_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn p1_only_applies_to_hot_path_files() {
    // The same allocation is fine in a file without the header: strip it.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/p1_true.rs");
    let source = fs::read_to_string(path).unwrap();
    let without_header = source.replacen("// lint: hot-path\n", "", 1);
    assert!(scan_source(SIM_PATH, &without_header).is_empty());
}

#[test]
fn f1_true_positive_found() {
    let f = scan_fixture("f1_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["F1", "F1"], "{f:?}");
}

#[test]
fn f1_tricky_false_positives_clean() {
    let f = scan_fixture("f1_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn a0_true_positive_found() {
    let f = scan_fixture("a0_true.rs", SIM_PATH);
    assert_eq!(rules_of(&f), vec!["A0", "A0"], "{f:?}");
}

#[test]
fn a0_tricky_false_positives_clean() {
    let f = scan_fixture("a0_tricky.rs", SIM_PATH);
    assert!(f.is_empty(), "{f:?}");
}

/// The repo's own sources must be lint-clean: every remaining unordered
/// container, wall-clock read, print, hot-path allocation and float compare
/// is either fixed or carries an audited allow.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = scan_workspace(&root).expect("scan repo");
    assert!(
        findings.is_empty(),
        "repo must be lint-clean:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A ratchet on the audited exceptions. The PR that removes an allow site
/// lowers this number with it; no PR raises it — a new site has to displace
/// an old one or be designed away.
#[test]
fn audited_allow_sites_only_fall() {
    const CEILING: usize = 22;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sites: usize = collect_sources(&root)
        .expect("walk repo")
        .iter()
        .filter(|rel| !rel.starts_with("crates/lint"))
        .map(|rel| {
            fs::read_to_string(root.join(rel))
                .expect("read source")
                .matches("lint: allow(")
                .count()
        })
        .sum();
    assert!(
        sites <= CEILING,
        "{sites} `lint: allow(` sites, ceiling {CEILING}: remove one instead of adding one"
    );
}

/// End-to-end: the binary exits 0 on the (clean) repo and 1 on a scratch
/// workspace seeded with a true-positive fixture, and `--format jsonl`
/// output stays byte-pinned.
#[test]
fn cli_exit_codes_and_jsonl_format() {
    let bin = env!("CARGO_BIN_EXE_vanet-lint");
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let clean = Command::new(bin)
        .arg("--root")
        .arg(&repo_root)
        .output()
        .expect("run vanet-lint");
    assert!(
        clean.status.success(),
        "repo scan should exit 0:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-scratch");
    let src_dir = scratch.join("crates/net/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        src_dir.join("bad.rs"),
        "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n",
    )
    .unwrap();

    let dirty = Command::new(bin)
        .args(["--root"])
        .arg(&scratch)
        .args(["--format", "jsonl"])
        .output()
        .expect("run vanet-lint");
    assert_eq!(dirty.status.code(), Some(1));
    let stdout = String::from_utf8(dirty.stdout).unwrap();
    let first = stdout.lines().next().expect("at least one finding");
    assert!(
        first.starts_with("{\"file\":\"crates/net/src/bad.rs\",\"line\":1,\"rule\":\"D2\","),
        "jsonl format is pinned, got: {first}"
    );
}
