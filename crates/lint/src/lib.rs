//! `vanet-lint` — the workspace's determinism & hot-path invariant checker.
//!
//! The repo's core guarantee is that Reports are byte-identical across
//! workers, shards, resumes and engine rewrites. That guarantee is pinned
//! *dynamically* by the 21 protocol goldens; this crate enforces the
//! invariants *statically*, so a violation is a compile-gate failure rather
//! than a code-review hope:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no unordered (HashMap/HashSet) containers in sim-visible crates |
//! | D2   | no wall-clock reads outside runner/tests |
//! | D3   | no ambient randomness (everything derives from the seed via SimRng) |
//! | D4   | no thread creation outside `vanet_sim::pool` |
//! | D5   | no `println!`/`eprintln!`/`dbg!` in library crates |
//! | P1   | no allocation in `// lint: hot-path` files |
//! | F1   | no force-unwrapped `partial_cmp` float comparisons |
//! | S1   | no `pub fn` in a library crate that no other workspace file calls or imports |
//! | A0   | every `lint:` directive is well-formed and justified |
//!
//! The pass is deliberately self-contained — a lightweight scrubber/lexer
//! (comments, strings, raw strings, char literals) plus per-file scope
//! tracking and, for S1, one workspace-wide name index; no `syn` — because
//! the build environment is offline. Findings can be suppressed only by an
//! *audited* annotation naming its reason:
//!
//! ```text
//! // lint: allow(D1) — only counts leave this map; pinned by <test name>
//! ```

mod rules;
mod scrub;
mod surface;

pub use rules::{explain, is_known_rule, scan_source, Finding, RULES};
pub use scrub::{scrub, Scrubbed};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: generated output, fixture corpora, and
/// test/bench/example code (not sim-visible; exercised dynamically instead).
const SKIP_DIRS: [&str; 7] = [
    "target", "tests", "benches", "examples", "fixtures", ".git", ".github",
];

/// Collects every lintable `.rs` file under `root`'s `crates/` and `src/`
/// trees, in deterministic (sorted) order, as workspace-relative paths.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    collect(root, &["crates", "src"], &SKIP_DIRS)
}

/// Every `.rs` file under the `tops` trees of `root`, skipping directories
/// named in `skip`, sorted, as workspace-relative paths.
fn collect(root: &Path, tops: &[&str], skip: &[&str]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, skip, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip.contains(&name) {
                continue;
            }
            walk(&path, skip, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace under `root`: the per-file rules over
/// [`collect_sources`], then S1 over every caller file. Findings come back
/// sorted by (file, line, rule).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, source) in read_all(root, collect_sources(root)?)? {
        findings.extend(scan_source(&rel, &source));
    }
    let callers = collect(root, &surface::CALLER_TREES, &surface::CALLER_SKIP)?;
    findings.extend(surface::check_s1(&read_all(root, callers)?));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Reads each of `rels` under `root`, pairing it with its path in forward
/// slashes.
fn read_all(root: &Path, rels: Vec<PathBuf>) -> io::Result<Vec<(String, String)>> {
    rels.into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel))?;
            let rel = rel
                .to_str()
                .map(|s| s.replace('\\', "/"))
                .unwrap_or_default();
            Ok((rel, source))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_order_is_deterministic_and_skips_fixture_dirs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = collect_sources(&root).unwrap();
        let b = collect_sources(&root).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .iter()
            .all(|p| !p.components().any(|c| c.as_os_str() == "fixtures")));
        assert!(a
            .iter()
            .all(|p| !p.components().any(|c| c.as_os_str() == "tests")));
    }
}
