//! S1, the one cross-file rule: public surface that no caller uses.
//!
//! The rules in [`crate::rules`] read one file at a time; S1 reads the whole
//! workspace. Every caller file is scrubbed (comments and strings blanked)
//! and tokenised once, and the identifiers it names outside `pub use` items
//! are recorded: a re-export is not a caller. A `pub fn` — free or
//! associated, outside `#[cfg(test)]` code, in a `crates/*/src` file that is
//! not a binary — whose name no other file records is a finding. The rule is
//! lexical: two items that share a name hide each other, so a collision can
//! only hide a finding, never invent one.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{is_binary, is_ident, test_line_mask, tokenize, Finding, Tok};
use crate::scrub::scrub;

/// The workspace trees whose files count as callers.
pub(crate) const CALLER_TREES: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Directory names never read as callers: build output and fixture corpora.
pub(crate) const CALLER_SKIP: [&str; 4] = ["target", "fixtures", ".git", ".github"];

/// Runs S1 over `files`, each a workspace-relative path with its source,
/// which must be every file of [`CALLER_TREES`].
pub(crate) fn check_s1(files: &[(String, String)]) -> Vec<Finding> {
    let scrubbed: Vec<_> = files.iter().map(|(_, source)| scrub(source)).collect();
    let toks: Vec<Vec<Tok<'_>>> = scrubbed.iter().map(|s| tokenize(&s.code)).collect();
    // Per identifier, the number of files that name it outside `pub use`.
    let mut named_in: BTreeMap<&str, usize> = BTreeMap::new();
    for file_toks in &toks {
        for name in names_outside_pub_use(file_toks) {
            *named_in.entry(name).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for (((path, _), scrubbed), file_toks) in files.iter().zip(&scrubbed).zip(&toks) {
        if !is_library_file(path) {
            continue;
        }
        let test_mask = test_line_mask(&scrubbed.code);
        for tok in pub_fn_names(file_toks) {
            // The definition names the item in its own file: one count is its own.
            if named_in.get(tok.text).copied().unwrap_or(0) > 1
                || test_mask.get(tok.line).copied().unwrap_or(false)
                || scrubbed.allowed("S1", tok.line)
            {
                continue;
            }
            findings.push(Finding {
                file: path.clone(),
                line: tok.line,
                rule: "S1",
                message: format!(
                    "`pub fn {}` is named by no other workspace file — delete it, or make it \
                     private (and `#[cfg(test)]` when only its own file's tests call it)",
                    tok.text
                ),
            });
        }
    }
    findings
}

/// Whether `path` is a library source file: under `crates/<name>/src/` and
/// not a binary.
fn is_library_file(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some()
        && parts.next() == Some("src")
        && !is_binary(path)
}

/// The distinct identifiers of one file, leaving out every one inside a
/// `pub use` (or `pub(..) use`) item.
fn names_outside_pub_use<'a>(toks: &[Tok<'a>]) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    let mut in_pub_use = false;
    for (i, tok) in toks.iter().enumerate() {
        // A `use` right after `pub` or after the `)` of `pub(..)` opens a
        // re-export, which runs to its `;` (the braces inside hold none).
        if tok.text == "use" && i > 0 && matches!(toks[i - 1].text, "pub" | ")") {
            in_pub_use = true;
        } else if tok.text == ";" {
            in_pub_use = false;
        } else if !in_pub_use && is_ident(tok.text) {
            names.insert(tok.text);
        }
    }
    names
}

/// The name token of every `pub fn` (also `pub const fn`, `pub unsafe fn`,
/// `pub async fn`, `pub extern "ABI" fn`) in one file.
fn pub_fn_names<'t, 'a>(toks: &'t [Tok<'a>]) -> impl Iterator<Item = Tok<'a>> + 't {
    (0..toks.len()).filter_map(|i| {
        if toks[i].text != "pub" || toks.get(i + 1).map(|t| t.text) == Some("(") {
            return None;
        }
        let mut j = i + 1;
        while toks
            .get(j)
            .is_some_and(|t| matches!(t.text, "const" | "async" | "unsafe" | "extern"))
        {
            j += 1;
        }
        (toks.get(j)?.text == "fn")
            .then(|| toks.get(j + 1).copied())
            .flatten()
            .filter(|t| is_ident(t.text))
    })
}
