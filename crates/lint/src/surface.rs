//! S1, the one cross-file rule: public surface that no caller uses.
//!
//! The rules in [`crate::rules`] read one file at a time; S1 reads the whole
//! workspace. Every caller file is scrubbed (comments and strings blanked)
//! and tokenised once, and the identifiers it uses in a call-shaped place
//! are recorded: after `::` (a path, or a value such as `Type::name`),
//! anywhere in a private `use` item, or right before `(` or `::<` (a call,
//! a method call or a turbofish) when not defined there by `fn`. A field, a
//! binding or struct shorthand that shares the name is no use, nor is a
//! `pub use` re-export. A `pub fn` — free or associated, outside
//! `#[cfg(test)]` code, in a `crates/*/src` file that is not a binary — that
//! no other file uses is a finding. The rule is lexical: two functions that
//! share a name hide each other, so a collision can hide a finding. A bare
//! function value brought in by a glob import (`use a::*;` then `map(name)`)
//! is not seen as a use, so a function used only that way would be reported;
//! the tree has none.

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
    let used: Vec<BTreeSet<&str>> = toks.iter().map(|t| used_names(t)).collect();
    // Per identifier, the number of files that use it.
    let mut used_in: BTreeMap<&str, usize> = BTreeMap::new();
    for name in used.iter().flatten() {
        *used_in.entry(name).or_default() += 1;
    }
    let mut findings = Vec::new();
    for ((((path, _), scrubbed), file_toks), own) in
        files.iter().zip(&scrubbed).zip(&toks).zip(&used)
    {
        if !is_library_file(path) {
            continue;
        }
        let test_mask = test_line_mask(&scrubbed.code);
        for tok in pub_fn_names(file_toks) {
            // The defining file's own calls do not count.
            let others = used_in
                .get(tok.text)
                .map_or(0, |n| n - usize::from(own.contains(tok.text)));
            if others > 0
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
                    "`pub fn {}` is called or imported by no other workspace file — delete it, or \
                     make it private (and `#[cfg(test)]` when only its own file's tests call it)",
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

/// The distinct identifiers one file uses in a call-shaped place (see the
/// module docs), leaving out every `pub use` (or `pub(..) use`) item.
fn used_names<'a>(toks: &[Tok<'a>]) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    // Inside a `use` item, which runs to its `;`: whether it is a re-export
    // (`use` right after `pub`, or after the `)` of `pub(..)`).
    let mut in_use: Option<bool> = None;
    for (i, tok) in toks.iter().enumerate() {
        let prev = |k: usize| i.checked_sub(k).map_or("", |j| toks[j].text);
        let next = |k: usize| toks.get(i + k).map_or("", |t| t.text);
        if tok.text == "use" {
            in_use = Some(matches!(prev(1), "pub" | ")"));
        } else if tok.text == ";" {
            in_use = None;
        } else if is_ident(tok.text) && in_use != Some(true) {
            let after_path = prev(1) == ":" && prev(2) == ":";
            let called = next(1) == "(" || (next(1) == ":" && next(2) == ":" && next(3) == "<");
            if in_use.is_some() || after_path || (called && prev(1) != "fn") {
                names.insert(tok.text);
            }
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
