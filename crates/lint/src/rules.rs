//! The rule catalog and the token-level passes that enforce it.
//!
//! Every rule encodes one of the repo's written-down invariants (see the
//! README "Static analysis" section): determinism rules D1–D5, the
//! zero-allocation hot-path rule P1, the float-total-order rule F1, and the
//! unused-surface rule S1 (the one cross-file rule, run by
//! [`crate::scan_workspace`] from [`crate::surface`]). Findings carry the
//! rule code, the 1-based line, and a message; audited
//! `// lint: allow(<rule>) — <reason>` annotations suppress them (the
//! reason is mandatory — a bare allow is itself an A0 finding).

use crate::scrub::{scrub, Scrubbed};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule code, e.g. `"D1"`.
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl Finding {
    /// The human-readable `file:line: rule — message` form.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} \u{2014} {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// The pinned machine-readable JSONL form:
    /// `{"file":...,"line":...,"rule":...,"message":...}`.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape_json(&self.file),
            self.line,
            self.rule,
            escape_json(&self.message)
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every rule code, in catalog order.
pub const RULES: [&str; 9] = ["D1", "D2", "D3", "D4", "D5", "P1", "F1", "S1", "A0"];

/// Whether `code` names a rule in the catalog.
#[must_use]
pub fn is_known_rule(code: &str) -> bool {
    RULES.contains(&code)
}

/// The long-form explanation printed by `vanet-lint --explain <rule>`.
#[must_use]
pub fn explain(code: &str) -> Option<&'static str> {
    match code {
        "D1" => Some(
            "D1 — unordered containers in sim-visible crates.\n\
             Reports must be byte-identical across workers, shards, resumes and\n\
             engine rewrites, so nothing the simulation can observe may depend on\n\
             HashMap/HashSet iteration order (which is seeded per-process). D1\n\
             flags (a) every HashMap/HashSet declaration (and `CellMap`, the\n\
             net crate's alias for one) and (b) every unordered\n\
             iteration (`for .. in`, `.iter()`, `.keys()`, `.values()`,\n\
             `.drain()`, `.retain()`, ...) over one, in the sim-visible crates\n\
             (core, net, routing, sim, mobility, links). Fix: use BTreeMap /\n\
             BTreeSet / a sorted Vec, or — when order provably never escapes\n\
             (e.g. only counts leave the map) — annotate the site with\n\
             `// lint: allow(D1) — <order-insensitivity argument>` naming the\n\
             property test that pins it.",
        ),
        "D2" => Some(
            "D2 — wall-clock reads outside runner/tests.\n\
             `std::time::Instant` / `SystemTime` values differ run to run, so any\n\
             sim-visible use breaks replay determinism. Only the campaign runner\n\
             may measure wall time (for throughput reporting); simulation code\n\
             must use `SimTime` exclusively.",
        ),
        "D3" => Some(
            "D3 — ambient randomness.\n\
             All randomness must derive from the run's seed through `SimRng`\n\
             (the self-contained xoshiro256++ generator). Entropy-seeded\n\
             sources — `thread_rng`, `OsRng`, `from_entropy`, `RandomState`,\n\
             `DefaultHasher`, the `rand`/`fastrand`/`getrandom` crates — make\n\
             runs unrepeatable and are banned everywhere.",
        ),
        "D4" => Some(
            "D4 — thread creation outside vanet_sim::pool.\n\
             Parallelism is only deterministic because every parallel campaign\n\
             execution goes through the work-stealing pool, whose result order\n\
             is pinned byte-identical to serial. Spawning threads anywhere else\n\
             (`std::thread::spawn` / `scope` / `Builder`) introduces scheduling\n\
             nondeterminism the goldens cannot see.",
        ),
        "D5" => Some(
            "D5 — println!/eprintln!/dbg! in library crates.\n\
             Library output corrupts the machine-readable exports (JSONL/CSV go\n\
             to stdout) and hides real diagnostics. CLI binaries (`src/bin/`,\n\
             `main.rs`) may print; libraries must return data. Operator-facing\n\
             degradation warnings are allowed with an audited\n\
             `// lint: allow(D5) — <reason>`.",
        ),
        "P1" => Some(
            "P1 — allocation in a `// lint: hot-path` file.\n\
             Files carrying the `// lint: hot-path` header implement the\n\
             zero-allocation steady-state event path (PRs 2/3/6 measured every\n\
             allocation removed from it). P1 flags allocating calls —\n\
             `Vec::new`, `with_capacity[_and_hasher]`, `collect`, `format!`, `vec!`,\n\
             `to_vec`, `to_owned`, `to_string`, `clone`, `Box::new` — in such\n\
             files. Setup-path allocations (build/reset/convenience forms) are\n\
             fine but must be audited: `// lint: allow(P1) — <why not on the\n\
             steady-state path>`.",
        ),
        "F1" => Some(
            "F1 — force-unwrapped float comparisons.\n\
             `.partial_cmp(..).unwrap()/.expect()/.unwrap_or(Equal)` either\n\
             panics on NaN or silently produces a non-total order that makes\n\
             sort/min/max results depend on element order. Use\n\
             `f64::total_cmp`, or a total-order wrapper type (`SimTime`), or\n\
             annotate the wrapper's own impl with `// lint: allow(F1) — <why\n\
             NaN is impossible>`.",
        ),
        "S1" => Some(
            "S1 — public surface no caller uses.\n\
             A `pub fn` (free or associated, outside `#[cfg(test)]` code) in a\n\
             library file under `crates/*/src` (binaries excluded) that no other\n\
             file of `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/`\n\
             calls or imports. A use is a call (`name(`, `.name(`, `name::<`) that\n\
             is not an `fn` definition, a path segment after `::` (`Type::name`\n\
             passed as a value too), or a name in a private `use` item. A field,\n\
             a binding or struct shorthand of the same name is no use, nor is a\n\
             `pub use` re-export, a comment or a string; the defining file's own\n\
             calls do not count, and fixture directories are not read. The check\n\
             is lexical: two functions sharing a name hide each other, so a\n\
             collision can hide a finding. A bare function value brought in by\n\
             a glob import (`use a::*;` then `map(name)`) is not seen as a use,\n\
             so a function used only that way would be reported; import it by\n\
             name. Fix: delete the item, or make it private — and `#[cfg(test)]`\n\
             when only its own file's tests call it.",
        ),
        "A0" => Some(
            "A0 — malformed lint directive.\n\
             Every `// lint: allow(<rule>)` must name a known rule and carry a\n\
             justification after an em-dash: `// lint: allow(D1) — <reason>`.\n\
             An allow without a reason is an unaudited suppression and is\n\
             reported instead of honoured.",
        ),
        _ => None,
    }
}

/// Crates whose behaviour is observable by the simulation (golden-pinned).
const SIM_VISIBLE: [&str; 6] = [
    "crates/core/",
    "crates/net/",
    "crates/routing/",
    "crates/sim/",
    "crates/mobility/",
    "crates/links/",
];

/// The one crate allowed to read the wall clock (throughput measurement).
const CLOCK_EXEMPT: &str = "crates/runner/";

/// The one module allowed to create threads.
const POOL_FILE: &str = "crates/sim/src/pool.rs";

/// One token of scrubbed source: an identifier or a single punctuation char.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tok<'a> {
    pub(crate) text: &'a str,
    pub(crate) line: usize,
}

pub(crate) fn tokenize(code: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let bytes = code.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                text: &code[start..i],
                line,
            });
        } else if c.is_ascii_digit() {
            // Numbers (incl. suffixes like 1e-9, 0xff, 1_000u64) are never
            // rule-relevant; consume the maximal alnum/._- run conservatively.
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
            {
                // A `.` only continues the number when a digit follows —
                // `1.5` yes, but `0..n` is a range and `x.0.clone()` is a
                // tuple-field method call whose `.` must stay a token.
                if bytes[i] == b'.' && !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    break;
                }
                i += 1;
            }
        } else if c.is_ascii() {
            toks.push(Tok {
                text: &code[i..i + 1],
                line,
            });
            i += 1;
        } else {
            // Non-ASCII code chars (shouldn't appear outside comments).
            i += 1;
        }
    }
    toks
}

/// Per-line mask of `#[cfg(test)]`-gated spans: rule passes skip findings on
/// masked lines (test code is not sim-visible).
pub(crate) fn test_line_mask(code: &str) -> Vec<bool> {
    let toks = tokenize(code);
    let total_lines = code.lines().count() + 1;
    let mut mask = vec![false; total_lines + 2];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the brace block the attribute gates and mask its line span.
        let mut j = i + 7;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j < toks.len() && toks[j].text == "{" {
            let start_line = toks[i].line;
            let mut depth = 0usize;
            let mut end_line = toks[j].line;
            while j < toks.len() {
                match toks[j].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = toks[j].line;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for entry in mask
                .iter_mut()
                .take(end_line.min(total_lines) + 1)
                .skip(start_line)
            {
                *entry = true;
            }
        }
        i = j.max(i + 1);
    }
    mask
}

/// Scans one file's source text; `path` is the workspace-relative path used
/// for crate classification and reporting.
#[must_use]
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    let scrubbed = scrub(source);
    let toks = tokenize(&scrubbed.code);
    let test_mask = test_line_mask(&scrubbed.code);
    let in_tests = |line: usize| test_mask.get(line).copied().unwrap_or(false);
    let mut findings = Vec::new();

    for (line, message) in &scrubbed.bad_directives {
        findings.push(Finding {
            file: path.to_owned(),
            line: *line,
            rule: "A0",
            message: message.clone(),
        });
    }

    let sim_visible = SIM_VISIBLE.iter().any(|c| path.starts_with(c));
    let clock_exempt = path.starts_with(CLOCK_EXEMPT);

    if sim_visible {
        check_d1(path, &toks, &scrubbed, &in_tests, &mut findings);
    }
    if !clock_exempt {
        check_d2(path, &toks, &scrubbed, &in_tests, &mut findings);
    }
    check_d3(path, &toks, &scrubbed, &in_tests, &mut findings);
    if path != POOL_FILE {
        check_d4(path, &toks, &scrubbed, &in_tests, &mut findings);
    }
    if !is_binary(path) {
        check_d5(path, &toks, &scrubbed, &in_tests, &mut findings);
    }
    if scrubbed.hot_path {
        check_p1(path, &toks, &scrubbed, &in_tests, &mut findings);
    }
    check_f1(path, &toks, &scrubbed, &in_tests, &mut findings);

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Whether `path` is a binary's source (`src/bin/` or a `main.rs`).
pub(crate) fn is_binary(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("main.rs")
}

fn push_unless_allowed(
    findings: &mut Vec<Finding>,
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    path: &str,
    line: usize,
    rule: &'static str,
    message: String,
) {
    if in_tests(line) || scrubbed.allowed(rule, line) {
        return;
    }
    findings.push(Finding {
        file: path.to_owned(),
        line,
        rule,
        message,
    });
}

/// `CellMap` is `vanet_net::grid`'s alias for a `HashMap` keyed by grid cell;
/// named here so the alias does not hide its users from D1.
const UNORDERED_TYPES: [&str; 3] = ["HashMap", "HashSet", "CellMap"];
const UNORDERED_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// D1: unordered containers (declarations and iteration) in sim-visible
/// crates. Scope tracking is per file: every identifier declared with a
/// HashMap/HashSet type (struct field `name: HashMap<..>` or binding
/// `let name = HashMap::new()`) is recorded, and iteration constructs over
/// those identifiers are flagged.
fn check_d1(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let mut tracked: Vec<&str> = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !UNORDERED_TYPES.contains(&tok.text) {
            continue;
        }
        // `use std::collections::HashMap;` — imports are not declarations.
        if statement_starts_with_use(toks, i) {
            continue;
        }
        // Walk back over a `path ::` prefix (each `seg ::` is three tokens)
        // and any `&` / `mut` qualifiers, landing on the first token of the
        // full type path.
        let mut j = i;
        while j >= 3
            && toks[j - 1].text == ":"
            && toks[j - 2].text == ":"
            && is_ident(toks[j - 3].text)
        {
            j -= 3;
        }
        while j >= 1 && (toks[j - 1].text == "&" || toks[j - 1].text == "mut") {
            j -= 1;
        }
        let decl_name = if j >= 2
            && toks[j - 1].text == ":"
            && (j < 3 || toks[j - 2].text != ":")
            && is_ident(toks[j - 2].text)
        {
            // `name : [path ::] HashMap < .. >` — a field, binding
            // annotation, or parameter.
            Some(toks[j - 2].text)
        } else if j >= 2 && toks[j - 1].text == "=" {
            // `let [mut] name = HashMap::new()`
            let name_at = j - 2;
            let mut p = name_at;
            if p >= 1 && toks[p - 1].text == "mut" {
                p -= 1;
            }
            (p >= 1 && toks[p - 1].text == "let").then(|| toks[name_at].text)
        } else {
            None
        };
        let Some(name) = decl_name else { continue };
        if is_ident(name) {
            tracked.push(name);
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                tok.line,
                "D1",
                format!(
                    "`{name}` is declared as {} in a sim-visible crate; iteration order is \
                     process-seeded — use BTreeMap/BTreeSet or justify with an audited allow",
                    tok.text
                ),
            );
        }
    }
    // Iteration constructs over tracked identifiers.
    for i in 0..toks.len() {
        // `<name> . iter ( ... )` and friends.
        if toks[i].text == "."
            && i >= 1
            && tracked.contains(&toks[i - 1].text)
            && i + 2 < toks.len()
            && UNORDERED_ITER_METHODS.contains(&toks[i + 1].text)
            && toks[i + 2].text == "("
        {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                toks[i + 1].line,
                "D1",
                format!(
                    "unordered iteration: `.{}()` over `{}` (a HashMap/HashSet) in a \
                     sim-visible crate",
                    toks[i + 1].text,
                    toks[i - 1].text
                ),
            );
        }
        // `for pat in <name> {` (possibly through `&`/`mut`/`self.`).
        if toks[i].text == "for" {
            let mut j = i + 1;
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "in" if depth == 0 => break,
                    "{" | ";" => {
                        j = toks.len();
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len()
                && (toks[k].text == "&" || toks[k].text == "mut" || toks[k].text == "self")
            {
                k += 1;
            }
            if k < toks.len() && toks[k].text == "." {
                k += 1;
            }
            if k + 1 < toks.len()
                && tracked.contains(&toks[k].text)
                && (toks[k + 1].text == "{" || toks[k + 1].text == ".")
            {
                // Direct `for x in map {` — method-call forms were already
                // caught above; only flag the bare-map loop here.
                if toks[k + 1].text == "{" {
                    push_unless_allowed(
                        findings,
                        scrubbed,
                        in_tests,
                        path,
                        toks[k].line,
                        "D1",
                        format!(
                            "unordered iteration: `for .. in {}` (a HashMap/HashSet) in a \
                             sim-visible crate",
                            toks[k].text
                        ),
                    );
                }
            }
        }
    }
}

pub(crate) fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// Whether the statement containing token `i` starts with `use` or `pub use`.
fn statement_starts_with_use(toks: &[Tok<'_>], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = toks[j - 1].text;
        if t == ";" || t == "{" || t == "}" {
            break;
        }
        j -= 1;
    }
    toks.get(j).map(|t| t.text) == Some("use")
        || (toks.get(j).map(|t| t.text) == Some("pub")
            && toks.get(j + 1).map(|t| t.text) == Some("use"))
}

/// D2: wall-clock types outside runner/tests.
fn check_d2(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for tok in toks {
        if tok.text == "Instant" || tok.text == "SystemTime" {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                tok.line,
                "D2",
                format!(
                    "wall-clock type `{}` outside runner — sim code must use SimTime",
                    tok.text
                ),
            );
        }
    }
}

const AMBIENT_RANDOM: [&str; 7] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "RandomState",
    "DefaultHasher",
    "getrandom",
];

/// D3: ambient (non-seed-derived) randomness anywhere.
fn check_d3(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, tok) in toks.iter().enumerate() {
        let ambient = AMBIENT_RANDOM.contains(&tok.text)
            || ((tok.text == "rand" || tok.text == "fastrand")
                && toks.get(i + 1).map(|t| t.text) == Some(":")
                && toks.get(i + 2).map(|t| t.text) == Some(":"));
        if ambient {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                tok.line,
                "D3",
                format!(
                    "ambient randomness `{}` — all randomness must derive from the run seed \
                     via SimRng",
                    tok.text
                ),
            );
        }
    }
}

/// D4: thread creation outside `vanet_sim::pool`.
fn check_d4(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if toks[i].text == "thread"
            && toks.get(i + 1).map(|t| t.text) == Some(":")
            && toks.get(i + 2).map(|t| t.text) == Some(":")
            && matches!(
                toks.get(i + 3).map(|t| t.text),
                Some("spawn") | Some("scope") | Some("Builder")
            )
        {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                toks[i].line,
                "D4",
                format!(
                    "thread creation (`thread::{}`) outside vanet_sim::pool — parallel \
                     determinism is only pinned through the pool",
                    toks[i + 3].text
                ),
            );
        }
    }
}

/// D5: stdout/stderr macros in library code.
fn check_d5(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if matches!(
            toks[i].text,
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) && toks.get(i + 1).map(|t| t.text) == Some("!")
        {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                toks[i].line,
                "D5",
                format!(
                    "`{}!` in a library crate — return data instead, or audit an operator \
                     warning with an allow",
                    toks[i].text
                ),
            );
        }
    }
}

const ALLOC_PATH_CALLS: [(&str, &str); 2] = [("Vec", "new"), ("Box", "new")];
const ALLOC_METHODS: [&str; 5] = ["collect", "to_vec", "to_owned", "to_string", "clone"];
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// P1: allocating calls in a `lint: hot-path` file.
fn check_p1(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        let t = toks[i].text;
        let mut hit: Option<String> = None;
        if ALLOC_PATH_CALLS
            .iter()
            .any(|&(ty, m)| t == ty && path_call_is(toks, i, m))
        {
            hit = Some(format!("{t}::{}", toks[i + 3].text));
        } else if (t == "with_capacity" || t == "with_capacity_and_hasher")
            && toks.get(i + 1).map(|x| x.text) == Some("(")
            && i >= 2
            && toks[i - 1].text == ":"
        {
            hit = Some(format!("{}::{t}", toks[i.saturating_sub(3)].text));
        } else if ALLOC_METHODS.contains(&t)
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|x| x.text) == Some("(")
        {
            hit = Some(format!(".{t}()"));
        } else if ALLOC_MACROS.contains(&t) && toks.get(i + 1).map(|x| x.text) == Some("!") {
            hit = Some(format!("{t}!"));
        } else if t == "new"
            && i >= 2
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && i >= 3
            && matches!(
                toks[i - 3].text,
                "String" | "VecDeque" | "BTreeMap" | "BTreeSet"
            )
        {
            hit = Some(format!("{}::new", toks[i - 3].text));
        }
        if let Some(what) = hit {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                toks[i].line,
                "P1",
                format!(
                    "allocation (`{what}`) in a `lint: hot-path` file — keep the steady-state \
                     path zero-alloc, or audit a setup-path allocation with an allow"
                ),
            );
        }
    }
}

/// Whether tokens at `i` form `<ident> :: <method> (`.
fn path_call_is(toks: &[Tok<'_>], i: usize, method: &str) -> bool {
    toks.get(i + 1).map(|t| t.text) == Some(":")
        && toks.get(i + 2).map(|t| t.text) == Some(":")
        && toks.get(i + 3).map(|t| t.text) == Some(method)
        && toks.get(i + 4).map(|t| t.text) == Some("(")
}

const F1_SINKS: [&str; 5] = [
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

/// F1: `partial_cmp` force-unwrapped or defaulted (a non-total float order).
fn check_f1(
    path: &str,
    toks: &[Tok<'_>],
    scrubbed: &Scrubbed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if toks[i].text != "partial_cmp" || toks.get(i + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        // Skip the PartialOrd impl definition itself: `fn partial_cmp(..)`.
        if i >= 1 && toks[i - 1].text == "fn" {
            continue;
        }
        // Find the matching close paren of the call.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j + 2 < toks.len() && toks[j + 1].text == "." && F1_SINKS.contains(&toks[j + 2].text) {
            push_unless_allowed(
                findings,
                scrubbed,
                in_tests,
                path,
                toks[i].line,
                "F1",
                format!(
                    "`.partial_cmp(..).{}(..)` — NaN makes this panic or degrade to a \
                     non-total order; use f64::total_cmp or a total-order wrapper",
                    toks[j + 2].text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_tracks_fields_and_bindings() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   fn f(s: &S) { for x in s.m.values() { let _ = x; } }\n";
        let found = rules_of("crates/core/src/x.rs", src);
        assert_eq!(found, vec!["D1", "D1"]);
        // Same file in a non-sim-visible crate: clean.
        assert!(rules_of("crates/runner/src/x.rs", src).is_empty());
        // The net crate's alias is an unordered container too; defining the
        // alias is not a declaration.
        let aliased = src.replace("HashMap<u32, u64>", "CellMap<u64>");
        assert_eq!(rules_of("crates/core/src/x.rs", &aliased), vec!["D1", "D1"]);
        let alias = "type CellMap<V> = HashMap<(i64, i64), V>;\n";
        assert!(rules_of("crates/net/src/x.rs", alias).is_empty());
    }

    #[test]
    fn d1_let_binding_and_for_loop() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2);\n\
                   for kv in m { let _ = kv; } }\n";
        let found = rules_of("crates/net/src/x.rs", src);
        assert_eq!(found, vec!["D1", "D1"]);
    }

    #[test]
    fn d1_ignores_imports_and_lookups() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u64> }\n\
                   // lint: allow(D1) \u{2014} lookup-only; covered by test x\n\
                   fn f(s: &S) -> Option<&u64> { s.m.get(&1) }\n";
        // Declaration on line 2 is unannotated; the lookup itself is not a
        // finding.
        let f = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("D1", 2));
    }

    #[test]
    fn jsonl_form_is_pinned() {
        let f = Finding {
            file: "crates/net/src/x.rs".into(),
            line: 7,
            rule: "D2",
            message: "wall-clock".into(),
        };
        assert_eq!(
            f.render_jsonl(),
            "{\"file\":\"crates/net/src/x.rs\",\"line\":7,\"rule\":\"D2\",\"message\":\"wall-clock\"}"
        );
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULES {
            assert!(explain(rule).is_some(), "missing --explain text for {rule}");
        }
        assert!(explain("Z9").is_none());
    }
}
