//! `vanet-lint` CLI: walk `crates/` + `src/` (and, for S1's callers,
//! `tests/`, `examples/` and `benchmark/src/`), enforce the invariant rules,
//! exit nonzero on findings. See `--explain <rule>` for the catalog.

use std::path::PathBuf;
use std::process::ExitCode;

use vanet_lint::{explain, scan_workspace, RULES};

const USAGE: &str = "\
vanet-lint — determinism & hot-path invariant checker

USAGE:
    vanet-lint [--root DIR] [--format text|jsonl]
    vanet-lint --explain <rule>
    vanet-lint --rules

OPTIONS:
    --root DIR        Workspace root to scan (default: current directory)
    --format FORMAT   `text` (file:line: rule — message) or `jsonl`
                      ({\"file\":..,\"line\":..,\"rule\":..,\"message\":..})
    --explain RULE    Print the long-form explanation of one rule
    --rules           List every rule code
    --help            Show this help

EXIT CODES:
    0  no findings
    1  findings reported
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut format = "text".to_owned();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                for rule in RULES {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(rule) = iter.next() else {
                    eprintln!("--explain needs a rule code (one of {})", RULES.join(", "));
                    return ExitCode::from(2);
                };
                match explain(rule) {
                    Some(text) => {
                        println!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!("unknown rule `{rule}` (one of {})", RULES.join(", "));
                        return ExitCode::from(2);
                    }
                }
            }
            "--root" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--format" => {
                let Some(f) = iter.next() else {
                    eprintln!("--format needs `text` or `jsonl`");
                    return ExitCode::from(2);
                };
                if f != "text" && f != "jsonl" {
                    eprintln!("unknown format `{f}` (expected `text` or `jsonl`)");
                    return ExitCode::from(2);
                }
                format = f.clone();
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let findings = match scan_workspace(&root) {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("vanet-lint: cannot scan {}: {error}", root.display());
            return ExitCode::from(2);
        }
    };
    for finding in &findings {
        if format == "jsonl" {
            println!("{}", finding.render_jsonl());
        } else {
            println!("{}", finding.render());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        if format == "text" {
            eprintln!(
                "vanet-lint: {} finding(s); run `vanet-lint --explain <rule>` for the \
                 invariant behind each code",
                findings.len()
            );
        }
        ExitCode::from(1)
    }
}
