//! `vanet-campaign` — run an experiment campaign from the command line.
//!
//! ```text
//! vanet-campaign [NAME] [options]
//!
//! NAME                    a catalog campaign (see --list); default: quick
//!
//! Options:
//!   --list                list catalog campaigns and exit
//!   --scenarios S1,S2,..  parameterised campaign over these scenarios
//!                         (highway-<N>, urban-<N>, megacity-<N>, sparse,
//!                         normal, congested; options e.g.
//!                         sparse:rsus=4,flows=5; deterministic disruptions
//!                         via fault=, e.g. highway-40:fault=node:10..20s or
//!                         fault=jam:5:0.9:30..60s — see scenario_spec)
//!   --protocols P1,P2,..  protocols for a parameterised campaign
//!                         (default: the six Table-I representatives)
//!   --seeds N             replications per cell (default 3)
//!   --resume DIR          journal completed jobs in DIR/journal.jsonl and
//!                         skip jobs already recorded there (resumable,
//!                         cached campaigns)
//!   --max-retries N       extra attempts per panicking job before it is
//!                         quarantined (default 0; backoff is recorded in
//!                         the journal, never slept)
//!   --allow-quarantine    exit 0 even when jobs were quarantined (they are
//!                         always reported; without this flag quarantine
//!                         fails the run)
//!   --ci-target W         adaptive replication: keep adding seeds per cell
//!                         until the 95% CI half-width of --ci-metric is <= W
//!                         (min replications = --seeds but at least 2,
//!                         cap = --ci-max)
//!   --ci-metric NAME      metric watched by --ci-target
//!                         (default delivery_ratio)
//!   --ci-max N            replication cap per cell for --ci-target
//!                         (default 32)
//!   --workers N           worker threads (default: available cores)
//!   --format F            table | csv | jsonl        (default table)
//!   --out FILE            write results to FILE instead of stdout
//!   --telemetry           stream windowed per-job telemetry to
//!                         DIR/telemetry.jsonl beside the journal
//!                         (requires --resume DIR)
//!   --telemetry-window S  telemetry window width in sim seconds (default 1)
//!   --telemetry-regions N spatial regions per axis (default 8)
//!   --full                paper-scale variant of catalog campaigns
//!   --quiet               suppress per-job progress on stderr
//!
//! vanet-campaign analyze ...   verdicts from campaign artifacts
//!                              (significance tests, windowed CSV exports
//!                              — see `analyze --help`)
//! ```

use std::process::ExitCode;
use vanet_core::ProtocolKind;
use vanet_runner::{
    campaign_by_name, parse_scenario, protocol_by_name, render_csv, render_jsonl, render_table,
    run_analyze, CampaignPlan, CampaignSpec, ReplicationPolicy, Runner, TelemetrySettings, CATALOG,
};

#[derive(Debug, PartialEq)]
enum Format {
    Table,
    Csv,
    Jsonl,
}

struct Args {
    name: Option<String>,
    scenarios: Vec<String>,
    protocols: Vec<String>,
    seeds: Option<usize>,
    resume: Option<String>,
    max_retries: u32,
    allow_quarantine: bool,
    ci_target: Option<f64>,
    ci_metric: String,
    ci_max: usize,
    workers: Option<usize>,
    format: Format,
    out: Option<String>,
    full: bool,
    quiet: bool,
    list: bool,
    shard: Option<(usize, usize)>,
    telemetry: bool,
    telemetry_window_s: f64,
    telemetry_regions: usize,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: vanet-campaign [NAME] [--scenarios S1,S2] [--protocols P1,P2] \
         [--seeds N] [--resume DIR] [--max-retries N] [--allow-quarantine] \
         [--ci-target W] [--ci-metric NAME] \
         [--ci-max N] [--workers N] [--format table|csv|jsonl] [--out FILE] \
         [--shard I/N] [--telemetry] [--telemetry-window S] \
         [--telemetry-regions N] [--full] [--quiet] [--list]\n       \
         vanet-campaign analyze --journal DIR | --timeseries DIR | \
         --regions DIR (see analyze --help)\n\n\
         campaign telemetry (--telemetry, requires --resume DIR) streams \
         windowed per-job counters\n         to DIR/telemetry.jsonl beside \
         the journal; analyze turns artifacts into verdicts.\n\n\
         catalog campaigns:\n",
    );
    for (name, blurb) in CATALOG {
        text.push_str(&format!("  {name:<10} {blurb}\n"));
    }
    text
}

/// Internal marker distinguishing a help request from a parse error.
const HELP_SENTINEL: &str = "\u{0}help";

/// Splits a `--scenarios` value into specifiers. Commas separate scenarios,
/// but they also separate *options inside* one specifier
/// (`highway-40:fault=node:10..20s,fault=burst:0.5`), so a piece that does
/// not begin a new scenario family is a continuation of the previous one.
fn split_scenarios(raw: &str) -> Vec<String> {
    let starts_family = |piece: &str| {
        ["highway-", "urban-", "megacity-"]
            .iter()
            .any(|family| piece.starts_with(family))
            || matches!(
                piece.split(':').next(),
                Some("sparse" | "normal" | "congested")
            )
    };
    let mut specs: Vec<String> = Vec::new();
    for piece in raw.split(',') {
        match specs.last_mut() {
            Some(last) if !starts_family(piece) => {
                last.push(',');
                last.push_str(piece);
            }
            _ => specs.push(piece.to_owned()),
        }
    }
    specs
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        name: None,
        scenarios: Vec::new(),
        protocols: Vec::new(),
        seeds: None,
        resume: None,
        max_retries: 0,
        allow_quarantine: false,
        ci_target: None,
        ci_metric: "delivery_ratio".to_owned(),
        ci_max: 32,
        workers: None,
        format: Format::Table,
        out: None,
        full: false,
        quiet: false,
        list: false,
        shard: None,
        telemetry: false,
        telemetry_window_s: 1.0,
        telemetry_regions: 8,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--list" => args.list = true,
            "--full" => args.full = true,
            "--quiet" => args.quiet = true,
            "--scenarios" => {
                args.scenarios = split_scenarios(value("--scenarios")?);
            }
            "--protocols" => {
                args.protocols = value("--protocols")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--seeds" => {
                let seeds: usize = value("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds needs an integer".to_owned())?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".to_owned());
                }
                args.seeds = Some(seeds);
            }
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_owned())?,
                );
            }
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "table" => Format::Table,
                    "csv" => Format::Csv,
                    "jsonl" => Format::Jsonl,
                    other => return Err(format!("unknown format {other:?}")),
                };
            }
            "--resume" => args.resume = Some(value("--resume")?.clone()),
            "--max-retries" => {
                args.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| "--max-retries needs an integer".to_owned())?;
            }
            "--allow-quarantine" => args.allow_quarantine = true,
            "--ci-target" => {
                let width: f64 = value("--ci-target")?
                    .parse()
                    .map_err(|_| "--ci-target needs a number (CI half-width)".to_owned())?;
                if !width.is_finite() || width <= 0.0 {
                    return Err("--ci-target must be a positive number".to_owned());
                }
                args.ci_target = Some(width);
            }
            "--ci-metric" => args.ci_metric = value("--ci-metric")?.clone(),
            "--ci-max" => {
                let max: usize = value("--ci-max")?
                    .parse()
                    .map_err(|_| "--ci-max needs an integer".to_owned())?;
                if max == 0 {
                    return Err("--ci-max must be at least 1".to_owned());
                }
                args.ci_max = max;
            }
            "--out" => args.out = Some(value("--out")?.clone()),
            "--shard" => {
                let raw = value("--shard")?;
                let (i, n) = raw
                    .split_once('/')
                    .ok_or_else(|| "--shard needs the form I/N (e.g. 0/4)".to_owned())?;
                let shard = (
                    i.parse()
                        .map_err(|_| "--shard index must be an integer".to_owned())?,
                    n.parse()
                        .map_err(|_| "--shard count must be an integer".to_owned())?,
                );
                if shard.1 == 0 || shard.0 >= shard.1 {
                    return Err(format!("--shard {raw} is out of range (need I < N)"));
                }
                args.shard = Some(shard);
            }
            "--telemetry" => args.telemetry = true,
            "--telemetry-window" => {
                let window: f64 = value("--telemetry-window")?
                    .parse()
                    .map_err(|_| "--telemetry-window needs a number of seconds".to_owned())?;
                if !window.is_finite() || window <= 0.0 {
                    return Err("--telemetry-window must be a positive number".to_owned());
                }
                args.telemetry_window_s = window;
            }
            "--telemetry-regions" => {
                let regions: usize = value("--telemetry-regions")?
                    .parse()
                    .map_err(|_| "--telemetry-regions needs an integer".to_owned())?;
                if regions == 0 {
                    return Err("--telemetry-regions must be at least 1".to_owned());
                }
                args.telemetry_regions = regions;
            }
            "--help" | "-h" => return Err(HELP_SENTINEL.to_owned()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if args.name.is_none() => args.name = Some(name.to_owned()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    Ok(args)
}

fn build_plan(args: &Args) -> Result<CampaignPlan, String> {
    let spec = if !args.scenarios.is_empty() {
        let mut spec = CampaignSpec::new(args.name.clone().unwrap_or_else(|| "custom".to_owned()))
            .replications(args.seeds.unwrap_or(3));
        for label in &args.scenarios {
            let scenario = parse_scenario(label).map_err(|error| error.to_string())?;
            spec = spec.scenario(label.clone(), scenario);
        }
        let protocols = if args.protocols.is_empty() {
            ProtocolKind::REPRESENTATIVES.to_vec()
        } else {
            args.protocols
                .iter()
                .map(|name| {
                    protocol_by_name(name).ok_or_else(|| format!("unknown protocol {name:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        spec.protocols(protocols)
    } else {
        let name = args.name.as_deref().unwrap_or("quick");
        let mut spec = campaign_by_name(name, args.full)
            .ok_or_else(|| format!("unknown campaign {name:?}\n\n{}", usage()))?;
        if let Some(seeds) = args.seeds {
            spec = spec.replications(seeds);
        }
        spec
    };
    let mut plan = spec.to_plan();
    if let Some(target_width) = args.ci_target {
        let min = args.seeds.unwrap_or(3);
        // A confidence width needs two samples, so the policy never runs
        // fewer than two seeds whatever --seeds says.
        let effective_min = min.max(2);
        if args.ci_max < effective_min {
            return Err(format!(
                "--ci-max {} is below the minimum replication count {effective_min} \
                 (--seeds, and at least 2 for --ci-target)",
                args.ci_max
            ));
        }
        plan = plan.with_replication(ReplicationPolicy::confidence_width(
            args.ci_metric.clone(),
            target_width,
            min,
            args.ci_max,
        ));
    }
    Ok(plan)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("analyze") {
        return match run_analyze(&argv[1..]) {
            Ok(report) => {
                print!("{}", report.text);
                if !report.text.ends_with('\n') {
                    println!();
                }
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message == HELP_SENTINEL => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let plan = match build_plan(&args) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(metric) = plan.cells.iter().find_map(|cell| match &cell.replication {
        ReplicationPolicy::ConfidenceWidth { metric, .. }
            if vanet_runner::Summary::default().metric(metric).is_none() =>
        {
            Some(metric.clone())
        }
        _ => None,
    }) {
        eprintln!(
            "unknown --ci-metric {metric:?} (expected one of: {})",
            vanet_runner::METRIC_NAMES.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let mut runner = Runner::new()
        .with_progress(!args.quiet)
        .with_max_retries(args.max_retries);
    if let Some(workers) = args.workers {
        runner = runner.with_workers(workers);
    }
    if let Some((index, count)) = args.shard {
        runner = runner.with_shard(index, count);
    }
    if let Some(dir) = &args.resume {
        runner = runner.with_journal(dir);
    }
    if args.telemetry {
        if args.resume.is_none() {
            eprintln!("--telemetry needs --resume DIR (telemetry.jsonl lives beside the journal)");
            return ExitCode::FAILURE;
        }
        runner = runner.with_telemetry(TelemetrySettings {
            window_s: args.telemetry_window_s,
            regions_per_axis: args.telemetry_regions,
        });
    }
    let results = runner.run_plan(&plan);
    if args.resume.is_some() {
        // Printed even under --quiet: resume/caching behaviour is the one
        // thing scripts (and the CI smoke) need to observe.
        eprintln!(
            "[vanet-campaign] {} jobs executed, {} cached",
            results.executed_jobs, results.cached_jobs
        );
    }

    let rendered = match args.format {
        Format::Table => render_table(&results),
        Format::Csv => render_csv(&results),
        Format::Jsonl => render_jsonl(&results),
    };
    match &args.out {
        None => print!("{rendered}"),
        Some(path) => {
            if let Err(error) = std::fs::write(path, &rendered) {
                eprintln!("cannot write {path:?}: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[vanet-campaign] wrote {} cells to {path}",
                results.cells.len()
            );
        }
    }
    if !results.quarantined.is_empty() {
        eprintln!(
            "[vanet-campaign] {} job(s) quarantined after repeated panics{}",
            results.quarantined.len(),
            if args.allow_quarantine {
                " (tolerated by --allow-quarantine)"
            } else {
                ""
            }
        );
        if !args.allow_quarantine {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{build_plan, parse_args, split_scenarios, usage};

    #[test]
    fn scenario_splitting_keeps_multi_option_specs_together() {
        assert_eq!(
            split_scenarios("highway-12,urban-20:rsus=2"),
            ["highway-12", "urban-20:rsus=2"]
        );
        assert_eq!(
            split_scenarios("highway-40:fault=node:10..20s,fault=burst:0.5,sparse:flows=2,seed=9"),
            [
                "highway-40:fault=node:10..20s,fault=burst:0.5",
                "sparse:flows=2,seed=9"
            ]
        );
        // A leading continuation piece is passed through so the parser can
        // reject it with a proper error.
        assert_eq!(split_scenarios("fault=burst:0.5"), ["fault=burst:0.5"]);
    }

    #[test]
    fn removed_bench_flags_are_rejected() {
        for flag in [
            "--bench",
            "--bench-fleet",
            "--bench-shards",
            "--bench-vehicles",
            "--bench-duration",
            "--bench-label",
            "--bench-gate",
            "--bench-gate-ratio",
        ] {
            assert_eq!(
                parse_args(&[flag.to_owned(), "1".to_owned()]).err(),
                Some(format!("unknown flag {flag:?}"))
            );
        }
        assert!(!usage().contains("bench"), "{}", usage());
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn zero_seeds_are_rejected() {
        assert_eq!(
            parse_args(&argv("--seeds 0")).err(),
            Some("--seeds must be at least 1".to_owned())
        );
    }

    #[test]
    fn ci_max_is_checked_against_the_effective_minimum() {
        // --ci-target runs at least two seeds per cell, so a cap of one
        // cannot be honoured even when --seeds asks for one.
        let plan = |line: &str| build_plan(&parse_args(&argv(line)).expect("flags parse"));
        let error = plan("--ci-target 0.1 --seeds 1 --ci-max 1").expect_err("cap below 2");
        assert!(error.contains("--ci-max 1 is below"), "{error}");
        assert!(plan("--ci-target 0.1 --seeds 1 --ci-max 2").is_ok());
    }
}
