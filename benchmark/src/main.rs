//! The repo benchmark. See `README.md` beside this package for what is
//! measured and why; `BENCHMARK.json` at the repository root is the contract
//! the driver runs it under.
//!
//! ```text
//! vanet-benchmark run     [--workload W] [--seed N] [--seconds S] [--reps N]
//!                         [--scale D] [--trace 0|1] [--smoke] [--out FILE]
//! vanet-benchmark trace   ...                 same as `run --trace 1`
//! vanet-benchmark compare A.json B.json       apply the bounds, exit 1 on a regression
//! vanet-benchmark manifest                    print BENCHMARK.json from the tables
//! ```

mod child;
mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::Sizing;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Where result files, traces and campaign journals go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    scale: f64,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String], trace: bool) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        reps: 3,
        trace,
        scale: 1.0,
        out: None,
    };
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} takes {what}, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?;
            }
            "--seconds" => options.seconds = number("a number of seconds")?,
            "--reps" => options.reps = number("a count")? as usize,
            "--scale" => options.scale = number("a positive divisor")?.max(1e-9),
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if smoke {
        // Simulated durations divided by 20, one repeat, no minimum time.
        options.scale = 20.0;
        options.reps = 1;
        options.seconds = 0.0;
    }
    Ok(options)
}

/// The machine the numbers came from; written into every result file.
fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        (
            "nproc",
            Json::Num(vanet_sim::pool::available_workers() as f64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        (
            "campaign_workers",
            Json::Num(workloads::campaign_workers() as f64),
        ),
        // The benchmark never sets it; the old BENCH_*.json CI numbers ran
        // with glibc.malloc.hugetlb, so say which this was.
        (
            "glibc_tunables",
            Json::str(std::env::var("GLIBC_TUNABLES").unwrap_or_default()),
        ),
        ("unix_time_s", Json::Num(unix_s as f64)),
    ])
}

fn run_command(options: &Options) -> Result<bool, String> {
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let selected: Vec<&'static Workload> = match options.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    let sizing = Sizing {
        seed: options.seed,
        scale: options.scale,
        min_reps: options.reps,
        min_seconds: options.seconds,
    };

    let mut results = Vec::new();
    for workload in selected {
        let (result_json, line) = if options.trace {
            let traced = trace::run_workload(workload, sizing, &out_dir)?;
            traced.print_table();
            (traced.to_json(), traced.driver_line())
        } else {
            let result = run::run_workload(workload, sizing)?;
            result.print_table();
            (result.to_json(), result.driver_line())
        };
        results.push(result_json);
        // The driver reads the last line of stdout.
        println!("{}", line.render());
    }

    let default_name = if options.trace {
        "trace.json"
    } else {
        "result.json"
    };
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(default_name));
    let file = Json::obj([
        ("host", host_json()),
        ("seed", Json::Num(options.seed as f64)),
        ("scale", Json::Num(options.scale)),
        ("traced", Json::Bool(options.trace)),
        ("workloads", Json::Arr(results)),
    ]);
    std::fs::write(&path, file.render_pretty())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    // A finished measurement exits 0 even when an output check failed: the
    // result line says `"correct": false` and names what failed.
    Ok(true)
}

fn child_command(options: &Options) -> Result<(), String> {
    let workload = options.workload.ok_or("child needs --workload")?;
    let repeat = child::run(workload, options.seed, options.scale, &out_dir())?;
    println!("{}", repeat.to_json().render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match command {
        "run" => parse_options(rest, false).and_then(|o| run_command(&o)),
        "trace" => parse_options(rest, true).and_then(|o| run_command(&o)),
        "child" => parse_options(rest, false).and_then(|o| child_command(&o).map(|()| true)),
        "compare" => match rest {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_owned()),
        },
        "manifest" => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        _ => Err(
            "usage: vanet-benchmark run|trace [--workload W] [--seed N] [--seconds S] \
             [--reps N] [--scale D] [--trace 0|1] [--smoke] [--out FILE] | compare A.json B.json | manifest"
                .to_owned(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A regression found by `compare`.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vanet-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
