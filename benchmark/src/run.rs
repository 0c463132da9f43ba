//! The untraced pass: repeats of a workload in child processes, reduced to
//! the end-to-end metrics.

use crate::child::Repeat;
use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{sig6, Spread};
use crate::workloads::Workload;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How a pass is sized. A workload is repeated until both limits are met.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seed: u64,
    /// Divides every simulated duration (`--smoke`: 20).
    pub scale: f64,
    pub min_reps: usize,
    pub min_seconds: f64,
}

/// The reduced result of one workload's repeats.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub repeats: Vec<Repeat>,
    /// Operations attempted / failed across all repeats, plus the
    /// digest-agreement check made here.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The input seed of repeat `repeat` of a run with `--seed seed`. Repeat 0
/// runs `seed` itself; later repeats run other inputs generated from it, so
/// one run samples a dozen inputs or more and its values depend little on
/// which seed it was given (host time on the highway and DTN workloads
/// varies by up to 15 % from one seed to the next).
pub fn input_seed(seed: u64, repeat: usize) -> u64 {
    seed.wrapping_add(1000 * repeat as u64)
}

/// Runs one repeat in a fresh process of this binary and parses its line.
fn spawn_child(workload: &Workload, sizing: Sizing, repeat: usize) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // `output()` waits for the child, so no process outlives this call.
    let output = Command::new(exe)
        .args(["child", "--workload", workload.name])
        .args(["--seed", &input_seed(sizing.seed, repeat).to_string()])
        .args(["--scale", &sizing.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Repeat::from_json(&Json::parse(line)?)
}

pub fn run_workload(workload: &'static Workload, sizing: Sizing) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(sizing.min_seconds.max(0.0));
    let mut repeats = Vec::new();
    while repeats.len() + 1 < sizing.min_reps.max(2) || started.elapsed() < budget {
        repeats.push(spawn_child(workload, sizing, repeats.len())?);
    }
    // The last repeat replays the first one's inputs: the same inputs must
    // give the same outputs, or a speed-up cannot be told from a behaviour
    // change. Its timings count like any other repeat's.
    repeats.push(spawn_child(workload, sizing, 0)?);

    let mut attempted: u64 = repeats.iter().map(|r| r.attempted).sum();
    let mut failures: Vec<String> = repeats.iter().flat_map(|r| r.failures.clone()).collect();
    attempted += 1;
    let (first, replay) = (&repeats[0], &repeats[repeats.len() - 1]);
    if (first.digest, first.events) != (replay.digest, replay.events) {
        failures.push(format!(
            "replaying the first repeat gave digest {:016x} / {} events, not {:016x} / {}",
            replay.digest, replay.events, first.digest, first.events
        ));
    }
    Ok(WorkloadResult {
        workload: workload.name,
        repeats,
        attempted,
        failures,
    })
}

impl WorkloadResult {
    /// The five-number spread of one end-to-end metric over the repeats.
    pub fn spread(&self, metric: &EndToEnd) -> Spread {
        let samples: Vec<f64> = self.repeats.iter().map(metric.sample).collect();
        Spread::of(&samples).expect("at least one repeat ran")
    }

    /// The run's value of one end-to-end metric: its repeats reduced the way
    /// the metric table says.
    pub fn value(&self, metric: &EndToEnd) -> f64 {
        let samples: Vec<f64> = self.repeats.iter().map(metric.sample).collect();
        metric.reduce.of(metric.better, &samples)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The line the driver reads: the run's value of each end-to-end metric.
    pub fn driver_line(&self) -> Json {
        driver_line(
            self.correct(),
            self.attempted,
            self.failures.len() as u64,
            END_TO_END.iter().map(|m| (m.name, self.value(m), m.unit)),
        )
    }

    /// Everything about this workload, for the result file `compare` reads.
    pub fn to_json(&self) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let s = self.spread(m);
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("value", Json::Num(self.value(m))),
                    ("n", Json::Num(s.n as f64)),
                    ("min", Json::Num(s.min)),
                    ("q1", Json::Num(s.q1)),
                    ("median", Json::Num(s.median)),
                    ("q3", Json::Num(s.q3)),
                    ("max", Json::Num(s.max)),
                ]),
            )
        });
        Json::obj([
            ("name", Json::str(self.workload)),
            (
                "digest",
                Json::str(format!("{:016x}", self.repeats[0].digest)),
            ),
            ("events", Json::Num(self.repeats[0].events as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failed_share",
                Json::Num(self.failures.len() as f64 / self.attempted as f64),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "repeats",
                Json::Arr(self.repeats.iter().map(Repeat::to_json).collect()),
            ),
        ])
    }

    /// Prints every metric by name with unit, median, quartiles and n.
    pub fn print_table(&self) {
        println!(
            "{}  (n = {} repeats, digest {:016x}, {} events, {} of {} operations failed)",
            self.workload,
            self.repeats.len(),
            self.repeats[0].digest,
            self.repeats[0].events,
            self.failures.len(),
            self.attempted
        );
        for m in &END_TO_END {
            let s = self.spread(m);
            println!(
                "  {:<18} {:>14} {:<5} median {}  q1 {}  q3 {}  min {}  max {}  iqr/median {:.2}%",
                m.name,
                sig6(self.value(m)),
                m.unit,
                sig6(s.median),
                sig6(s.q1),
                sig6(s.q3),
                sig6(s.min),
                sig6(s.max),
                s.iqr_share() * 100.0
            );
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn driver_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}
