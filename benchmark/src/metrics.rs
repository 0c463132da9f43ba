//! The metric tables: the single place a metric's name, unit, direction and
//! bound are written down. `BENCHMARK.json` is rendered from these tables
//! (`-- manifest`), and a test keeps the committed file equal to them.

use crate::child::Repeat;
use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`; negative
    /// when it is better.
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// How one run's repeats become the run's value of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Median,
    /// The mean of the best third of the repeats (at least one). The work
    /// is deterministic and interference from the host's other tenants only
    /// ever adds time, so the slower repeats measure the neighbours; on the
    /// shared host this was sized on, the median moved by up to 19 % between
    /// two ten-run sets of the same binary, this by up to 12 %, and a third
    /// of the repeats averages steadier than the single fastest one
    /// (`README.md`, "Noise").
    FastestThird,
}

impl Reduce {
    /// Reduces `samples` (not empty) of a metric whose better direction is
    /// `better`.
    pub fn of(self, better: Better, samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        match self {
            Reduce::Median => crate::stats::median(&sorted),
            Reduce::FastestThird => {
                if better == Better::Higher {
                    sorted.reverse();
                }
                let best = &sorted[..(sorted.len() + 2) / 3];
                best.iter().sum::<f64>() / best.len() as f64
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen: the
    /// 25 % the driver allows at most for everything timed, because the
    /// shared host these were measured on changes speed by more than that
    /// for minutes at a time (see `README.md` and `baseline/noise.json`).
    pub bound: f64,
    pub reduce: Reduce,
    /// One repeat's sample of the metric.
    pub sample: fn(&Repeat) -> f64,
}

/// All host-side: wall and CPU time of the simulator, not simulated time.
/// `failed_share` is not a metric here because it is 0 on every workload
/// (the driver takes no metric that can read 0); it is carried by the
/// `attempted` / `failed` counts of every result instead.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::FastestThird,
        sample: |r| r.wall_s,
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        reduce: Reduce::FastestThird,
        sample: |r| r.sim_s / r.wall_s,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::FastestThird,
        sample: |r| r.cpu_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        reduce: Reduce::Median,
        sample: |r| r.peak_rss_mb,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        reduce: Reduce::FastestThird,
        sample: |r| r.setup_s,
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric a traced pass emits, grouped by the crate it
/// measures. A metric that does not apply to a workload (the `runner.*`
/// group on a single simulation, say) reads 0 there. `README.md` says which
/// end-to-end metric each one should move, on which workload.
pub const PER_LAYER: [PerLayer; 56] = [
    // vanet-sim
    layer("sim.scheduler.events", "count", Lower),
    layer("sim.scheduler.events_per_s", "1/s", Higher),
    layer("sim.scheduler.push_pop_ns", "ns", Lower),
    layer("sim.pool.parallel_efficiency", "ratio", Higher),
    // vanet-mobility
    layer("mobility.steps", "count", Lower),
    layer("mobility.step_ns_per_vehicle", "ns", Lower),
    layer("mobility.build_s", "s", Lower),
    // vanet-net
    layer("net.grid.update_ns", "ns", Lower),
    layer("net.grid.query_ns", "ns", Lower),
    layer("net.grid.candidates_per_query", "count", Lower),
    layer("net.medium.tx", "count", Lower),
    layer("net.medium.rx", "count", Lower),
    layer("net.medium.rx_per_tx", "ratio", Lower),
    layer("net.medium.collision_rate", "ratio", Lower),
    layer("net.medium.transmit_ns", "ns", Lower),
    layer("net.arena.observe_ns", "ns", Lower),
    layer("net.arena.purge_ns", "ns", Lower),
    layer("net.arena.gained", "count", Lower),
    layer("net.arena.lost", "count", Lower),
    layer("net.arena.neighbors_mean", "count", Lower),
    // vanet-links
    layer("links.lifetime_ns", "ns", Lower),
    layer("links.expected_duration_ns", "ns", Lower),
    // vanet-routing
    layer("routing.induced_share", "ratio", Lower),
    layer("routing.originated", "count", Higher),
    layer("routing.delivered", "count", Higher),
    layer("routing.delivery_ratio", "ratio", Higher),
    layer("routing.drops", "count", Lower),
    layer("routing.control_packets", "count", Lower),
    layer("routing.dtn.bundle_ops", "count", Lower),
    layer("routing.dtn.buffer_peak", "count", Lower),
    layer("routing.dtn.buffer_op_ns", "ns", Lower),
    // vanet-core
    layer("core.build_s", "s", Lower),
    layer("core.substrate_wall_s", "s", Lower),
    layer("core.event_ns_p50", "ns", Lower),
    layer("core.event_ns_p99", "ns", Lower),
    layer("core.event_ns_max", "ns", Lower),
    layer("core.tap_overhead_share", "ratio", Lower),
    layer("core.report_digest_match", "count", Higher),
    layer("core.job_ms_p50", "ms", Lower),
    layer("core.job_ms_p90", "ms", Lower),
    layer("core.plan.key_us", "us", Lower),
    // vanet-runner
    layer("runner.engine.jobs", "count", Higher),
    layer("runner.engine.jobs_per_s", "1/s", Higher),
    layer("runner.journal.record_us", "us", Lower),
    layer("runner.journal.bytes", "count", Lower),
    layer("runner.journal.open_ms", "ms", Lower),
    layer("runner.journal.replay_entries_per_s", "1/s", Higher),
    layer("runner.export.render_jsonl_ms", "ms", Lower),
    layer("runner.export.parse_jsonl_ms", "ms", Lower),
    layer("runner.export.render_csv_ms", "ms", Lower),
    layer("runner.export.bytes", "count", Lower),
    layer("runner.summary.from_reports_us", "us", Lower),
    layer("runner.spec.parse_us", "us", Lower),
    layer("runner.quarantined", "count", Lower),
    // the trace itself
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().copied().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of workloads and metrics: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    fn is_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(is_metric_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| is_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| is_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn fastest_third_takes_the_best_end_in_the_metrics_direction() {
        let samples = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0];
        assert_eq!(Reduce::Median.of(Better::Lower, &samples), 5.0);
        // ceil(7 / 3) = 3 repeats: the three lowest, or the three highest.
        assert_eq!(Reduce::FastestThird.of(Better::Lower, &samples), 2.0);
        assert_eq!(Reduce::FastestThird.of(Better::Higher, &samples), 8.0);
        assert_eq!(Reduce::FastestThird.of(Better::Lower, &[4.0, 6.0]), 4.0);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worse_by(10.0, 9.0) < 0.0);
        assert_eq!(Better::Lower.worse_by(0.0, 1.0), 0.0);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
