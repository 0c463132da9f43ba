//! Textual scenario specifiers (`highway-40`, `urban-25`, `sparse`, …).
//!
//! Shared by the `vanet-campaign` CLI and the catalog so campaigns can be
//! parameterised from the command line without a configuration file. Parsing
//! returns a [`ScenarioParseError`] naming the field that was wrong, which
//! the CLI prints verbatim.

use vanet_core::{FaultKind, FaultPlan, Scenario, TrafficRegime};
use vanet_sim::SimDuration;

/// A failed scenario-specifier parse: which specifier, and which part of it
/// was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// The specifier that failed to parse.
    pub spec: String,
    /// What was wrong, naming the offending field or option.
    pub message: String,
}

impl std::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad scenario specifier {:?}: {}",
            self.spec, self.message
        )
    }
}

impl std::error::Error for ScenarioParseError {}

fn error(spec: &str, message: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        spec: spec.to_owned(),
        message: message.into(),
    }
}

fn count(spec: &str, family: &str, raw: &str) -> Result<usize, ScenarioParseError> {
    match raw.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(error(
            spec,
            format!("{family} vehicle count {raw:?} is not a positive integer"),
        )),
    }
}

/// Parses one fault-injection option (`fault=...`) into `plan`.
///
/// Grammar (segments separated by `:`; a window is `<start>..<end>` in
/// simulated seconds, either bound may carry a trailing `s`, an omitted end
/// — `10..` — means "until the end of the run", and an omitted window means
/// the whole run):
///
/// * `node:<id>:<window>` or `node:<window>` (node 0) — vehicle outage;
/// * `rsu:<id>` or `rsu:<id>:<window>` — road-side-unit outage;
/// * `jam:<region>:<loss>` or `jam:<region>:<loss>:<window>` — regional
///   channel jamming with the given extra loss probability;
/// * `burst:<loss>` or `burst:<loss>:<window>` — scenario-wide burst loss;
/// * `panic:<t>s` — deterministic poison (the run panics at `t`), for
///   exercising the campaign quarantine path.
fn parse_fault(spec: &str, value: &str, plan: FaultPlan) -> Result<FaultPlan, ScenarioParseError> {
    let seconds = |raw: &str, field: &str| -> Result<f64, ScenarioParseError> {
        let trimmed = raw.strip_suffix('s').unwrap_or(raw);
        trimmed.parse::<f64>().map_err(|_| {
            error(
                spec,
                format!("fault {field} {raw:?} is not a number of seconds"),
            )
        })
    };
    let window = |raw: &str| -> Result<(f64, f64), ScenarioParseError> {
        let (a, b) = raw.split_once("..").ok_or_else(|| {
            error(
                spec,
                format!("fault window {raw:?} must look like <start>..<end>s"),
            )
        })?;
        let start = seconds(a, "window start")?;
        let end = if b.is_empty() {
            f64::INFINITY
        } else {
            seconds(b, "window end")?
        };
        Ok((start, end))
    };
    let index = |raw: &str, field: &str| -> Result<u32, ScenarioParseError> {
        raw.parse().map_err(|_| {
            error(
                spec,
                format!("fault {field} {raw:?} is not a non-negative integer"),
            )
        })
    };
    let loss = |raw: &str| -> Result<f64, ScenarioParseError> {
        raw.parse().map_err(|_| {
            error(
                spec,
                format!("fault loss {raw:?} is not a probability in 0..=1"),
            )
        })
    };
    let whole_run = (0.0, f64::INFINITY);
    let segments: Vec<&str> = value.split(':').collect();
    Ok(match segments.as_slice() {
        ["node", w] if w.contains("..") => {
            let (start, end) = window(w)?;
            plan.node_outage(0, start, end)
        }
        ["node", id] => plan.node_outage(index(id, "node id")?, whole_run.0, whole_run.1),
        ["node", id, w] => {
            let (start, end) = window(w)?;
            plan.node_outage(index(id, "node id")?, start, end)
        }
        ["rsu", id] => plan.rsu_outage(index(id, "rsu id")?, whole_run.0, whole_run.1),
        ["rsu", id, w] => {
            let (start, end) = window(w)?;
            plan.rsu_outage(index(id, "rsu id")?, start, end)
        }
        ["jam", region, l] => plan.jam(
            index(region, "jam region")?,
            loss(l)?,
            whole_run.0,
            whole_run.1,
        ),
        ["jam", region, l, w] => {
            let (start, end) = window(w)?;
            plan.jam(index(region, "jam region")?, loss(l)?, start, end)
        }
        ["burst", l] => plan.burst_loss(loss(l)?, whole_run.0, whole_run.1),
        ["burst", l, w] => {
            let (start, end) = window(w)?;
            plan.burst_loss(loss(l)?, start, end)
        }
        ["panic", t] => plan.poison(seconds(t, "panic time")?),
        _ => {
            return Err(error(
                spec,
                format!(
                    "unknown fault {value:?} (expected node:[<id>:]<window>, rsu:<id>[:<window>], \
                     jam:<region>:<loss>[:<window>], burst:<loss>[:<window>] or panic:<t>s)"
                ),
            ))
        }
    })
}

/// Parses one scenario specifier:
///
/// * `highway-<N>` — an N-vehicle highway;
/// * `urban-<N>` — an N-vehicle Manhattan grid;
/// * `megacity-<N>` — the density-preserving stress/bench grid (the city
///   grows with the fleet; `megacity-100000` is the fleet-capacity workload);
/// * `disrupted-<N>` — the sparse partition-and-outage highway where
///   connected-path routing fails and store-carry-forward delivers;
/// * `sparse` / `normal` / `congested` — a Table-I highway traffic regime;
/// * an optional `:rsus=<K>` suffix adds K road-side units, e.g.
///   `sparse:rsus=4`; `flows=<N>` and `seed=<N>` work the same way;
/// * `buffer=<slots>`, `ttl=<seconds>` and `copies=<L>` set the DTN
///   store-carry-forward knobs (bundle-buffer capacity, bundle lifetime and
///   the Spray-and-Wait ticket budget); they only affect protocols 18–21;
/// * `fault=<fault>` schedules a deterministic disruption (repeatable), e.g.
///   `fault=node:10..20s`, `fault=rsu:1`, `fault=jam:5:0.9:10..30s`,
///   `fault=burst:0.5:2..4s`, `fault=panic:1s` — see `parse_fault` for the
///   grammar. It adds to the scenario's own faults (the disrupted family's
///   two outages). The assembled [`FaultPlan`] is validated as a whole,
///   rejecting inverted/empty windows, overlapping windows for one target,
///   and outages of a vehicle or RSU the scenario does not have — so
///   `disrupted-1` and `disrupted-2`, whose own outages hit vehicles 1 and
///   2, are rejected too.
///
/// # Errors
///
/// Returns a [`ScenarioParseError`] naming the bad field: the scenario
/// family, the vehicle count (which must be positive), or the offending
/// option key/value.
pub fn parse(spec: &str) -> Result<Scenario, ScenarioParseError> {
    let (base, options) = match spec.split_once(':') {
        Some((b, o)) => (b, Some(o)),
        None => (spec, None),
    };
    let mut scenario = if let Some(raw) = base.strip_prefix("highway-") {
        Scenario::highway(count(spec, "highway", raw)?)
    } else if let Some(raw) = base.strip_prefix("urban-") {
        Scenario::urban(count(spec, "urban", raw)?)
    } else if let Some(raw) = base.strip_prefix("megacity-") {
        Scenario::megacity(count(spec, "megacity", raw)?)
    } else if let Some(raw) = base.strip_prefix("disrupted-") {
        Scenario::disrupted_highway(count(spec, "disrupted", raw)?)
    } else {
        let regime = match base {
            "sparse" => TrafficRegime::Sparse,
            "normal" => TrafficRegime::Normal,
            "congested" => TrafficRegime::Congested,
            other => {
                return Err(error(
                    spec,
                    format!(
                        "unknown scenario family {other:?} (expected highway-<N>, urban-<N>, \
                         megacity-<N>, disrupted-<N>, sparse, normal or congested)"
                    ),
                ))
            }
        };
        Scenario::highway_regime(regime)
    };
    // `fault=` options add to the scenario's own plan (the disrupted
    // highway's outages).
    let mut faults = scenario.faults.clone();
    if let Some(options) = options {
        for option in options.split(',') {
            let Some((key, value)) = option.split_once('=') else {
                return Err(error(
                    spec,
                    format!("option {option:?} is missing its '=<value>'"),
                ));
            };
            let integer = |field: &str| -> Result<u64, ScenarioParseError> {
                value.parse().map_err(|_| {
                    error(
                        spec,
                        format!("option {field} has non-integer value {value:?}"),
                    )
                })
            };
            match key {
                "rsus" => scenario = scenario.with_rsus(integer("rsus")? as usize),
                "flows" => scenario = scenario.with_flows(integer("flows")? as usize),
                "seed" => scenario = scenario.with_seed(integer("seed")?),
                "buffer" => scenario = scenario.with_dtn_buffer(integer("buffer")? as usize),
                "ttl" => {
                    let raw = value.strip_suffix('s').unwrap_or(value);
                    let secs: f64 = raw.parse().map_err(|_| {
                        error(spec, format!("option ttl has non-numeric value {value:?}"))
                    })?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(error(
                            spec,
                            format!(
                                "option ttl must be a positive number of seconds, got {value:?}"
                            ),
                        ));
                    }
                    scenario = scenario.with_dtn_ttl(SimDuration::from_secs(secs));
                }
                "copies" => {
                    let copies = u32::try_from(integer("copies")?).map_err(|_| {
                        error(
                            spec,
                            format!("option copies={value} exceeds the limit of {}", u32::MAX),
                        )
                    })?;
                    scenario = scenario.with_dtn_copies(copies);
                }
                "fault" => faults = parse_fault(spec, value, faults)?,
                other => {
                    return Err(error(
                        spec,
                        format!(
                            "unknown option {other:?} (expected rsus, flows, seed, buffer, ttl, \
                             copies or fault)"
                        ),
                    ))
                }
            }
        }
    }
    // Node ids (vehicles, then RSUs) and flow ids are `u32`s.
    let id_limit = u32::MAX as usize + 1;
    let nodes = scenario.vehicle_count().checked_add(scenario.rsu_count);
    if nodes.map_or(true, |n| n > id_limit) {
        return Err(error(
            spec,
            format!(
                "{} vehicles plus rsus={} exceed the limit of {id_limit} nodes",
                scenario.vehicle_count(),
                scenario.rsu_count
            ),
        ));
    }
    if scenario.flows > id_limit {
        return Err(error(
            spec,
            format!(
                "option flows={} exceeds the limit of {id_limit}",
                scenario.flows
            ),
        ));
    }
    if !faults.is_empty() {
        faults
            .validate()
            .map_err(|fault_error| error(spec, format!("invalid fault plan: {fault_error}")))?;
        // An outage of a node the scenario does not have, whether an option
        // or the scenario itself scheduled it, would be dropped at build and
        // the run would go as if the fault were absent.
        for fault in &faults.faults {
            let (target, limit, unit) = match fault.kind {
                FaultKind::NodeOutage { node } => (node, scenario.vehicle_count(), "vehicles"),
                FaultKind::RsuOutage { rsu } => (rsu, scenario.rsu_count, "rsus"),
                _ => continue,
            };
            if target as usize >= limit {
                return Err(error(
                    spec,
                    format!(
                        "fault {} is outside the scenario's {limit} {unit} (valid ids: 0..{limit})",
                        fault.kind.target_desc()
                    ),
                ));
            }
        }
        scenario = scenario.with_faults(faults);
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_families() {
        assert_eq!(parse("highway-40").unwrap().vehicle_count(), 40);
        assert_eq!(parse("urban-25").unwrap().vehicle_count(), 25);
        assert_eq!(parse("megacity-50").unwrap().vehicle_count(), 50);
        assert_eq!(parse("megacity-50").unwrap().name, "megacity-50");
        assert!(parse("sparse").unwrap().name.contains("sparse"));
        assert!(parse("congested").is_ok());
    }

    #[test]
    fn parses_option_suffixes() {
        let s = parse("sparse:rsus=4,flows=5,seed=9").unwrap();
        assert_eq!(s.rsu_count, 4);
        assert_eq!(s.flows, 5);
        assert_eq!(s.seed, 9);
        // The largest seed a specifier can name still expands into jobs:
        // replicate seeds wrap instead of overflowing.
        let top = parse("highway-12:seed=18446744073709551615").unwrap();
        let plan = vanet_core::CampaignPlan::new("edge").cell_with(
            "l",
            top,
            vanet_core::ProtocolKind::Greedy,
            vanet_core::ReplicationPolicy::Fixed(2),
        );
        let seeds: Vec<u64> = plan
            .initial_jobs()
            .iter()
            .map(|j| j.scenario.seed)
            .collect();
        assert_eq!(seeds, vec![u64::MAX, 0]);
    }

    /// A `fault=` option joins the disrupted highway's own two outages;
    /// without one, the parsed scenario is the built-in one, hash and all.
    #[test]
    fn fault_options_add_to_the_scenarios_own_plan() {
        let s = parse("disrupted-16:fault=burst:0.5").unwrap();
        assert_eq!(s.faults.faults.len(), 3);
        assert_eq!(
            s.faults.faults[..2],
            parse("disrupted-16").unwrap().faults.faults
        );
        assert_eq!(s.faults.faults[2].kind, FaultKind::BurstLoss { loss: 0.5 });
        // The `dtn-epidemic` benchmark spec names no `fault=`: its plan and
        // hash are the built-in scenario's.
        let dtn = parse("disrupted-60:flows=8,ttl=20").unwrap();
        assert_eq!(dtn.faults.faults.len(), 2);
        assert_eq!(dtn.content_hash(), 0x0ced_8af4_c840_84ac);
    }

    /// The disrupted family's own outages target vehicles 1 and 2, which a
    /// fleet of one or two does not have.
    #[test]
    fn disrupted_fleets_too_small_for_their_outages_are_rejected() {
        let err = parse("disrupted-2").unwrap_err();
        assert!(err.message.contains("fault node 2"), "{err}");
        assert!(err.message.contains("2 vehicles"), "{err}");
        let err = parse("disrupted-1").unwrap_err();
        assert!(err.message.contains("fault node 1"), "{err}");
        assert!(parse("disrupted-3").is_ok());
    }

    #[test]
    fn parses_the_disrupted_family_and_dtn_knobs() {
        let s = parse("disrupted-16").unwrap();
        assert_eq!(s.vehicle_count(), 16);
        assert!(s.name.contains("disrupted"));
        assert!(!s.faults.is_empty(), "disrupted highway schedules outages");

        let s = parse("highway-20:buffer=64,ttl=45s,copies=4").unwrap();
        assert_eq!(s.dtn.buffer_capacity, 64);
        assert_eq!(s.dtn.bundle_ttl, SimDuration::from_secs(45.0));
        assert_eq!(s.dtn.copies, 4);
        // The bare-number ttl spelling works too.
        assert_eq!(
            parse("highway-20:ttl=45").unwrap().dtn.bundle_ttl,
            SimDuration::from_secs(45.0)
        );

        let err = parse("highway-20:ttl=soon").unwrap_err();
        assert!(err.message.contains("ttl"), "{err}");
        let err = parse("highway-20:ttl=-3").unwrap_err();
        assert!(err.message.contains("positive"), "{err}");
        let err = parse("highway-20:buffer=lots").unwrap_err();
        assert!(err.message.contains("buffer"), "{err}");
    }

    #[test]
    fn counts_beyond_u32_ids_are_rejected() {
        let err = parse("disrupted-20:copies=4294967297").unwrap_err();
        assert!(err.message.contains("copies"), "{err}");
        assert!(err.message.contains("4294967295"), "{err}");
        let err = parse("highway-4294967297").unwrap_err();
        assert!(err.message.contains("rsus"), "{err}");
        assert!(err.message.contains("4294967296 nodes"), "{err}");
        let err = parse("highway-4294967296:rsus=1").unwrap_err();
        assert!(err.message.contains("4294967296 nodes"), "{err}");
        let err = parse("highway-20:flows=4294967297").unwrap_err();
        assert!(err.message.contains("flows"), "{err}");
        assert!(err.message.contains("4294967296"), "{err}");
        // The largest counts whose ids fit still parse.
        assert_eq!(
            parse("disrupted-20:copies=4294967295").unwrap().dtn.copies,
            u32::MAX
        );
        assert!(parse("highway-20:flows=4294967296").is_ok());
    }

    #[test]
    fn errors_name_the_bad_field() {
        let err = parse("highway-").unwrap_err();
        assert!(err.message.contains("highway vehicle count"), "{err}");
        let err = parse("moon-base").unwrap_err();
        assert!(err.message.contains("unknown scenario family"), "{err}");
        assert!(err.message.contains("moon-base"), "{err}");
        let err = parse("sparse:warp=9").unwrap_err();
        assert!(err.message.contains("unknown option \"warp\""), "{err}");
        let err = parse("sparse:rsus=many").unwrap_err();
        assert!(err.message.contains("rsus"), "{err}");
        assert!(err.message.contains("many"), "{err}");
        let err = parse("sparse:rsus").unwrap_err();
        assert!(err.message.contains("missing its '=<value>'"), "{err}");
        // Display includes the full specifier for CLI output.
        assert!(err.to_string().contains("sparse:rsus"), "{err}");
    }

    #[test]
    fn parses_fault_options() {
        use vanet_core::FaultKind;
        let s = parse("highway-20:fault=node:10..20s").unwrap();
        assert_eq!(s.faults.faults.len(), 1);
        assert_eq!(s.faults.faults[0].kind, FaultKind::NodeOutage { node: 0 });
        assert_eq!(s.faults.faults[0].start_s, 10.0);
        assert_eq!(s.faults.faults[0].end_s, 20.0);

        let s = parse("highway-20:rsus=2,fault=node:3:5s..,fault=rsu:1,fault=jam:5:0.9:10..30s")
            .unwrap();
        assert_eq!(s.faults.faults.len(), 3);
        assert_eq!(s.faults.faults[0].kind, FaultKind::NodeOutage { node: 3 });
        assert_eq!(s.faults.faults[0].start_s, 5.0);
        assert!(s.faults.faults[0].end_s.is_infinite());
        assert_eq!(s.faults.faults[1].kind, FaultKind::RsuOutage { rsu: 1 });
        assert!(s.faults.faults[1].end_s.is_infinite());
        assert_eq!(
            s.faults.faults[2].kind,
            FaultKind::Jam {
                region: 5,
                loss: 0.9
            }
        );

        let s = parse("sparse:fault=burst:0.5:2..4s,seed=7").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.faults.faults[0].kind, FaultKind::BurstLoss { loss: 0.5 });

        let s = parse("highway-8:fault=panic:1s").unwrap();
        assert_eq!(s.faults.faults[0].kind, FaultKind::Poison);
        assert_eq!(s.faults.faults[0].start_s, 1.0);
    }

    #[test]
    fn fault_errors_name_the_bad_field() {
        let err = parse("highway-20:fault=warp:1..2s").unwrap_err();
        assert!(err.message.contains("unknown fault"), "{err}");
        let err = parse("highway-20:fault=node:3:banana..2s").unwrap_err();
        assert!(err.message.contains("not a number of seconds"), "{err}");
        let err = parse("highway-20:fault=node:3:10s").unwrap_err();
        assert!(err.message.contains("<start>..<end>s"), "{err}");
        let err = parse("highway-20:fault=jam:x:0.5").unwrap_err();
        assert!(err.message.contains("jam region"), "{err}");
        // Inverted and overlapping windows are rejected by whole-plan
        // validation with the precise message from FaultPlan::validate.
        let err = parse("highway-20:fault=node:3:20..10s").unwrap_err();
        assert!(err.message.contains("invalid fault plan"), "{err}");
        let err = parse("highway-20:fault=node:3:5..15s,fault=node:3:10..20s").unwrap_err();
        assert!(err.message.contains("overlap"), "{err}");
        assert!(err.message.contains("invalid fault plan"), "{err}");
        let err = parse("highway-20:fault=burst:1.5").unwrap_err();
        assert!(err.message.contains("invalid fault plan"), "{err}");
    }

    #[test]
    fn empty_fleets_and_absent_fault_targets_are_rejected() {
        for family in ["highway", "urban", "megacity", "disrupted"] {
            let err = parse(&format!("{family}-0")).unwrap_err();
            assert!(
                err.message.contains(&format!(
                    "{family} vehicle count \"0\" is not a positive integer"
                )),
                "{err}"
            );
        }
        let err = parse("highway-5:fault=node:999").unwrap_err();
        assert!(err.message.contains("fault node 999"), "{err}");
        assert!(err.message.contains("5 vehicles"), "{err}");
        let err = parse("highway-5:rsus=2,fault=rsu:7").unwrap_err();
        assert!(err.message.contains("fault rsu 7"), "{err}");
        assert!(err.message.contains("2 rsus"), "{err}");
        // Without rsus= the scenario has none, so any RSU outage is absent.
        assert!(parse("highway-5:fault=rsu:0").is_err());
        // The last id of each kind is still a target.
        assert!(parse("highway-5:rsus=2,fault=node:4,fault=rsu:1").is_ok());
    }
}
