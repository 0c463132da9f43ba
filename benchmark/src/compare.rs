//! `compare A.json B.json`: applies the bounds to two result files.
//!
//! A is the base (the parent commit), B the change. Both were measured with
//! the same `--seed`, so repeat `r` of A and repeat `r` of B ran the same
//! inputs: the ratio is taken pair by pair, which takes the inputs' own
//! variation (15 % on some workloads) out of it and leaves host noise.
//! The verdict follows choosing-metrics section 6: worse than the bound is
//! `regressed`; a run-to-run spread wider than the bound is `unresolved`
//! unless every pair moved the same way.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{sig6, Spread};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The pairs disagree on the direction and the run-to-run spread is wider
    /// than the bound: neither "unchanged" nor "regressed" is supported.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload x metric row.
#[derive(Debug, Clone)]
pub struct Row {
    pub base: Spread,
    pub change: Spread,
    /// change / base: the median over pairs.
    pub ratio: f64,
    /// Run-to-run spread: the wider of the two sides' own inter-quartile
    /// ranges, as a share of that side's median.
    pub spread: f64,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges one metric from its paired samples (`base[i]` and `change[i]` ran
/// the same inputs).
pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Option<Row> {
    let pairs = base.len().min(change.len());
    let (base, change) = (&base[..pairs], &change[..pairs]);
    let (base_spread, change_spread) = (Spread::of(base)?, Spread::of(change)?);
    let worse = |ratio: f64| metric.better.worse_by(1.0, ratio);
    let ratios: Vec<f64> = base
        .iter()
        .zip(change)
        .filter(|(b, _)| **b != 0.0)
        .map(|(b, c)| c / b)
        .collect();
    let ratio = Spread::of(&ratios)?.median;
    let spread = base_spread.iqr_share().max(change_spread.iqr_share());
    let interleaved =
        ratios.iter().any(|&r| worse(r) > 0.0) && ratios.iter().any(|&r| worse(r) < 0.0);
    let verdict = if spread > metric.bound && interleaved {
        Verdict::Unresolved
    } else if worse(ratio) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row {
        base: base_spread,
        change: change_spread,
        ratio,
        spread,
        pairs,
        verdict,
    })
}

/// `(input_seed, value)` of `metric` for every repeat of a result file's
/// workload, in run order.
fn samples(workload: &Json, metric: &str) -> Vec<(u64, f64)> {
    workload
        .get("repeats")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| Some((r.num("input_seed").ok()? as u64, r.num(metric).ok()?)))
        .collect()
}

/// Pairs the two files' repeats of one metric by input seed, in run order
/// (a seed that repeats — the replay — pairs with its own repeat).
fn paired(base: &[(u64, f64)], change: &[(u64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let mut used = vec![false; change.len()];
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for &(seed, value) in base {
        let partner = (0..change.len()).find(|&i| !used[i] && change[i].0 == seed);
        if let Some(i) = partner {
            used[i] = true;
            a.push(value);
            b.push(change[i].1);
        }
    }
    (a, b)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    if json.get("traced").and_then(Json::as_bool) == Some(true) {
        return Err(format!(
            "{path:?} is a traced pass; end-to-end numbers come from untraced runs only"
        ));
    }
    Ok(json)
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn compare_files(base_path: &Path, change_path: &Path) -> Result<bool, String> {
    let (base, change) = (load(base_path)?, load(change_path)?);
    for key in ["seed", "scale"] {
        if base.get(key) != change.get(key) {
            return Err(format!(
                "the files were measured with different --{key}: measure base and change with identical settings"
            ));
        }
    }
    let workloads = |file: &'_ Json| -> Vec<(String, Json)> {
        file.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| Some((w.get("name")?.as_str()?.to_owned(), w.clone())))
            .collect()
    };
    let change_workloads = workloads(&change);

    println!("base {base_path:?}  change {change_path:?}  (ratio = change / base, per pair of repeats on the same inputs)");
    let mut all_ok = true;
    for (name, base_json) in workloads(&base) {
        let Some((_, change_json)) = change_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name}: missing from the change file");
            all_ok = false;
            continue;
        };
        println!("{name}");
        for metric in &END_TO_END {
            let (base_values, change_values) = paired(
                &samples(&base_json, metric.name),
                &samples(change_json, metric.name),
            );
            let Some(row) = judge(metric, &base_values, &change_values) else {
                println!("  {:<18} no common inputs to pair", metric.name);
                all_ok = false;
                continue;
            };
            println!(
                "  {:<18} base {} [{}, {}]  change {} [{}, {}] {:<5}  ratio {:.4} of base  spread {:.2}%  bound {:.0}% {}  n={}  {}",
                metric.name,
                sig6(metric.reduce.of(metric.better, &base_values)),
                sig6(row.base.q1),
                sig6(row.base.q3),
                sig6(metric.reduce.of(metric.better, &change_values)),
                sig6(row.change.q1),
                sig6(row.change.q3),
                metric.unit,
                row.ratio,
                row.spread * 100.0,
                metric.bound * 100.0,
                match metric.better {
                    Better::Lower => "up",
                    Better::Higher => "down",
                },
                row.pairs,
                row.verdict.as_str()
            );
            all_ok &= row.verdict != Verdict::Regressed;
        }
        // A gain does not count when more operations fail than at the base.
        let failed = |workload: &Json| workload.num("failed").unwrap_or(0.0);
        if failed(change_json) > failed(&base_json) {
            println!(
                "  failed operations  base {}  change {}  regressed",
                failed(&base_json),
                failed(change_json)
            );
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let wall = end_to_end("wall_s").unwrap();
        let base = [1.0, 2.0, 3.0, 4.0];
        let scaled = |by: f64| base.map(|v| v * by);
        // Inputs differ fourfold, but pair by pair nothing moved.
        let same = judge(wall, &base, &base).unwrap();
        assert_eq!(
            (same.verdict, same.ratio, same.pairs),
            (Verdict::Ok, 1.0, 4)
        );
        assert_eq!(
            judge(wall, &base, &scaled(1.0 + wall.bound / 2.0))
                .unwrap()
                .verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &base, &scaled(1.0 + wall.bound * 2.0))
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(wall, &base, &scaled(0.5)).unwrap().verdict,
            Verdict::Ok
        );
        // Higher-is-better metrics regress downwards.
        let rate = end_to_end("sim_s_per_wall_s").unwrap();
        assert_eq!(
            judge(rate, &base, &scaled(0.5)).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &base, &scaled(2.0)).unwrap().verdict,
            Verdict::Ok
        );
        // Pairs that disagree, spread wider than the bound: unresolved.
        let noisy = [0.5, 4.0, 1.5, 8.0];
        assert_eq!(
            judge(wall, &base, &noisy).unwrap().verdict,
            Verdict::Unresolved
        );
        // Wide spread but every pair worse: that is a regression.
        let all_worse = [1.5, 4.0, 9.0, 6.0];
        assert_eq!(
            judge(wall, &base, &all_worse).unwrap().verdict,
            Verdict::Regressed
        );
        assert!(judge(wall, &[], &[]).is_none());
    }

    #[test]
    fn repeats_pair_by_input_seed_in_run_order() {
        let base = [(1, 10.0), (1001, 20.0), (2001, 30.0), (1, 11.0)];
        let change = [(1, 1.0), (1001, 2.0), (1, 1.1)];
        let (a, b) = paired(&base, &change);
        assert_eq!(a, [10.0, 20.0, 11.0]);
        assert_eq!(b, [1.0, 2.0, 1.1]);
        assert!(paired(&base, &[(7, 1.0)]).0.is_empty());
    }
}
