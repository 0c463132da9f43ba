//! Statistical summaries of replicated simulation runs.
//!
//! A [`Summary`] is the one reduction of a cell's per-seed [`Report`]s: for
//! every metric it carries the sample mean, sample standard deviation,
//! minimum, maximum and the half-width of the 95% confidence interval of the
//! mean (Student's t for small replication counts), which is what the
//! paper-style evaluation tables need.

use vanet_core::Report;

/// Five-number statistical summary of one metric over the replications.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Half-width of the 95% confidence interval of the mean
    /// (`t · s / √n`; 0 for a single sample).
    pub ci95: f64,
}

/// Two-sided 95% Student's t critical values for 1..=30 degrees of freedom;
/// beyond that the normal approximation (1.96) is used.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The t critical value for a 95% two-sided interval with `df` degrees of
/// freedom.
#[must_use]
pub fn t_critical_95(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= T95.len() {
        T95[df - 1]
    } else {
        1.96
    }
}

impl SummaryStat {
    /// Computes the summary of a non-empty sample. Returns `None` when
    /// `values` is empty.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Option<SummaryStat> {
        let first = *values.first()?;
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let (mut min, mut max) = (first, first);
        let mut ss = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            let d = v - mean;
            ss += d * d;
        }
        let std_dev = if values.len() < 2 {
            0.0
        } else {
            (ss / (n - 1.0)).sqrt()
        };
        let ci95 = if values.len() < 2 {
            0.0
        } else {
            t_critical_95(values.len() - 1) * std_dev / n.sqrt()
        };
        Some(SummaryStat {
            mean,
            std_dev,
            min,
            max,
            ci95,
        })
    }
}

/// Names of the metrics a [`Summary`] carries, in export order: the names
/// of [`Report::FIELDS`].
pub const METRIC_NAMES: [&str; Report::FIELDS.len()] = {
    let mut names = [""; Report::FIELDS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = Report::FIELDS[i].name();
        i += 1;
    }
    names
};

/// A metric's position in [`METRIC_NAMES`] (and so in [`Report::FIELDS`]).
fn slot(name: &str) -> Option<usize> {
    METRIC_NAMES.iter().position(|n| *n == name)
}

/// Per-metric statistical summary of one experiment cell's replications.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Number of replications summarised.
    pub replications: usize,
    /// One stat per [`Report::FIELDS`] metric, in that order.
    pub(crate) stats: [SummaryStat; Report::FIELDS.len()],
}

impl Summary {
    /// Summarises a set of per-seed reports. Returns `None` for an empty set.
    #[must_use]
    pub fn from_reports(reports: &[Report]) -> Option<Summary> {
        let mut summary = Summary {
            replications: reports.len(),
            ..Summary::default()
        };
        let mut values = Vec::with_capacity(reports.len());
        for (stat, field) in summary.stats.iter_mut().zip(&Report::FIELDS) {
            values.clear();
            values.extend(reports.iter().map(|report| field.value(report)));
            *stat = SummaryStat::from_values(&values)?;
        }
        Some(summary)
    }

    /// The metrics in [`METRIC_NAMES`] order.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, &SummaryStat); Report::FIELDS.len()] {
        std::array::from_fn(|i| (METRIC_NAMES[i], &self.stats[i]))
    }

    /// Looks a metric up by its [`METRIC_NAMES`] name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&SummaryStat> {
        Some(&self.stats[slot(name)?])
    }

    /// Mutable lookup, used when reconstructing a summary from an export.
    pub(crate) fn metric_mut(&mut self, name: &str) -> Option<&mut SummaryStat> {
        Some(&mut self.stats[slot(name)?])
    }

    /// Collapses the summary back to a mean-only [`Report`]: real metrics
    /// are the plain mean, count metrics the mean rounded to the nearest
    /// integer (half away from zero), so the result reads as a typical run.
    #[cfg(test)]
    fn mean_report(&self, protocol: impl Into<String>, scenario: impl Into<String>) -> Report {
        let mut report = Report {
            protocol: protocol.into(),
            scenario: scenario.into(),
            ..Report::default()
        };
        for (stat, field) in self.stats.iter().zip(&Report::FIELDS) {
            match field {
                vanet_core::ReportField::Count(_, _, set) => {
                    set(&mut report, stat.mean.round() as u64)
                }
                vanet_core::ReportField::Real(_, _, set) => set(&mut report, stat.mean),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_core::ReportField;

    #[test]
    fn stat_of_known_sample() {
        let s = SummaryStat::from_values(&[2.0, 4.0, 6.0]).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        // t(df=2) = 4.303, ci = 4.303 * 2 / sqrt(3)
        assert!((s.ci95 - 4.303 * 2.0 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = SummaryStat::from_values(&[5.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(SummaryStat::from_values(&[]), None);
    }

    #[test]
    fn mean_of_no_reports_is_none() {
        assert_eq!(Summary::from_reports(&[]), None);
    }

    #[test]
    fn t_table_shape() {
        assert!(t_critical_95(1) > t_critical_95(2));
        assert!((t_critical_95(100) - 1.96).abs() < 1e-12);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn metric_lookup_covers_all_names() {
        // One name per `Report::FIELDS` row, and `metric()`, `metric_mut()`,
        // `metrics()`, `from_reports()` and `mean_report()` all address the
        // same slot for it — the JSONL parser writes through `metric_mut`,
        // so a gap here would silently zero a parsed metric.
        let mut report = Report::default();
        for (i, field) in Report::FIELDS.iter().enumerate() {
            match field {
                ReportField::Count(_, _, set) => set(&mut report, 10 + i as u64),
                ReportField::Real(_, _, set) => set(&mut report, 10.5 + i as f64),
            }
        }
        let mut summary = Summary::from_reports(&[report.clone()]).unwrap();
        assert_eq!(summary.mean_report("", ""), report);
        for (i, field) in Report::FIELDS.iter().enumerate() {
            let name = METRIC_NAMES[i];
            assert_eq!(name, field.name());
            assert_eq!(summary.metric(name).unwrap().mean, field.value(&report));
            assert_eq!(summary.metrics()[i], (name, summary.metric(name).unwrap()));
            summary.metric_mut(name).unwrap().mean = -1.0;
            assert_eq!(summary.metric(name).unwrap().mean, -1.0, "{name}");
        }
        assert!(summary.metric("nope").is_none());
        assert!(summary.metric_mut("nope").is_none());
    }

    fn tiny_run(seed: u64) -> Report {
        vanet_core::run_scenario(
            vanet_core::Scenario::highway(20)
                .with_seed(seed)
                .with_flows(2)
                .with_duration(vanet_sim::SimDuration::from_secs(15.0)),
            vanet_core::ProtocolKind::Greedy,
        )
    }

    #[test]
    fn mean_of_one_report_is_that_report() {
        let r = tiny_run(1);
        let summary = Summary::from_reports(std::slice::from_ref(&r)).unwrap();
        assert_eq!(
            summary.mean_report(r.protocol.clone(), r.scenario.clone()),
            r
        );
    }

    #[test]
    fn mean_of_two_seeds_lies_between_them() {
        let (a, b) = (tiny_run(1), tiny_run(2));
        let mean = Summary::from_reports(&[a.clone(), b.clone()])
            .unwrap()
            .mean_report("", "");
        let lo = a.delivery_ratio.min(b.delivery_ratio);
        let hi = a.delivery_ratio.max(b.delivery_ratio);
        assert!(mean.delivery_ratio >= lo - 1e-12 && mean.delivery_ratio <= hi + 1e-12);
    }

    #[test]
    fn count_means_round_half_away_from_zero() {
        let one = Report {
            data_sent: 1,
            ..Report::default()
        };
        let two = Report {
            data_sent: 2,
            ..Report::default()
        };
        let mean = Summary::from_reports(&[one, two])
            .unwrap()
            .mean_report("", "");
        assert_eq!(mean.data_sent, 2, "a count mean of 1.5 rounds to 2");
    }
}
