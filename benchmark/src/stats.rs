//! Order statistics for small timing samples and a log-bucketed histogram
//! for the millions of per-event latencies a traced run produces.

/// Five-number description of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Some(Spread {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Inter-quartile range as a share of the median: the run-to-run spread
    /// the bounds in `BENCHMARK.json` are sized from.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `value` with six significant digits, for the printed tables: set-up
/// times run from microseconds to seconds.
pub fn sig6(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{:.*}", (5 - magnitude).clamp(0, 12) as usize, value)
}

pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).map_or(0.0, |s| s.median)
}

/// The three quartile cut points of an ascending sample, by the exclusive
/// method Python's `statistics.quantiles(values, n=4)` uses — the driver
/// computes spreads with that function, so the numbers printed here are the
/// numbers it will see. A single sample is its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sub-buckets per power of two: 16 gives bucket edges 6 % apart, well under
/// the run-to-run spread of the latencies it holds.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Fixed-size log-linear histogram of nanosecond latencies: recording is a
/// shift and an increment, so it can sit on the per-event path of a traced
/// run without storing the samples.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            buckets: vec![0; ((64 - SUB_BITS) as usize + 1) * SUB as usize],
            count: 0,
            max: 0,
        }
    }
}

impl NsHistogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        (((exp - SUB_BITS + 1) as u64) * SUB + sub) as usize
    }

    /// Lower edge of bucket `index` (the value reported for a percentile).
    fn lower_edge(index: usize) -> u64 {
        let (row, sub) = (index as u64 / SUB, index as u64 % SUB);
        if row == 0 {
            sub
        } else {
            (SUB + sub) << (row - 1)
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, resolved to its bucket's lower edge.
    pub fn percentile(&self, p: f64) -> u64 {
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_edge(index);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(Spread::of(&[]).is_none());
        let one = Spread::of(&[7.0]).unwrap();
        assert_eq!(
            (one.q1, one.median, one.q3, one.iqr_share()),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn six_significant_digits_at_any_magnitude() {
        assert_eq!(sig6(1.773e-6), "0.00000177300");
        assert_eq!(sig6(5.819_86), "5.81986");
        assert_eq!(sig6(614_569.4), "614569");
        assert_eq!(sig6(0.0), "0.00000");
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = Spread::of(&[9.0, 10.0, 11.0]).unwrap();
        assert!((s.iqr_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_land_within_one_bucket() {
        let mut h = NsHistogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 100_000);
        for (p, exact) in [(50.0, 50_000.0), (99.0, 99_000.0)] {
            let got = h.percentile(p) as f64;
            assert!(got <= exact && got > exact * 0.93, "p{p}: {got} vs {exact}");
        }
        // Edges are monotone and every value maps into its own bucket.
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1_000, u64::MAX] {
            let i = NsHistogram::index(ns);
            assert!(NsHistogram::lower_edge(i) <= ns);
            if i + 1 < h.buckets.len() {
                assert!(NsHistogram::lower_edge(i + 1) > ns);
            }
        }
    }
}
