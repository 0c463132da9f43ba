//! In-house probability distributions.
//!
//! The survey's probability-model-based protocols assume speed and
//! acceleration are normally distributed (Sec. VII-A). Rather than pulling
//! in an extra dependency we implement the normal sampler the mobility
//! models draw speeds from and the standard normal CDF the link models
//! read, and test them against their analytic values.

use vanet_sim::SimRng;

/// Normal (Gaussian) distribution, sampled with the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        Normal { mu, sigma }
    }

    /// Cumulative distribution function at `x`.
    #[cfg(test)]
    #[must_use]
    fn cdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x >= self.mu { 1.0 } else { 0.0 };
        }
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.sigma == 0.0 {
            return self.mu;
        }
        // Box–Muller transform.
        let u1 = rng.uniform().max(f64::MIN_POSITIVE);
        let u2 = rng.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mu + self.sigma * r * theta.cos()
    }
}

/// Normal distribution truncated to `[low, high]`, sampled by rejection.
///
/// Used for vehicle speeds: a speed is normally distributed around the lane's
/// cruise speed but physically bounded by 0 and the speed limit `v_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TruncatedNormal {
    inner: Normal,
    low: f64,
    high: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal on `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `sigma < 0`.
    #[must_use]
    pub fn new(mu: f64, sigma: f64, low: f64, high: f64) -> Self {
        assert!(low < high, "truncation range must be non-empty");
        TruncatedNormal {
            inner: Normal::new(mu, sigma),
            low,
            high,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // Rejection sampling with a clamped fallback: for the parameters used
        // in the scenarios (mu well inside the range) rejection terminates in
        // a couple of iterations; the fallback guarantees termination.
        for _ in 0..64 {
            let x = self.inner.sample(rng);
            if x >= self.low && x <= self.high {
                return x;
            }
        }
        self.inner.sample(rng).clamp(self.low, self.high)
    }
}

/// The error function, via the Abramowitz–Stegun 7.1.26 rational approximation
/// (absolute error < 1.5e-7, ample for reception-probability curves).
#[must_use]
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254_829_592;
    let a2 = -0.284_496_736;
    let a3 = 1.421_413_741;
    let a4 = -1.453_152_027;
    let a5 = 1.061_405_429;
    let p = 0.327_591_1;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(s: &Normal, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::new(seed);
        let mut stats = vanet_sim::RunningStats::new();
        for _ in 0..n {
            stats.record(s.sample(&mut rng));
        }
        (stats.mean(), stats.variance())
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(25.0, 4.0);
        let (m, v) = sample_stats(&d, 40_000, 1);
        assert!((m - 25.0).abs() < 0.1, "mean {m}");
        assert!((v - 16.0).abs() < 0.6, "variance {v}");
    }

    #[test]
    fn normal_pdf_cdf() {
        let d = Normal::new(0.0, 1.0);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((d.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(d.cdf(5.0) > d.cdf(-5.0));
        let degenerate = Normal::new(2.0, 0.0);
        assert_eq!(degenerate.cdf(1.9), 0.0);
        assert_eq!(degenerate.cdf(2.1), 1.0);
        let mut rng = SimRng::new(2);
        assert_eq!(degenerate.sample(&mut rng), 2.0);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let d = TruncatedNormal::new(30.0, 10.0, 0.0, 36.0);
        let mut rng = SimRng::new(3);
        for _ in 0..5_000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=36.0).contains(&x), "sample {x} out of bounds");
        }
        assert_eq!((d.low, d.high), (0.0, 36.0));
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((std_normal_cdf(1.644_85) - 0.95).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn truncated_normal_rejects_empty_range() {
        let _ = TruncatedNormal::new(0.0, 1.0, 5.0, 5.0);
    }
}
