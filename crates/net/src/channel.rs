//! Radio propagation models.
//!
//! The probability-model-based family (Sec. VII) builds directly on the
//! "wireless signal strength attenuation model": received power is assumed
//! log-normally distributed around a deterministic path-loss mean, and the
//! reception probability as a function of distance follows. We provide two
//! models:
//!
//! * [`UnitDisk`] — deterministic range `r`: exactly Eq. (4)'s break distance.
//! * [`LogNormalShadowing`] — power-law decay plus log-normal fading, yielding
//!   a smooth reception-probability curve (the REAR receipt-probability model).

use std::fmt::Debug;
use vanet_mobility::distributions::std_normal_cdf;
use vanet_sim::SimRng;

/// A radio propagation model: maps distance to reception probability.
pub trait PropagationModel: Debug {
    /// Probability that a frame transmitted over `distance_m` metres is
    /// received (before MAC-level collisions are considered). Must be in
    /// `[0, 1]` and non-increasing in distance.
    fn reception_probability(&self, distance_m: f64) -> f64;

    /// The nominal communication range in metres: the distance used by
    /// protocols when they reason about link breakage (Eq. 4's `r`).
    fn nominal_range(&self) -> f64;

    /// Samples whether a frame at `distance_m` is received.
    fn sample_reception(&self, distance_m: f64, rng: &mut SimRng) -> bool {
        rng.chance(self.reception_probability(distance_m))
    }

    /// The maximum distance at which reception is possible at all (used to
    /// prune candidate receivers). Defaults to 1.5× the nominal range.
    fn max_range(&self) -> f64 {
        self.nominal_range() * 1.5
    }

    /// Whether reception is certain within `max_range`: the contract is
    /// that for every `distance_m <= self.max_range()` the reception
    /// probability is exactly 1, so [`PropagationModel::sample_reception`]
    /// returns `true` and draws nothing from the RNG. The medium reads it
    /// once per frame and, when it holds, skips the call and computes a
    /// copy's distance only if the copy survives to be delivered. Defaults
    /// to `false`, which is always correct.
    fn certain_within_max_range(&self) -> bool {
        false
    }
}

/// Deterministic unit-disk model: received iff within `range` metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDisk {
    range_m: f64,
}

impl UnitDisk {
    /// Creates a unit-disk model with the given range in metres.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive.
    #[must_use]
    pub fn new(range_m: f64) -> Self {
        assert!(range_m > 0.0, "range must be positive");
        UnitDisk { range_m }
    }
}

impl PropagationModel for UnitDisk {
    fn reception_probability(&self, distance_m: f64) -> f64 {
        if distance_m <= self.range_m {
            1.0
        } else {
            0.0
        }
    }

    fn nominal_range(&self) -> f64 {
        self.range_m
    }

    fn max_range(&self) -> f64 {
        self.range_m
    }

    /// `max_range` is the range itself, inside which the probability is 1.
    fn certain_within_max_range(&self) -> bool {
        true
    }
}

/// Log-normal shadowing: power-law mean path loss plus Gaussian (in dB)
/// shadow fading with standard deviation `sigma_db`.
///
/// The reception probability at distance `d` is
/// `P[X > Pth]` where `X ~ N(P(d), sigma²)`, i.e.
/// `Q((Pth − P(d)) / sigma)` — the standard log-normal link model the REAR
/// protocol computes its receipt probability from. The threshold `Pth` is the
/// mean received power at the nominal range, so with `sigma = 0` the model is
/// a hard SNR threshold on the power-law decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalShadowing {
    nominal_range_m: f64,
    path_loss_exponent: f64,
    sigma_db: f64,
}

impl LogNormalShadowing {
    /// Creates a shadowing model whose mean threshold corresponds to
    /// `nominal_range_m` with path-loss exponent `alpha` (2 for free space,
    /// 2.7–4 for ground reflection / urban), with `sigma_db` dB of shadow
    /// fading.
    ///
    /// # Panics
    ///
    /// Panics if the range or exponent is not positive, or `sigma_db` is
    /// negative.
    #[must_use]
    pub fn new(nominal_range_m: f64, alpha: f64, sigma_db: f64) -> Self {
        assert!(nominal_range_m > 0.0, "range must be positive");
        assert!(alpha > 0.0, "path-loss exponent must be positive");
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        LogNormalShadowing {
            nominal_range_m,
            path_loss_exponent: alpha,
            sigma_db,
        }
    }

    /// Mean received power in dBm at `distance_m` (20 dBm transmitted,
    /// reference: −50 dBm of loss at 1 m).
    fn received_power_dbm(&self, distance_m: f64) -> f64 {
        const TX_POWER_DBM: f64 = 20.0;
        let d = distance_m.max(1.0);
        TX_POWER_DBM - 50.0 - 10.0 * self.path_loss_exponent * d.log10()
    }

    /// The reception threshold in dBm (mean received power at the nominal
    /// range).
    fn threshold_dbm(&self) -> f64 {
        self.received_power_dbm(self.nominal_range_m)
    }
}

impl PropagationModel for LogNormalShadowing {
    fn reception_probability(&self, distance_m: f64) -> f64 {
        let margin_db = self.received_power_dbm(distance_m) - self.threshold_dbm();
        if self.sigma_db == 0.0 {
            return if margin_db >= 0.0 { 1.0 } else { 0.0 };
        }
        std_normal_cdf(margin_db / self.sigma_db)
    }

    fn nominal_range(&self) -> f64 {
        self.nominal_range_m
    }

    fn max_range(&self) -> f64 {
        // Beyond ~2× the nominal range the reception probability is
        // negligible for the sigma values used in the scenarios.
        self.nominal_range_m * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_disk_is_a_step_function() {
        let m = UnitDisk::new(250.0);
        assert_eq!(m.reception_probability(0.0), 1.0);
        assert_eq!(m.reception_probability(250.0), 1.0);
        assert_eq!(m.reception_probability(250.1), 0.0);
        assert_eq!(m.nominal_range(), 250.0);
        assert_eq!(m.max_range(), 250.0);
    }

    /// Only the unit disk claims certain reception within `max_range`, and
    /// it honours the claim: probability 1 up to and at `max_range`, and
    /// `sample_reception` leaves the RNG where it was.
    #[test]
    fn only_the_unit_disk_is_certain_within_max_range() {
        let disk = UnitDisk::new(250.0);
        assert!(disk.certain_within_max_range());
        let (mut rng, mut twin) = (SimRng::new(3), SimRng::new(3));
        for d in [0.0, 1e-9, 125.0, 249.999_999, disk.max_range()] {
            assert_eq!(disk.reception_probability(d), 1.0, "d = {d}");
            assert!(disk.sample_reception(d, &mut rng));
        }
        assert_eq!(rng.next_u64(), twin.next_u64());
        assert!(!LogNormalShadowing::new(250.0, 2.7, 4.0).certain_within_max_range());
    }

    /// Without fading, the power-law mean is a hard threshold at the range.
    #[test]
    fn free_space_threshold_matches_range() {
        let m = LogNormalShadowing::new(300.0, 2.7, 0.0);
        assert_eq!(m.reception_probability(299.0), 1.0);
        assert_eq!(m.reception_probability(301.0), 0.0);
        assert!(m.received_power_dbm(10.0) > m.received_power_dbm(100.0));
    }

    #[test]
    fn shadowing_probability_is_half_at_nominal_range() {
        let m = LogNormalShadowing::new(250.0, 2.7, 4.0);
        let p = m.reception_probability(250.0);
        assert!(
            (p - 0.5).abs() < 1e-3,
            "P at nominal range should be 0.5, got {p}"
        );
        assert!(m.reception_probability(50.0) > 0.99);
        assert!(m.reception_probability(600.0) < 0.05);
    }

    #[test]
    fn shadowing_is_monotone_decreasing() {
        let m = LogNormalShadowing::new(250.0, 2.7, 6.0);
        let mut last = 1.1;
        for d in (0..60).map(|i| i as f64 * 10.0) {
            let p = m.reception_probability(d.max(1.0));
            assert!(p <= last + 1e-12, "not monotone at {d}");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn shadowing_with_zero_sigma_degenerates() {
        let m = LogNormalShadowing::new(250.0, 2.7, 0.0);
        assert_eq!(m.reception_probability(100.0), 1.0);
        assert_eq!(m.reception_probability(400.0), 0.0);
    }

    #[test]
    fn sampling_respects_probability() {
        let m = LogNormalShadowing::new(250.0, 2.7, 4.0);
        let mut rng = SimRng::new(1);
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| m.sample_reception(250.0, &mut rng))
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.5).abs() < 0.03, "sampled frequency {freq}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn unit_disk_rejects_zero_range() {
        let _ = UnitDisk::new(0.0);
    }
}
