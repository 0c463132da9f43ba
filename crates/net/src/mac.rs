//! Simplified contention-based MAC (CSMA/CA broadcast).
//!
//! We do not simulate per-slot 802.11p behaviour; instead the MAC model
//! captures the three effects that matter at the routing layer:
//!
//! * **Serialisation delay** — a frame of `b` bytes at `data_rate` bit/s takes
//!   `8·b / rate` seconds to transmit.
//! * **Contention delay** — a uniformly distributed backoff whose upper bound
//!   grows with the recent channel load.
//! * **Collision loss** — the probability that a frame is lost grows with the
//!   number of concurrent transmissions heard at the receiver. This is the
//!   mechanism behind the broadcast-storm degradation of flooding protocols.

use vanet_sim::{SimDuration, SimRng};

/// Parameters of the simplified MAC layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Link data rate in bits per second (6 Mb/s DSRC default).
    pub data_rate_bps: f64,
    /// Base (minimum) contention window in seconds.
    pub min_backoff_s: f64,
    /// Additional backoff per concurrently contending transmission, seconds.
    pub backoff_per_contender_s: f64,
    /// Per-interfering-transmission collision probability: a frame survives
    /// each overlapping transmission independently with probability
    /// `1 − collision_probability`.
    pub collision_probability: f64,
    /// Length of the window over which transmissions are counted as
    /// "concurrent" for contention/collision purposes, in seconds.
    pub contention_window_s: f64,
    /// Propagation speed in metres per second (speed of light).
    pub propagation_speed_mps: f64,
    /// Fixed per-frame processing delay in seconds (driver + queueing).
    pub processing_delay_s: f64,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            data_rate_bps: 6_000_000.0,
            min_backoff_s: 0.000_2,
            backoff_per_contender_s: 0.000_5,
            collision_probability: 0.06,
            contention_window_s: 0.01,
            propagation_speed_mps: 299_792_458.0,
            processing_delay_s: 0.000_3,
        }
    }
}

impl MacParams {
    /// An idealised MAC with no contention and no collisions: useful for
    /// isolating routing-layer behaviour in unit tests.
    #[must_use]
    pub fn ideal() -> Self {
        MacParams {
            collision_probability: 0.0,
            min_backoff_s: 0.0,
            backoff_per_contender_s: 0.0,
            processing_delay_s: 0.0,
            ..Self::default()
        }
    }

    /// Serialisation (transmission) delay for a frame of `bytes`.
    #[must_use]
    pub fn transmission_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs((bytes as f64) * 8.0 / self.data_rate_bps)
    }

    /// Propagation delay over `distance_m` metres.
    #[must_use]
    pub fn propagation_delay(&self, distance_m: f64) -> SimDuration {
        SimDuration::from_secs(distance_m.max(0.0) / self.propagation_speed_mps)
    }

    /// Samples the contention backoff given `contenders` recent transmissions.
    #[must_use]
    pub fn sample_backoff(&self, contenders: usize, rng: &mut SimRng) -> SimDuration {
        let upper = self.min_backoff_s + self.backoff_per_contender_s * contenders as f64;
        if upper <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs(rng.uniform_range(0.0, upper))
    }

    /// Probability that a frame survives `interferers` overlapping
    /// transmissions at the receiver.
    #[must_use]
    pub fn survival_probability(&self, interferers: usize) -> f64 {
        (1.0 - self.collision_probability).powi(interferers as i32)
    }

    /// Samples whether a frame survives collisions from `interferers`
    /// overlapping transmissions.
    #[must_use]
    pub fn sample_collision_survival(&self, interferers: usize, rng: &mut SimRng) -> bool {
        rng.chance(self.survival_probability(interferers))
    }

    /// End-to-end single-hop latency (processing + backoff upper bound +
    /// serialisation + propagation) used by protocols when they estimate
    /// per-hop delay without sampling.
    #[must_use]
    pub fn nominal_hop_delay(&self, bytes: usize, distance_m: f64) -> SimDuration {
        SimDuration::from_secs(self.processing_delay_s + self.min_backoff_s)
            + self.transmission_delay(bytes)
            + self.propagation_delay(distance_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_delay_scales_with_size() {
        let mac = MacParams::default();
        let small = mac.transmission_delay(100);
        let large = mac.transmission_delay(1_000);
        assert!(large.as_secs() > small.as_secs());
        // 1000 bytes at 6 Mb/s = 8000/6e6 s ≈ 1.33 ms
        assert!((large.as_secs() - 8_000.0 / 6_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn propagation_delay_is_tiny_but_positive() {
        let mac = MacParams::default();
        let d = mac.propagation_delay(300.0);
        assert!(d.as_secs() > 0.0);
        assert!(d.as_secs() < 1e-5);
        assert_eq!(mac.propagation_delay(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn survival_decreases_with_interferers() {
        let mac = MacParams::default();
        assert_eq!(mac.survival_probability(0), 1.0);
        let mut last = 1.0;
        for k in 1..20 {
            let p = mac.survival_probability(k);
            assert!(p < last);
            last = p;
        }
    }

    #[test]
    fn ideal_mac_never_collides() {
        let mac = MacParams::ideal();
        let mut rng = SimRng::new(1);
        assert_eq!(mac.survival_probability(50), 1.0);
        assert!(mac.sample_collision_survival(50, &mut rng));
        assert_eq!(mac.sample_backoff(10, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_with_contention() {
        let mac = MacParams::default();
        let mut rng = SimRng::new(2);
        let mut low = 0.0;
        let mut high = 0.0;
        for _ in 0..200 {
            low += mac.sample_backoff(0, &mut rng).as_secs();
            high += mac.sample_backoff(20, &mut rng).as_secs();
        }
        assert!(high > low * 2.0, "mean backoff should grow with contenders");
    }

    #[test]
    fn nominal_hop_delay_is_sum_of_parts() {
        let mac = MacParams::default();
        let d = mac.nominal_hop_delay(500, 200.0);
        assert!(d.as_secs() > mac.transmission_delay(500).as_secs());
        assert!(d.as_secs() < 0.01);
    }
}
