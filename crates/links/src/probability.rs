//! Probability models for link reliability (Sec. VII).
//!
//! These are the models underlying the probability-model-based family:
//!
//! * [`expected_link_duration`] / [`mean_link_duration`] — Yan et al.'s ticket
//!   metric: the expected (and mean, i.e. "stability") duration of a link when
//!   the relative speed is normally distributed.
//! * [`link_availability`] — Jiang/Rao-style prediction: the probability that
//!   a link alive now is still alive after `t` seconds (used by NiuDe and
//!   GVGrid for QoS route selection).
//! * [`segment_connectivity_probability`] — CAR's per-road-segment model: the
//!   probability that consecutive vehicles on a segment are all within range,
//!   assuming exponential inter-vehicle spacing.
//! * [`receipt_probability`] — REAR's receipt probability from the log-normal
//!   shadowing signal-strength model.

// lint: hot-path

use std::sync::OnceLock;
use vanet_mobility::distributions::std_normal_cdf;

/// A probabilistic model of one link's remaining duration, built from the
/// mobility information a node has about a neighbour (relative speed mean and
/// standard deviation, current gap to the range boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDurationModel {
    /// Mean relative speed along the link axis, m/s (signed: positive means
    /// the vehicles are separating towards the break boundary).
    pub relative_speed_mean: f64,
    /// Standard deviation of the relative speed, m/s.
    pub relative_speed_std: f64,
    /// Current separation `d_0`, metres (signed, |d_0| ≤ range).
    pub separation: f64,
    /// Communication range `r`, metres.
    pub range: f64,
}

impl LinkDurationModel {
    /// Creates a model; the separation is clamped into `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `range <= 0` or `relative_speed_std < 0`.
    #[must_use]
    pub fn new(
        relative_speed_mean: f64,
        relative_speed_std: f64,
        separation: f64,
        range: f64,
    ) -> Self {
        assert!(range > 0.0, "range must be positive");
        assert!(relative_speed_std >= 0.0, "std must be non-negative");
        LinkDurationModel {
            relative_speed_mean,
            relative_speed_std,
            separation: separation.clamp(-range, range),
            range,
        }
    }

    /// Expected link duration under this model (see [`expected_link_duration`]).
    #[must_use]
    pub fn expected_duration(&self) -> f64 {
        expected_link_duration(
            self.separation,
            self.relative_speed_mean,
            self.relative_speed_std,
            self.range,
        )
    }

    /// Probability the link is still alive after `t` seconds
    /// (see [`link_availability`]).
    #[must_use]
    pub fn availability(&self, t: f64) -> f64 {
        link_availability(
            self.separation,
            self.relative_speed_mean,
            self.relative_speed_std,
            self.range,
            t,
        )
    }
}

/// Lifetimes are capped here, seconds: a link whose relative speed is
/// (almost) zero is effectively unbounded.
const CAP: f64 = 3_600.0;

/// Half-width of the dead band around `v = 0` inside which the lifetime is
/// the cap, m/s.
const DEAD_BAND: f64 = 1e-3;

/// The speed grid of [`expected_link_duration`]: `STEPS` equal steps across
/// `mean ± SPAN·σ`, so `STEPS + 1` samples.
const STEPS: usize = 2_000;
const SPAN: f64 = 6.0;

/// Constant-speed lifetime of a link at (clamped) separation `d0` when the
/// relative speed is exactly `v`: `(r − d₀)/v` when separating (`v > 0`),
/// `(r + d₀)/|v|` when closing, capped at [`CAP`], and the cap itself inside
/// the dead band.
#[inline]
fn constant_speed_lifetime(d0: f64, v: f64, range: f64) -> f64 {
    if v.abs() < DEAD_BAND {
        CAP
    } else if v > 0.0 {
        ((range - d0) / v).min(CAP)
    } else {
        ((range + d0) / -v).min(CAP)
    }
}

/// The standard-normal trapezoid weights on the fixed abscissae
/// `z_k = −SPAN + 2·SPAN·k/STEPS` (`exp(−z_k²/2)`, endpoints halved) and
/// their ascending-`k` sum. One table for the process: it is filled from the
/// closed-form `z_k`, so every thread sees the same bits.
fn quadrature_weights() -> &'static ([f64; STEPS + 1], f64) {
    static TABLE: OnceLock<([f64; STEPS + 1], f64)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut weights = [0.0; STEPS + 1];
        for (k, w) in weights.iter_mut().enumerate() {
            let z = -SPAN + 2.0 * SPAN * k as f64 / STEPS as f64;
            *w = (-0.5 * z * z).exp();
        }
        weights[0] *= 0.5;
        weights[STEPS] *= 0.5;
        let total = weights.iter().sum();
        (weights, total)
    })
}

/// Expected link duration `E[T]` when the relative speed `V` is
/// `Normal(mean, std)`: for each realisation `v`, the deterministic
/// constant-speed lifetime is `(r − d₀)/v` when separating (`v > 0`) and
/// `(r + d₀)/|v|` when closing; the expectation is the trapezoid sum of that
/// lifetime against the normal density over `mean ± 6σ` in 2,000 equal
/// steps, excluding a small dead band around `v = 0` where the lifetime is
/// effectively unbounded and capped at `cap = 3600 s`.
///
/// The samples `v_k = mean − 6σ + k·(12σ/2000)` depend on the arguments, but
/// their standardised abscissae `z_k = −6 + 12k/2000` do not, so the density
/// weights `exp(−z_k²/2)` are the same 2,001 numbers on every call and come
/// from a process-wide table; the normalising constant `1/(σ√2π)` is common
/// to the weighted sum and the weight total and cancels in their quotient.
/// A call is therefore one division per sample and no transcendental. The
/// result agrees with the previous formulation — `Normal::pdf` evaluated at
/// each `v_k` — to ≤ 1e-12 relative (that one took `exp` of the *rounded*
/// `(v_k − mean)/σ`), and is a pure function of its arguments.
///
/// Returns the constant-speed lifetime at `mean` when `std == 0`.
///
/// # Panics
///
/// Panics if `range <= 0` or `std < 0`.
#[must_use]
pub fn expected_link_duration(separation: f64, mean: f64, std: f64, range: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(std >= 0.0, "std must be non-negative");
    let d0 = separation.clamp(-range, range);
    if std == 0.0 {
        return constant_speed_lifetime(d0, mean, range);
    }
    let lo = mean - SPAN * std;
    let hi = mean + SPAN * std;
    let h = (hi - lo) / STEPS as f64;
    let (weights, total) = quadrature_weights();
    let mut acc = 0.0;
    for (k, w) in weights.iter().enumerate() {
        let v = lo + k as f64 * h;
        acc += w * constant_speed_lifetime(d0, v, range);
    }
    acc / total
}

/// Ratio of the largest to the smallest `|v|` inside one block of
/// [`expected_link_duration_bracket`]. On a block the gap between chord and
/// Jensen is at most `(g − 1)²/4g` of the block's term — 12.5 % here — and
/// the block count goes as `1/ln g`; chosen by measurement on `highway-yan`
/// (CHANGES.md, PR 24).
const BLOCK_GROWTH: f64 = 2.0;

/// Relative widening of both ends of the bracket, which makes it a statement
/// about the kernel's *floating-point* sum: 2,001 ordered adds of positive
/// terms round to ≈ 1e-13 of their value at worst, and the bracket's own
/// prefix-sum differences and mean speeds are good to ≈ 1e-9 at worst. (With
/// the margin at 0 the kernel left the bracket by at most 4e-15 of its value
/// over 3 M seeded inputs.)
const BRACKET_MARGIN: f64 = 1e-7;

/// Largest grid speed, m/s, the bracket's rounding analysis covers: the
/// kernel's `v_k` carry an absolute error of about `ulp(|mean| + 6σ)`, which
/// has to stay small against [`DEAD_BAND`], the smallest speed ever divided
/// by.
const BRACKET_MAX_SPEED: f64 = 1e3;

/// Prefix sums over [`quadrature_weights`] for the bracket:
/// `weight[k] = Σ_{i<k} w_i` and `moment[k] = Σ_{i<k} i·w_i`.
struct WeightPrefixes {
    weight: [f64; STEPS + 2],
    moment: [f64; STEPS + 2],
}

impl WeightPrefixes {
    /// `Σ w_i` over the samples `first..end` and their weighted mean index
    /// (NaN for an empty block).
    fn block(&self, first: usize, end: usize) -> (f64, f64) {
        // Deep in the right tail a prefix difference subtracts two sums 1e9
        // times the result. The weights are symmetric about `STEPS / 2` (to
        // ≈ 1e-14, `z_k` being rounded), so take the mirror image, whose
        // prefixes are as small as the block itself.
        let mirrored = first > STEPS / 2;
        let (first, end) = if mirrored {
            (STEPS + 1 - end, STEPS + 1 - first)
        } else {
            (first, end)
        };
        let weight = self.weight[end] - self.weight[first];
        let mean = (self.moment[end] - self.moment[first]) / weight;
        (weight, if mirrored { STEPS as f64 - mean } else { mean })
    }
}

/// The bracket's prefix sums, one table for the process, filled on first use
/// from [`quadrature_weights`].
fn weight_prefixes() -> &'static WeightPrefixes {
    static TABLE: OnceLock<WeightPrefixes> = OnceLock::new();
    TABLE.get_or_init(|| {
        let (weights, _) = quadrature_weights();
        let mut table = WeightPrefixes {
            weight: [0.0; STEPS + 2],
            moment: [0.0; STEPS + 2],
        };
        for (k, w) in weights.iter().enumerate() {
            table.weight[k + 1] = table.weight[k] + w;
            table.moment[k + 1] = table.moment[k] + k as f64 * w;
        }
        table
    })
}

/// The smallest `k` in `from..to` for which `holds(k)`, or `to` when there is
/// none; `holds` must be monotone in `k` (false … false, true … true).
fn first_index(mut from: usize, mut to: usize, holds: impl Fn(usize) -> bool) -> usize {
    while from < to {
        let mid = from + (to - from) / 2;
        if holds(mid) {
            to = mid;
        } else {
            from = mid + 1;
        }
    }
    from
}

/// Lower and upper bound on `Σ w_k · gap/|v_k|` over the samples
/// `first..end` of the grid `v_k = lo + k·h`, all on one side of zero and
/// none capped. The samples are cut into blocks whose `|v|` changes by a
/// factor `ratio` ([`BLOCK_GROWTH`] walking away from zero, its reciprocal
/// walking towards it); `gap/x` is convex in `x > 0`, so on a block of
/// weight `W` and weighted mean speed `x̄` Jensen gives `W·gap/x̄` from below
/// and the chord through the end samples `x_a`, `x_b`, which at `x̄` is
/// `gap·(x_a + x_b − x̄)/(x_a·x_b)`, from above. A one-sample block is the
/// kernel's own term.
fn bracket_uncapped_side(
    lo: f64,
    h: f64,
    gap: f64,
    ratio: f64,
    mut first: usize,
    end: usize,
) -> (f64, f64) {
    let (weights, _) = quadrature_weights();
    let sums = weight_prefixes();
    let speed = |k: f64| lo + k * h;
    let (mut lower, mut upper) = (0.0, 0.0);
    while first < end {
        let v_first = speed(first as f64);
        // Saturating cast: a zero `h` (subnormal σ) makes the quotient +∞.
        let block_end = (((v_first * ratio - lo) / h).ceil() as usize).clamp(first + 1, end);
        if block_end == first + 1 {
            let term = weights[first] * (gap / v_first.abs());
            lower += term;
            upper += term;
        } else {
            let last = block_end - 1;
            let (weight, mean_index) = sums.block(first, block_end);
            // Clamped so that a rounded prefix difference cannot put the
            // mean speed outside the block.
            let x_mean = speed(mean_index.clamp(first as f64, last as f64)).abs();
            let x_first = v_first.abs();
            let x_last = speed(last as f64).abs();
            lower += weight * (gap / x_mean);
            upper += weight * (gap * (x_first + x_last - x_mean) / (x_first * x_last));
        }
        first = block_end;
    }
    (lower, upper)
}

/// A bracket `(lo, hi)` with `lo ≤ expected_link_duration(..) ≤ hi` for the
/// same arguments, at the cost of ≈ 60 divisions instead of 2,001: enough to
/// tell which of many links can be among the few longest-lived without
/// integrating the rest.
///
/// It walks the kernel's own grid. Binary searches on the computed `v_k` and
/// the computed quotients (all monotone in `k`) find the index ranges the
/// kernel treats alike: closing and uncapped, capped (the closing side's
/// capped tail, the dead band, the separating side's capped head —
/// `CAP · Σw` from the prefix sums), separating and uncapped. The two
/// uncapped ranges are bounded block by block
/// (`bracket_uncapped_side`), the sum is normalised like the kernel's
/// and widened by `BRACKET_MARGIN` either way.
///
/// `std == 0` returns the kernel's value twice. Outside the domain the
/// rounding analysis covers — a non-finite argument, or a grid reaching
/// beyond 1,000 m/s — the bracket is `(0, ∞)`, which still holds and never
/// rules a link out. Neither end is ever NaN.
///
/// # Panics
///
/// Panics if `range <= 0` or `std < 0`, as the kernel does.
#[must_use]
pub fn expected_link_duration_bracket(
    separation: f64,
    mean: f64,
    std: f64,
    range: f64,
) -> (f64, f64) {
    assert!(range > 0.0, "range must be positive");
    assert!(std >= 0.0, "std must be non-negative");
    let d0 = separation.clamp(-range, range);
    if std == 0.0 {
        let lifetime = constant_speed_lifetime(d0, mean, range);
        return (lifetime, lifetime);
    }
    let lo = mean - SPAN * std;
    let hi = mean + SPAN * std;
    let in_domain = lo.abs() <= BRACKET_MAX_SPEED
        && hi.abs() <= BRACKET_MAX_SPEED
        && d0.is_finite()
        && range.is_finite();
    if !in_domain {
        return (0.0, f64::INFINITY);
    }
    let h = (hi - lo) / STEPS as f64;
    let speed = |k: usize| lo + k as f64 * h;
    let (closing_gap, separating_gap) = (range + d0, range - d0);
    let samples = STEPS + 1;
    // Closing is `v ≤ −DEAD_BAND`, separating `v ≥ DEAD_BAND`; a side's
    // quotient reaches the cap next to the dead band first.
    let dead_first = first_index(0, samples, |k| speed(k) > -DEAD_BAND);
    let separating_first = first_index(dead_first, samples, |k| speed(k) >= DEAD_BAND);
    let capped_first = first_index(0, dead_first, |k| closing_gap / -speed(k) >= CAP);
    let capped_end = first_index(separating_first, samples, |k| {
        separating_gap / speed(k) < CAP
    });
    let (capped_weight, _) = weight_prefixes().block(capped_first, capped_end);
    let (closing_lower, closing_upper) =
        bracket_uncapped_side(lo, h, closing_gap, 1.0 / BLOCK_GROWTH, 0, capped_first);
    let (separating_lower, separating_upper) =
        bracket_uncapped_side(lo, h, separating_gap, BLOCK_GROWTH, capped_end, samples);
    let capped = CAP * capped_weight;
    let (_, total) = quadrature_weights();
    (
        (closing_lower + capped + separating_lower) / total * (1.0 - BRACKET_MARGIN),
        (closing_upper + capped + separating_upper) / total * (1.0 + BRACKET_MARGIN),
    )
}

/// The *mean link duration* ("stability" in Yan et al.'s TBP-SS): the
/// deterministic lifetime evaluated at the mean relative speed. Cheaper than
/// the full expectation and the quantity the ticket-based probing algorithm
/// propagates as its routing metric.
///
/// # Panics
///
/// Panics if `range <= 0`.
#[must_use]
pub fn mean_link_duration(separation: f64, mean_relative_speed: f64, range: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    constant_speed_lifetime(separation.clamp(-range, range), mean_relative_speed, range)
}

/// Link availability `L(t) = P(link alive at t | alive now)` under a
/// normally distributed relative speed: the link survives `t` seconds iff the
/// future separation `d₀ + V·t` is still within `[−r, r]`, so
/// `L(t) = Φ((r − d₀)/(σt)) − Φ((−r − d₀)/(σt))` shifted by the mean drift.
///
/// # Panics
///
/// Panics if `range <= 0`, `std < 0` or `t < 0`.
#[must_use]
pub fn link_availability(separation: f64, mean: f64, std: f64, range: f64, t: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(std >= 0.0, "std must be non-negative");
    assert!(t >= 0.0, "prediction horizon must be non-negative");
    let d0 = separation.clamp(-range, range);
    if t == 0.0 {
        return 1.0;
    }
    let drift = d0 + mean * t;
    if std == 0.0 {
        return if (-range..=range).contains(&drift) {
            1.0
        } else {
            0.0
        };
    }
    let sigma_t = std * t;
    let upper = (range - drift) / sigma_t;
    let lower = (-range - drift) / sigma_t;
    (std_normal_cdf(upper) - std_normal_cdf(lower)).clamp(0.0, 1.0)
}

/// CAR-style road-segment connectivity probability: on a segment of
/// `length_m` metres carrying traffic of `density_per_m` vehicles per metre
/// with exponentially distributed inter-vehicle spacing, the probability that
/// every gap between consecutive vehicles (expected count
/// `n = density·length`) is at most `range_m`:
/// `P = (1 − e^{−λ·R})^{max(n−1, 0)}` with `λ = density`.
///
/// Returns 1.0 for segments shorter than the range (a single hop suffices).
///
/// # Panics
///
/// Panics if any argument is negative or `range_m == 0`.
#[must_use]
pub fn segment_connectivity_probability(density_per_m: f64, length_m: f64, range_m: f64) -> f64 {
    assert!(density_per_m >= 0.0, "density must be non-negative");
    assert!(length_m >= 0.0, "length must be non-negative");
    assert!(range_m > 0.0, "range must be positive");
    if length_m <= range_m {
        return 1.0;
    }
    let expected_vehicles = density_per_m * length_m;
    if expected_vehicles < 2.0 {
        // Fewer than two vehicles expected: the segment cannot be bridged.
        return 0.0;
    }
    let gap_within_range = 1.0 - (-density_per_m * range_m).exp();
    gap_within_range.powf(expected_vehicles - 1.0)
}

/// REAR-style receipt probability: probability that a frame transmitted over
/// `distance_m` metres is received, under log-normal shadowing with path-loss
/// exponent `alpha` and shadow-fading deviation `sigma_db`, where the
/// detection threshold corresponds to `nominal_range_m`.
///
/// This mirrors the channel model in `vanet-net` so protocols can *reason*
/// about the receipt probability without sampling the channel.
///
/// # Panics
///
/// Panics if `nominal_range_m <= 0`, `alpha <= 0` or `sigma_db < 0`.
#[must_use]
pub fn receipt_probability(
    distance_m: f64,
    nominal_range_m: f64,
    alpha: f64,
    sigma_db: f64,
) -> f64 {
    assert!(nominal_range_m > 0.0, "range must be positive");
    assert!(alpha > 0.0, "path-loss exponent must be positive");
    assert!(sigma_db >= 0.0, "sigma must be non-negative");
    let d = distance_m.max(1.0);
    let mean_margin_db = 10.0 * alpha * (nominal_range_m.log10() - d.log10());
    if sigma_db == 0.0 {
        return if mean_margin_db >= 0.0 { 1.0 } else { 0.0 };
    }
    std_normal_cdf(mean_margin_db / sigma_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mobility::distributions::Normal;
    use vanet_sim::SimRng;

    const R: f64 = 250.0;

    /// The formulation [`expected_link_duration`] replaced, kept verbatim as
    /// the oracle: `Normal::pdf` — one `exp`, one division — at every sample
    /// of the same grid, and its own copy of the lifetime rule. Returns the
    /// expectation and the weight sum it normalised by.
    fn reference_expected_link_duration(
        separation: f64,
        mean: f64,
        std: f64,
        range: f64,
    ) -> (f64, f64) {
        let d0 = separation.clamp(-range, range);
        let lifetime = |v: f64| -> f64 {
            if v.abs() < 1e-3 {
                3_600.0
            } else if v > 0.0 {
                ((range - d0) / v).min(3_600.0)
            } else {
                ((range + d0) / -v).min(3_600.0)
            }
        };
        let dist = Normal::new(mean, std);
        let lo = mean - 6.0 * std;
        let hi = mean + 6.0 * std;
        let steps = 2_000;
        let h = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        let mut weight = 0.0;
        for k in 0..=steps {
            let v = lo + k as f64 * h;
            let w = dist.pdf(v) * if k == 0 || k == steps { 0.5 } else { 1.0 };
            acc += w * lifetime(v);
            weight += w;
        }
        (acc / weight, weight)
    }

    fn assert_agrees_with_reference(separation: f64, mean: f64, std: f64, range: f64) {
        let table = expected_link_duration(separation, mean, std, range);
        let (reference, _) = reference_expected_link_duration(separation, mean, std, range);
        assert!(
            (table - reference).abs() <= 1e-12 * reference.abs(),
            "table {table:?} vs reference {reference:?} \
             (separation {separation:?}, mean {mean:?}, std {std:?}, range {range:?})"
        );
    }

    const STDS: [f64; 7] = [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0];
    const RANGES: [f64; 3] = [120.0, 250.0, 500.0];

    #[test]
    fn table_kernel_agrees_with_per_sample_pdf_on_seeded_inputs() {
        let mut rng = SimRng::new(0x7AB1E);
        for _ in 0..2_000 {
            let range = *rng.choose(&RANGES).unwrap();
            let std = *rng.choose(&STDS).unwrap();
            let separation = rng.uniform_range(-range, range);
            let mean = rng.uniform_range(-60.0, 60.0);
            assert_agrees_with_reference(separation, mean, std, range);
        }
    }

    #[test]
    fn table_kernel_agrees_with_per_sample_pdf_on_the_edges() {
        for range in RANGES {
            for std in STDS {
                // `mean = 0` puts grid point 1000 on `v = 0`, inside the dead
                // band (at `std = 1e-3` a third of the grid is inside it).
                for mean in [0.0, -60.0, 60.0, 5e-4, -5e-4] {
                    for separation in [-range, range, 0.0, 2.0 * range] {
                        assert_agrees_with_reference(separation, mean, std, range);
                    }
                }
                // The cap takes over where `|v| < gap / CAP`: put that speed on
                // grid point `k`, then just either side of it.
                let separation = 0.25 * range;
                let cap_speed = (range - separation) / CAP;
                for k in [900, 1_000, 1_100, 1_999] {
                    let offset = -SPAN * std + k as f64 * (2.0 * SPAN * std / STEPS as f64);
                    for nudge in [0.0, 1e-9, -1e-9] {
                        let mean = cap_speed - offset + nudge;
                        assert_agrees_with_reference(separation, mean, std, range);
                        assert_agrees_with_reference(-separation, -mean, std, range);
                    }
                }
            }
        }
    }

    #[test]
    fn table_total_is_the_reference_weight_sum_without_its_normalising_constant() {
        let (weights, total) = quadrature_weights();
        assert_eq!(weights.len(), 2_001);
        assert_eq!(weights[1_000], 1.0);
        assert_eq!(weights[0], 0.5 * (-18.0f64).exp());
        assert_eq!(weights[0], weights[2_000]);
        // The reference rounds `(v_k − mean)/σ`, which costs it
        // `ulp(mean)/σ` per abscissa, so it is held to 1e-14 where that is
        // small: any σ around `mean = 0`, and the protocol's σ = 3 m/s.
        let cases = STDS.map(|std| (0.0, std)).into_iter();
        for (mean, std) in cases.chain([(17.5, 3.0), (-42.0, 3.0), (60.0, 10.0)]) {
            let (_, weight) = reference_expected_link_duration(0.0, mean, std, R);
            let scaled = weight * std * (2.0 * std::f64::consts::PI).sqrt();
            assert!(
                (total - scaled).abs() <= 1e-14 * total,
                "table total {total:?} vs reference {scaled:?} (mean {mean:?}, std {std:?})"
            );
        }
    }

    /// `lo ≤ kernel ≤ hi`; returns the bracket's width relative to the
    /// kernel's value.
    fn assert_bracket_holds(separation: f64, mean: f64, std: f64, range: f64) -> f64 {
        let value = expected_link_duration(separation, mean, std, range);
        let (lo, hi) = expected_link_duration_bracket(separation, mean, std, range);
        assert!(
            lo <= value && value <= hi,
            "bracket ({lo:?}, {hi:?}) misses {value:?} \
             (separation {separation:?}, mean {mean:?}, std {std:?}, range {range:?})"
        );
        if value == 0.0 {
            assert_eq!((lo, hi), (0.0, 0.0));
            return 0.0;
        }
        (hi - lo) / value
    }

    const BRACKET_RANGES: [f64; 3] = [100.0, 250.0, 1_000.0];

    /// The widest bracket any test input may produce, as a share of the
    /// kernel's value: a block's chord and Jensen terms differ by at most
    /// `(g − 1)²/4g` — 12.5 % at `BLOCK_GROWTH = 2` — and the margin adds
    /// 2e-7. The seeded set below peaks at 12.46 %, the edges at 11.9 %.
    const WIDEST_BRACKET: f64 = 0.125 + 1e-6;

    #[test]
    fn bracket_contains_the_kernel_on_seeded_inputs() {
        let mut rng = SimRng::new(0xB2AC4E7);
        let mut widest: f64 = 0.0;
        for _ in 0..24_000 {
            let range = *rng.choose(&BRACKET_RANGES).unwrap();
            let std = *rng.choose(&STDS).unwrap();
            let separation = rng.uniform_range(-range, range);
            let mean = rng.uniform_range(-60.0, 60.0);
            widest = widest.max(assert_bracket_holds(separation, mean, std, range));
        }
        assert!(widest <= WIDEST_BRACKET, "widest bracket {widest:?}");
        // Not vacuous either: the set does reach the loose end.
        assert!(widest > 0.05, "widest bracket {widest:?}");
    }

    #[test]
    fn bracket_contains_the_kernel_on_the_edges() {
        let mut widest: f64 = 0.0;
        let mut check = |separation: f64, mean: f64, std: f64, range: f64| {
            widest = widest.max(assert_bracket_holds(separation, mean, std, range));
        };
        for range in BRACKET_RANGES {
            for std in STDS {
                // `±range`: a zero numerator on one side. `mean = 0`: grid
                // point 1000 on `v = 0` (at `std = 1e-3` a third of the grid
                // inside the dead band). `±6σ`: zero on the grid's last
                // sample, where a weight is 1e-8 of the prefix sum beside it.
                // `±7σ`, `±60`: the whole grid on one side of zero.
                let means = [0.0, 5e-4, 6.0 * std, 7.0 * std, 60.0, 2.5 * std];
                for mean in means.into_iter().flat_map(|m| [m, -m]) {
                    for separation in [-range, range, 0.0, 0.3 * range, -2.0 * range] {
                        check(separation, mean, std, range);
                    }
                }
                // The cap takes over where `|v| < gap / CAP`: put that speed
                // on grid point `k`, then just either side of it.
                let separation = 0.25 * range;
                let cap_speed = (range - separation) / CAP;
                for k in [0, 1, 900, 1_000, 1_100, 1_999, 2_000] {
                    let offset = -SPAN * std + k as f64 * (2.0 * SPAN * std / STEPS as f64);
                    for nudge in [0.0, 1e-9, -1e-9] {
                        let mean = cap_speed - offset + nudge;
                        check(separation, mean, std, range);
                        check(-separation, -mean, std, range);
                    }
                }
            }
            // A grid too fine for `lo + k·h` to resolve, and one whose step
            // underflows to zero.
            for std in [1e-15, 1e-300, 5e-324] {
                for mean in [-30.0, -1e-3, 0.0, 2e-3, 30.0] {
                    check(0.5 * range, mean, std, range);
                }
            }
        }
        assert!(widest <= WIDEST_BRACKET, "widest bracket {widest:?}");
    }

    #[test]
    fn bracket_is_the_kernel_value_twice_without_variance() {
        for mean in [-20.0, -5e-4, 0.0, 1e-3, 5.0, f64::NAN, f64::INFINITY] {
            let value = expected_link_duration(-50.0, mean, 0.0, R);
            let bracket = expected_link_duration_bracket(-50.0, mean, 0.0, R);
            assert_eq!(bracket, (value, value), "mean {mean:?}");
        }
    }

    #[test]
    fn bracket_outside_its_domain_is_everything_and_never_nan() {
        let everything = (0.0, f64::INFINITY);
        for (separation, mean, std, range) in [
            (f64::NAN, 5.0, 3.0, R),
            (10.0, f64::NAN, 3.0, R),
            (10.0, f64::INFINITY, 3.0, R),
            (10.0, f64::NEG_INFINITY, 3.0, R),
            (10.0, 5.0, f64::INFINITY, R),
            (10.0, f64::INFINITY, f64::INFINITY, R),
            (10.0, 5.0, 3.0, f64::INFINITY),
            (10.0, 2e3, 3.0, R),
            (10.0, 0.0, 1e9, R),
        ] {
            let bracket = expected_link_duration_bracket(separation, mean, std, range);
            assert_eq!(
                bracket, everything,
                "({separation}, {mean}, {std}, {range})"
            );
            // The kernel accepts all of these; the bracket still holds.
            let value = expected_link_duration(separation, mean, std, range);
            assert!((0.0..f64::INFINITY).contains(&value), "kernel {value:?}");
        }
        // Just inside the domain the bracket is finite again.
        let (lo, hi) = expected_link_duration_bracket(10.0, 900.0, 10.0, R);
        assert!(0.0 < lo && hi < 1.0, "({lo:?}, {hi:?})");
        assert_bracket_holds(10.0, 900.0, 10.0, R);
        assert_bracket_holds(10.0, 0.0, 160.0, R);
    }

    #[test]
    fn mirrored_blocks_rest_on_symmetric_weights() {
        let (weights, _) = quadrature_weights();
        for k in 0..=STEPS / 2 {
            let (left, right) = (weights[k], weights[STEPS - k]);
            assert!((left - right).abs() <= 1e-13 * left, "k {k}");
        }
        // A block and its mirror image agree, and a one-sample block in
        // either tail is that sample's weight to the last few bits.
        let sums = weight_prefixes();
        for (first, end) in [(0, 1), (3, 40), (990, 1_000), (400, 1_001)] {
            let (weight, mean) = sums.block(first, end);
            let (mirror_weight, mirror_mean) = sums.block(STEPS + 1 - end, STEPS + 1 - first);
            assert!((weight - mirror_weight).abs() <= 1e-12 * weight);
            assert!((mean + mirror_mean - STEPS as f64).abs() <= 1e-9);
        }
        let (last, mean) = sums.block(STEPS, STEPS + 1);
        assert_eq!((last, mean), (weights[STEPS], STEPS as f64));
    }

    #[test]
    fn expected_duration_decreases_with_relative_speed() {
        let slow = expected_link_duration(0.0, 2.0, 1.0, R);
        let fast = expected_link_duration(0.0, 20.0, 1.0, R);
        assert!(slow > fast, "slow {slow} should exceed fast {fast}");
    }

    #[test]
    fn expected_duration_zero_std_matches_mean_duration() {
        let e = expected_link_duration(-50.0, 5.0, 0.0, R);
        let m = mean_link_duration(-50.0, 5.0, R);
        assert!((e - m).abs() < 1e-9);
        assert!((m - 60.0).abs() < 1e-9);
    }

    #[test]
    fn expected_duration_is_capped_for_zero_speed() {
        assert_eq!(mean_link_duration(0.0, 0.0, R), 3_600.0);
        let e = expected_link_duration(0.0, 0.0, 0.0, R);
        assert_eq!(e, 3_600.0);
    }

    #[test]
    fn mean_duration_direction_sign() {
        // Separating: only (r − d0) to cover; closing: (r + d0).
        let separating = mean_link_duration(100.0, 10.0, R);
        let closing = mean_link_duration(100.0, -10.0, R);
        assert!((separating - 15.0).abs() < 1e-9);
        assert!((closing - 35.0).abs() < 1e-9);
    }

    #[test]
    fn availability_at_zero_horizon_is_one() {
        assert_eq!(link_availability(0.0, 10.0, 3.0, R, 0.0), 1.0);
    }

    #[test]
    fn availability_decreases_with_horizon() {
        let mut last = 1.0;
        for t in [1.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let a = link_availability(0.0, 5.0, 3.0, R, t);
            assert!(a <= last + 1e-12, "availability must not increase");
            assert!((0.0..=1.0).contains(&a));
            last = a;
        }
        assert!(last < 0.2, "long horizons should be unreliable, got {last}");
    }

    #[test]
    fn availability_deterministic_case() {
        // No variance: survives exactly while drift stays in range.
        assert_eq!(link_availability(0.0, 10.0, 0.0, R, 10.0), 1.0);
        assert_eq!(link_availability(0.0, 10.0, 0.0, R, 30.0), 0.0);
    }

    #[test]
    fn availability_higher_for_same_direction_traffic() {
        // Same direction ⇒ small relative speed mean; opposite ⇒ large.
        let same = link_availability(0.0, 2.0, 2.0, R, 30.0);
        let opposite = link_availability(0.0, 55.0, 2.0, R, 30.0);
        assert!(same > 0.9);
        assert!(opposite < 0.05);
    }

    #[test]
    fn segment_connectivity_increases_with_density() {
        let sparse = segment_connectivity_probability(0.002, 2_000.0, 250.0);
        let medium = segment_connectivity_probability(0.01, 2_000.0, 250.0);
        let dense = segment_connectivity_probability(0.05, 2_000.0, 250.0);
        assert!(sparse < medium && medium < dense);
        assert!(dense > 0.99);
        assert!((0.0..=1.0).contains(&sparse));
    }

    #[test]
    fn segment_connectivity_edge_cases() {
        assert_eq!(segment_connectivity_probability(0.01, 100.0, 250.0), 1.0);
        assert_eq!(segment_connectivity_probability(0.0, 2_000.0, 250.0), 0.0);
        // Expected vehicles < 2 cannot bridge the segment.
        assert_eq!(
            segment_connectivity_probability(0.0005, 2_000.0, 250.0),
            0.0
        );
    }

    #[test]
    fn receipt_probability_behaviour() {
        // Half at the nominal range, near-one close in, near-zero far out.
        let at_range = receipt_probability(250.0, 250.0, 2.7, 4.0);
        assert!((at_range - 0.5).abs() < 1e-3);
        assert!(receipt_probability(50.0, 250.0, 2.7, 4.0) > 0.99);
        assert!(receipt_probability(600.0, 250.0, 2.7, 4.0) < 0.05);
        // Deterministic when sigma = 0.
        assert_eq!(receipt_probability(200.0, 250.0, 2.7, 0.0), 1.0);
        assert_eq!(receipt_probability(300.0, 250.0, 2.7, 0.0), 0.0);
    }

    #[test]
    fn receipt_probability_monotone_in_distance() {
        let mut last = 1.1;
        for d in (1..30).map(|i| i as f64 * 25.0) {
            let p = receipt_probability(d, 250.0, 2.7, 6.0);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn model_struct_wraps_functions() {
        let m = LinkDurationModel::new(5.0, 2.0, -50.0, R);
        assert!(m.expected_duration() > 0.0);
        assert!(m.availability(5.0) > m.availability(60.0));
        // Separation clamping.
        let clamped = LinkDurationModel::new(5.0, 2.0, 500.0, R);
        assert_eq!(clamped.separation, R);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        let _ = mean_link_duration(0.0, 5.0, 0.0);
    }
}
