//! An exact integer floor without the libm call.

/// `x.floor() as i64`, exactly, for every `f64`: truncate toward zero (the
/// saturating `as` cast: NaN gives 0, out-of-range values the nearest
/// bound), then step down by one where truncation rounded a negative
/// fraction up. `f64::floor` is a libm call on baseline x86-64; this is a
/// convert, a compare and a subtract. The step down saturates, so an `x`
/// below −2⁶³ stays at `i64::MIN` instead of overflowing.
#[inline]
#[must_use]
pub fn floor_i64(x: f64) -> i64 {
    let truncated = x as i64;
    if (truncated as f64) > x {
        truncated.saturating_sub(1)
    } else {
        truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn check(x: f64) {
        assert_eq!(
            floor_i64(x),
            x.floor() as i64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn equals_the_libm_floor_on_the_edges() {
        let two_63 = 2f64.powi(63);
        let mut edges = vec![
            0.0,
            0.5,
            1.0,
            1.5,
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            two_63,
            two_63 * 2.0,
        ];
        // Integers and their neighbours on either side.
        for i in [1i64, 2, 3, 100, 1 << 20, 1 << 40] {
            let i = i as f64;
            edges.extend([
                i,
                f64::from_bits(i.to_bits() - 1),
                f64::from_bits(i.to_bits() + 1),
            ]);
        }
        // 2^52 up to 2^53, where the last fractional doubles end, and a
        // step past it.
        for exponent in 50..=54 {
            let p = 2f64.powi(exponent);
            edges.extend([p, p + 0.5, p + 1.0, f64::from_bits(p.to_bits() - 1)]);
        }
        // At and just below 2^63, the last doubles a truncation keeps.
        edges.extend([
            f64::from_bits(two_63.to_bits() - 1),
            f64::from_bits(two_63.to_bits() + 1),
        ]);
        let negated: Vec<f64> = edges.iter().map(|x| -x).collect();
        for x in edges.into_iter().chain(negated) {
            check(x);
        }
        assert_eq!(floor_i64(-0.0), 0);
        assert_eq!(floor_i64(-0.5), -1);
        assert_eq!(floor_i64(-two_63), i64::MIN);
        assert_eq!(floor_i64(-two_63 * 2.0), i64::MIN);
        assert_eq!(floor_i64(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(floor_i64(f64::NAN), 0);
    }

    #[test]
    fn equals_the_libm_floor_on_random_doubles() {
        let mut rng = SimRng::new(0xf100);
        for _ in 0..100_000 {
            // Every bit pattern: NaNs, subnormals and huge values alike.
            check(f64::from_bits(rng.next_u64()));
            // The range positions and times live in.
            check(rng.uniform_range(-1e6, 1e6));
            // Small magnitudes, where the fraction decides the answer.
            check(rng.uniform_range(-4.0, 4.0));
        }
    }
}
