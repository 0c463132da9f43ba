//! Simulation time and durations.
//!
//! Simulation time is represented as seconds in an `f64`. The newtypes
//! [`SimTime`] and [`SimDuration`] keep instants and intervals apart at the
//! type level (mixing them up is a classic simulation bug) and provide a
//! *total* ordering so they can be used as keys in the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in seconds since the start of the run.
///
/// `SimTime` implements a total ordering; constructing it from a NaN value is
/// a programming error and panics (see [`SimTime::from_secs`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A length of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

const SIGN_BIT: u64 = 1 << 63;

/// Maps non-NaN seconds to an integer with the same order: non-negative
/// values get their sign bit set, negative values have every bit flipped
/// (a larger magnitude is a smaller value). Adding `0.0` first turns `-0.0`
/// into `0.0`, so the two zeros share a key as they share a rank.
fn order_key(secs: f64) -> u64 {
    debug_assert!(!secs.is_nan(), "NaN has no place in the time order");
    let bits = (secs + 0.0).to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | SIGN_BIT)
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every time a simulation will ever reach.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "simulation time must not be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// Returns the time as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time as milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Duration elapsed since `earlier`. Returns [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        if earlier.0 > self.0 {
            SimDuration::ZERO
        } else {
            SimDuration(self.0 - earlier.0)
        }
    }

    /// The time as an integer that orders exactly as the time does: the
    /// sign-folded IEEE-754 bit pattern of the seconds, `-0.0` counted as
    /// `0.0`. Two times compare as their keys do, negatives included, so a
    /// sort or a heap can order events by integer compares alone (see
    /// [`EventKey`](crate::EventKey)).
    #[must_use]
    pub fn order_key(self) -> u64 {
        order_key(self.0)
    }

    /// The time [`SimTime::order_key`] was taken from (`-0.0` comes back as
    /// `0.0`, which compares equal to it).
    #[must_use]
    pub(crate) fn from_order_key(key: u64) -> SimTime {
        // Undo the fold: a key with the top bit set was a non-negative value.
        let mask = (((!key) as i64 >> 63) as u64) | SIGN_BIT;
        SimTime(f64::from_bits(key ^ mask))
    }

    /// Returns the later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// A duration longer than any simulation run.
    pub const MAX: SimDuration = SimDuration(f64::MAX);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "duration must not be NaN");
        assert!(secs >= 0.0, "duration must not be negative, got {secs}");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// Creates a possibly-infinite duration; negative input is clamped to zero.
    #[must_use]
    pub fn from_secs_saturating(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration(secs)
        }
    }

    /// Returns the duration as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration as milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Whether this duration is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Whether this duration is infinite (or `MAX`).
    #[must_use]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite() || self.0 == f64::MAX
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        order_key(self.0).cmp(&order_key(other.0))
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;

    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl From<SimDuration> for f64 {
    fn from(d: SimDuration) -> f64 {
        d.0
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(2.5);
        assert_eq!((t + d).as_secs(), 12.5);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtracting_later_time_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(2.0),
                SimTime::from_secs(3.0)
            ]
        );
    }

    /// The order `SimTime` had before `order_key`: the floats' own.
    fn float_order(a: f64, b: f64) -> Ordering {
        a.partial_cmp(&b).expect("no NaN among the test values")
    }

    fn assert_orders_as_floats(a: f64, b: f64) {
        let (ta, tb) = (SimTime(a), SimTime(b));
        let expected = float_order(a, b);
        assert_eq!(ta.order_key().cmp(&tb.order_key()), expected, "{a:e} {b:e}");
        assert_eq!(ta.cmp(&tb), expected, "{a:e} {b:e}");
        assert_eq!(ta == tb, expected == Ordering::Equal, "{a:e} {b:e}");
        if a >= 0.0 && b >= 0.0 {
            assert_eq!(SimDuration(a).cmp(&SimDuration(b)), expected, "{a:e} {b:e}");
        }
    }

    #[test]
    fn order_key_orders_exactly_as_the_floats_do() {
        // Ascending, the two zeros the only equal neighbours.
        let edges = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1e300,
            -2.0,
            -1.0 - f64::EPSILON,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            1e300,
            SimTime::MAX.as_secs(),
            f64::INFINITY,
        ];
        for pair in edges.windows(2) {
            let (lo, hi) = (SimTime(pair[0]).order_key(), SimTime(pair[1]).order_key());
            if pair[0] == pair[1] {
                assert_eq!(lo, hi, "-0.0 and 0.0 share a key");
            } else {
                assert!(lo < hi, "{:e} < {:e}", pair[0], pair[1]);
            }
        }
        for &a in &edges {
            for &b in &edges {
                assert_orders_as_floats(a, b);
            }
            let back = SimTime::from_order_key(SimTime(a).order_key()).as_secs();
            assert_eq!(back, a);
            assert_eq!(back.to_bits(), (a + 0.0).to_bits(), "only -0.0 changes");
        }

        // 100 k pairs: any two bit patterns, and neighbours a few ulps apart
        // (two random patterns almost never share an exponent).
        let mut rng = crate::SimRng::new(0x0de2);
        for _ in 0..50_000 {
            let a = f64::from_bits(rng.next_u64());
            let b = f64::from_bits(rng.next_u64());
            let near = f64::from_bits(a.to_bits() ^ (rng.next_u64() & 7));
            if a.is_nan() || b.is_nan() || near.is_nan() {
                continue;
            }
            assert_orders_as_floats(a, b);
            assert_orders_as_floats(a, near);
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_duration_panics() {
        let _ = SimDuration::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn millis_conversions() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimDuration::from_millis(250.0).as_secs(), 0.25);
        assert_eq!(SimDuration::from_secs(0.25).as_millis(), 250.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(4.0);
        assert_eq!((d * 0.5).as_secs(), 2.0);
        assert_eq!((d / 2.0).as_secs(), 2.0);
        assert_eq!(d / SimDuration::from_secs(2.0), 2.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1.0);
        let db = SimDuration::from_secs(2.0);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn saturating_constructor_clamps() {
        assert_eq!(SimDuration::from_secs_saturating(-3.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_saturating(f64::NAN),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs_saturating(3.0).as_secs(), 3.0);
    }
}
