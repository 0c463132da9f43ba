//! 2-D geometry primitives: vectors, positions, velocities and headings.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector in metres (or metres/second when used as a velocity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates a unit vector pointing at `angle` radians from the +x axis.
    #[must_use]
    pub fn from_angle(angle: f64) -> Self {
        Vec2 {
            x: angle.cos(),
            y: angle.sin(),
        }
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the square root).
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z component of the cross product (signed area).
    #[must_use]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction, or zero if this is the zero vector.
    #[must_use]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// The vector rotated by 90° counter-clockwise.
    #[must_use]
    pub fn perpendicular(self) -> Vec2 {
        Vec2 {
            x: -self.y,
            y: self.x,
        }
    }

    /// Angle from the +x axis in radians, in `(-π, π]`.
    #[must_use]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Projects `self` onto the direction of `onto` (scalar projection).
    ///
    /// Returns 0 if `onto` is the zero vector.
    #[must_use]
    pub fn scalar_projection_onto(self, onto: Vec2) -> f64 {
        let n = onto.norm();
        if n == 0.0 {
            0.0
        } else {
            self.dot(onto) / n
        }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, o: Vec2) {
        self.x += o.x;
        self.y += o.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, o: Vec2) {
        self.x -= o.x;
        self.y -= o.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A position on the plane, in metres.
pub type Position = Vec2;

/// A velocity vector, in metres per second.
pub type Velocity = Vec2;

/// Euclidean distance between two positions, in metres.
#[must_use]
pub fn distance(a: Position, b: Position) -> f64 {
    (a - b).norm()
}

/// Whether `a` and `b` are within `threshold` metres of each other —
/// decides exactly like `distance(a, b) <= threshold`, but without the
/// `hypot` call for all but borderline inputs.
///
/// `hypot` (the carefully-scaled, sub-ulp-accurate libm routine behind
/// [`distance`]) dominates the fleet-scale transmit pipeline, yet almost
/// every call only feeds a range comparison. The squared comparison
/// `dx² + dy² ≤ threshold²` is a handful of cycles but not bit-equivalent,
/// so it is used as a *conservative band*: accept when the squared distance
/// is below `threshold²·(1 − 1e-9)`, reject above `threshold²·(1 + 1e-9)`,
/// and fall back to the exact `hypot` comparison inside the band. The band
/// is millions of ulps wide while the squared form's rounding error is a
/// few ulps, so the fast paths can never disagree with the exact
/// comparison — byte-identical simulation outcomes, pinned by the golden
/// tests.
#[must_use]
pub fn within(a: Position, b: Position, threshold: f64) -> bool {
    WithinFilter::new(threshold).check(a, b)
}

/// The reusable form of [`within`]: precomputes the banded squared bounds
/// once so a loop testing many positions against one threshold pays only a
/// subtraction, two multiplies and a compare per element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WithinFilter {
    threshold: f64,
    accept_below: f64,
    reject_above: f64,
}

impl WithinFilter {
    /// Relative half-width of the exact-comparison band: millions of ulps,
    /// dwarfing the few-ulp rounding of the squared distance, so the fast
    /// accept/reject paths can never contradict `distance(a, b) <= t`.
    const BAND: f64 = 1e-9;

    /// Builds a filter deciding `distance(a, b) <= threshold`.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        let t2 = threshold * threshold;
        WithinFilter {
            threshold,
            accept_below: t2 * (1.0 - Self::BAND),
            reject_above: t2 * (1.0 + Self::BAND),
        }
    }

    /// Whether `a` and `b` are within the threshold — decision-identical to
    /// `distance(a, b) <= threshold`.
    #[must_use]
    pub fn check(&self, a: Position, b: Position) -> bool {
        if self.threshold < 0.0 {
            return false;
        }
        let d2 = (a - b).norm_sq();
        if d2 <= self.accept_below {
            return true;
        }
        if d2 >= self.reject_above {
            return false;
        }
        distance(a, b) <= self.threshold
    }

    /// How many of `points` are within the threshold of `center` — equal to
    /// counting the points that pass [`WithinFilter::check`].
    ///
    /// The interference pipeline asks this of a whole contention window per
    /// receiver, so the loop carries no data-dependent branch: it sums the
    /// two band comparisons over the slice and, when every point fell on
    /// one side of the band, the accept sum is the answer. A point inside
    /// the band (or one whose squared distance is NaN) leaves the sums short
    /// of the slice length, and only then is the slice recounted entry by
    /// entry with `check`.
    #[must_use]
    pub fn count(&self, points: &[Position], center: Position) -> usize {
        if self.threshold < 0.0 {
            return 0;
        }
        let (mut accepted, mut rejected) = (0usize, 0usize);
        for &p in points {
            let d2 = (p - center).norm_sq();
            accepted += usize::from(d2 <= self.accept_below);
            rejected += usize::from(d2 >= self.reject_above);
        }
        if accepted + rejected == points.len() {
            return accepted;
        }
        points.iter().filter(|&&p| self.check(p, center)).count()
    }
}

/// A compass-free heading: the direction of travel as a unit vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heading(Vec2);

impl Heading {
    /// East (+x).
    pub const EAST: Heading = Heading(Vec2 { x: 1.0, y: 0.0 });
    /// West (−x).
    pub const WEST: Heading = Heading(Vec2 { x: -1.0, y: 0.0 });
    /// North (+y).
    pub const NORTH: Heading = Heading(Vec2 { x: 0.0, y: 1.0 });
    /// South (−y).
    pub const SOUTH: Heading = Heading(Vec2 { x: 0.0, y: -1.0 });

    /// Creates a heading from an arbitrary (non-zero) direction vector.
    ///
    /// Falls back to [`Heading::EAST`] for a zero vector.
    #[must_use]
    pub fn from_vec(v: Vec2) -> Self {
        let n = v.normalized();
        if n == Vec2::ZERO {
            Heading::EAST
        } else {
            Heading(n)
        }
    }

    /// The unit direction vector.
    #[must_use]
    pub fn unit(self) -> Vec2 {
        self.0
    }

    /// The opposite heading.
    #[must_use]
    pub fn reversed(self) -> Heading {
        Heading(-self.0)
    }

    /// Angle between two headings, in radians, in `[0, π]`.
    #[must_use]
    pub fn angle_to(self, other: Heading) -> f64 {
        self.0.dot(other.0).clamp(-1.0, 1.0).acos()
    }

    /// Whether two headings point in broadly the same direction (angle < 90°).
    #[must_use]
    pub fn same_direction(self, other: Heading) -> bool {
        self.0.dot(other.0) > 0.0
    }
}

impl Default for Heading {
    fn default() -> Self {
        Heading::EAST
    }
}

impl fmt::Display for Heading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}°", self.0.angle().to_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn norm_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(distance(Vec2::ZERO, a), 5.0);
        assert_eq!(a.normalized().norm(), 1.0);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn dot_cross_projection() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 2.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 2.0);
        assert_eq!(a.perpendicular(), Vec2::new(0.0, 1.0));
        let v = Vec2::new(3.0, 4.0);
        assert!((v.scalar_projection_onto(Vec2::new(1.0, 0.0)) - 3.0).abs() < 1e-12);
        assert_eq!(v.scalar_projection_onto(Vec2::ZERO), 0.0);
    }

    #[test]
    fn angles() {
        let e = Vec2::from_angle(0.0);
        assert!((e.x - 1.0).abs() < 1e-12);
        let n = Vec2::from_angle(std::f64::consts::FRAC_PI_2);
        assert!((n.y - 1.0).abs() < 1e-12);
        assert!((n.angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn headings() {
        assert!(Heading::EAST.same_direction(Heading::from_vec(Vec2::new(5.0, 1.0))));
        assert!(!Heading::EAST.same_direction(Heading::WEST));
        assert_eq!(Heading::EAST.reversed().unit(), Vec2::new(-1.0, 0.0));
        let angle = Heading::EAST.angle_to(Heading::NORTH);
        assert!((angle - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Heading::from_vec(Vec2::ZERO), Heading::EAST);
        assert_eq!(Heading::default(), Heading::EAST);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Vec2::new(1.0, 2.0).to_string(), "(1.00, 2.00)");
        assert_eq!(Heading::NORTH.to_string(), "90°");
    }

    #[test]
    fn within_agrees_with_the_exact_distance_comparison() {
        // Deterministic pseudo-random sweep without pulling in SimRng (this
        // crate sits below vanet-sim): a Weyl sequence over positions and
        // thresholds, plus adversarial exactly-on-the-boundary cases.
        let mut x = 0.5_f64;
        let mut next = move || {
            x = (x + std::f64::consts::FRAC_1_SQRT_2) % 1.0;
            x
        };
        for _ in 0..20_000 {
            let a = Vec2::new(next() * 4_000.0 - 2_000.0, next() * 4_000.0 - 2_000.0);
            let b = Vec2::new(next() * 4_000.0 - 2_000.0, next() * 4_000.0 - 2_000.0);
            let threshold = next() * 600.0;
            assert_eq!(
                within(a, b, threshold),
                distance(a, b) <= threshold,
                "within() diverged at {a:?} {b:?} threshold {threshold}"
            );
        }
        // Boundary: distance exactly equal to the threshold must accept.
        let a = Vec2::ZERO;
        let b = Vec2::new(250.0, 0.0);
        assert!(within(a, b, 250.0));
        assert!(!within(a, b, 249.999_999_999));
        // The band fallback: thresholds a hair around an exact diagonal.
        let c = Vec2::new(3.0, 4.0);
        assert!(within(Vec2::ZERO, c, 5.0));
        assert!(!within(Vec2::ZERO, c, 5.0 - 1e-12));
        // Degenerate thresholds.
        assert!(within(a, a, 0.0));
        assert!(!within(a, b, 0.0));
        assert!(!within(a, b, -1.0));
    }

    #[test]
    fn count_agrees_with_per_entry_check() {
        let reference = |filter: &WithinFilter, points: &[Vec2], center: Vec2| {
            points.iter().filter(|p| filter.check(**p, center)).count()
        };
        // Whether some point falls between the two fast bounds, where only
        // the exact comparison decides and `count` must recount.
        let any_in_band = |filter: &WithinFilter, points: &[Vec2], center: Vec2| {
            points.iter().any(|&p| {
                let d2 = (p - center).norm_sq();
                d2 > filter.accept_below && d2 < filter.reject_above
            })
        };
        const THRESHOLDS: [f64; 4] = [120.0, 250.0, 500.0, 751.0];

        // The same Weyl sequence as above: slices of 0–200 points scattered
        // over a box a little wider than the range circle.
        let mut x = 0.5_f64;
        let mut next = move || {
            x = (x + std::f64::consts::FRAC_1_SQRT_2) % 1.0;
            x
        };
        let mut points = Vec::new();
        for case in 0..2_400 {
            let threshold = THRESHOLDS[case % 4];
            let filter = WithinFilter::new(threshold);
            let center = Vec2::new(next() * 4_000.0 - 2_000.0, next() * 4_000.0 - 2_000.0);
            points.clear();
            for _ in 0..(next() * 201.0) as usize {
                let offset = Vec2::new(next() - 0.5, next() - 0.5) * (threshold * 2.6);
                points.push(center + offset);
            }
            assert!(!any_in_band(&filter, &points, center));
            let expected = reference(&filter, &points, center);
            assert_eq!(
                filter.count(&points, center),
                expected,
                "count() diverged on case {case}: {} points, threshold {threshold}",
                points.len()
            );
            assert!(points.len() < 8 || (0 < expected && expected < points.len()));
        }

        // Adversarial: points exactly on the threshold and a hair either
        // side of it. At ±1e-10 they sit inside the band, so the fast sums
        // cannot decide and the per-entry recount must; at ±1e-8 they are
        // outside it and the fast return must still be right.
        for threshold in THRESHOLDS {
            let filter = WithinFilter::new(threshold);
            let center = Vec2::new(17.0, -3.0);
            let at = |scale: f64| center + Vec2::new(threshold * scale, 0.0);
            let inner = [at(0.5), at(1.0 - 1e-8), at(-0.25)];
            let outer = [at(1.0 + 1e-8), at(2.0)];
            let band = [at(1.0), at(1.0 - 1e-10), at(1.0 + 1e-10), at(-1.0)];
            assert!(!any_in_band(&filter, &inner, center));
            assert!(!any_in_band(&filter, &outer, center));
            assert_eq!(filter.count(&inner, center), 3);
            assert_eq!(filter.count(&outer, center), 0);
            for &edge in &band {
                let mixed = [inner[0], edge, outer[0], inner[1], edge];
                assert!(any_in_band(&filter, &mixed, center));
                let expected = reference(&filter, &mixed, center);
                assert_eq!(filter.count(&mixed, center), expected);
                // On or inside the threshold counts; beyond it does not.
                let within_edge = distance(edge, center) <= threshold;
                assert_eq!(expected, 2 + 2 * usize::from(within_edge));
            }
            assert_eq!(reference(&filter, &band, center), 3);
            assert_eq!(filter.count(&band, center), 3);
        }

        // Degenerate inputs decide as `check` does.
        let cloud = [Vec2::ZERO, Vec2::new(1.0, 1.0), Vec2::new(300.0, 0.0)];
        assert_eq!(WithinFilter::new(-1.0).count(&cloud, Vec2::ZERO), 0);
        assert_eq!(WithinFilter::new(0.0).count(&cloud, Vec2::ZERO), 1);
        assert_eq!(WithinFilter::new(250.0).count(&[], Vec2::ZERO), 0);
        let with_nan = [Vec2::ZERO, Vec2::new(f64::NAN, 0.0), Vec2::new(10.0, 0.0)];
        let filter = WithinFilter::new(250.0);
        assert_eq!(reference(&filter, &with_nan, Vec2::ZERO), 2);
        assert_eq!(filter.count(&with_nan, Vec2::ZERO), 2);
        assert_eq!(filter.count(&cloud, Vec2::new(f64::NAN, 0.0)), 0);
    }
}
