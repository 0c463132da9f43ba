//! Fixed-interval window bookkeeping for streaming telemetry.
//!
//! A [`WindowClock`] maps the simulation clock onto consecutive
//! fixed-width windows `[0, w), [w, 2w), …` and reports, as time advances,
//! which windows have *closed* — i.e. can never receive another sample
//! because the clock has moved past their right edge. Taps use it to decide
//! when a window's counters are final and may be sealed (medium-stats deltas
//! snapshotted, derived values computed).
//!
//! The mapping is a pure function of the window width and the observed
//! times, so two runs that observe the same event times seal the same
//! windows in the same order — the windowing layer adds no nondeterminism
//! of its own.

use crate::time::{SimDuration, SimTime};

/// Assigns simulation times to consecutive fixed-width windows and tracks
/// which windows have closed as the clock advances.
#[derive(Debug, Clone)]
pub struct WindowClock {
    width_s: f64,
    /// Index of the first window that has not been sealed yet.
    open: usize,
}

impl WindowClock {
    /// A clock with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero — every event would seal infinitely many
    /// windows.
    #[must_use]
    pub fn new(width: SimDuration) -> Self {
        assert!(
            width.as_secs() > 0.0,
            "telemetry window width must be positive"
        );
        WindowClock {
            width_s: width.as_secs(),
            open: 0,
        }
    }

    /// The window width.
    #[must_use]
    pub fn width(&self) -> SimDuration {
        SimDuration::from_secs(self.width_s)
    }

    /// The window index a time falls into (`t / width`, floored).
    #[must_use]
    fn index_of(&self, t: SimTime) -> usize {
        (t.as_secs() / self.width_s) as usize
    }

    /// Index of the earliest window not yet sealed.
    #[cfg(test)]
    #[must_use]
    fn open_index(&self) -> usize {
        self.open
    }

    /// Advances the clock to `now` and returns the range of window indices
    /// that just closed (possibly empty). A window `[i·w, (i+1)·w)` closes
    /// once `now` reaches `(i+1)·w`; the range is yielded exactly once.
    pub fn advance(&mut self, now: SimTime) -> std::ops::Range<usize> {
        let current = self.index_of(now);
        let closed = self.open..current.max(self.open);
        self.open = current.max(self.open);
        closed
    }

    /// Seals every window up to and including the one containing `end`
    /// (used at end-of-run, where the final partial window must still be
    /// flushed). Returns the closed range.
    pub fn finish(&mut self, end: SimTime) -> std::ops::Range<usize> {
        let last = self.index_of(end);
        let closed = self.open..(last + 1).max(self.open);
        self.open = (last + 1).max(self.open);
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_as_time_passes_each_boundary() {
        let mut clock = WindowClock::new(SimDuration::from_secs(1.0));
        assert_eq!(clock.advance(SimTime::from_secs(0.4)), 0..0);
        assert_eq!(clock.advance(SimTime::from_secs(0.9)), 0..0);
        // Crossing 1.0 closes window 0.
        assert_eq!(clock.advance(SimTime::from_secs(1.0)), 0..1);
        // No double-close.
        assert_eq!(clock.advance(SimTime::from_secs(1.5)), 1..1);
        // A long gap closes several windows at once.
        assert_eq!(clock.advance(SimTime::from_secs(4.2)), 1..4);
        assert_eq!(clock.open_index(), 4);
    }

    #[test]
    fn finish_seals_the_partial_final_window() {
        let mut clock = WindowClock::new(SimDuration::from_secs(2.0));
        assert_eq!(clock.advance(SimTime::from_secs(3.0)), 0..1);
        assert_eq!(clock.finish(SimTime::from_secs(3.0)), 1..2);
        // Finishing twice yields nothing new.
        assert_eq!(clock.finish(SimTime::from_secs(3.0)), 2..2);
    }

    #[test]
    fn index_of_is_a_pure_floor() {
        let clock = WindowClock::new(SimDuration::from_secs(0.5));
        assert_eq!(clock.index_of(SimTime::ZERO), 0);
        assert_eq!(clock.index_of(SimTime::from_secs(0.49)), 0);
        assert_eq!(clock.index_of(SimTime::from_secs(0.5)), 1);
        assert_eq!(clock.index_of(SimTime::from_secs(7.75)), 15);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_width_panics() {
        let _ = WindowClock::new(SimDuration::ZERO);
    }
}
