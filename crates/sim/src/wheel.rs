//! A bucketed deadline wheel for high-volume timers (beacons and per-node
//! maintenance deadlines).
//!
//! A fleet of N periodically-firing nodes costs the binary-heap scheduler
//! `O(log Q)` per timer with `Q ≈ N` pending entries. [`TimerWheel`] instead
//! hashes timers into fixed-width slots: scheduling is an `O(1)` push into
//! the slot's vector, and a slot is sorted once when the clock reaches it.
//! The wheel also keeps those N long-lived timers *out* of the main heap,
//! which shrinks every remaining heap operation.
//!
//! Slot width: strictly *below* the shortest delay any timer on the wheel
//! re-arms with. A timer that fires from the activated slot and re-arms less
//! than a slot width ahead can land back in that slot, which is already
//! sorted — the push becomes a `Vec::insert` into a fleet-sized vector
//! instead of an append. A beacon of period `T` jittered by ±5 % re-arms as
//! little as `0.95 T` ahead, so a slot of `T` splices and a slot of `0.94 T`
//! never does; [`TimerWheel::spliced`] counts the slow-path pushes.
//!
//! Determinism: every entry carries the scheduler-wide [`EventKey`], the
//! same key the event heap orders by. [`TimerWheel::peek`] always exposes the
//! smallest key in the wheel, so the scheduler's two-way merge of wheel and
//! heap pops events in exactly the order a single queue would have — byte
//! identical, including same-timestamp tie-breaks.

use crate::event::EventKey;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One wheel entry: the ordering key plus the payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

/// A timer wheel whose slots are `slot` wide, merged against the event heap
/// by [`EventKey`].
#[derive(Debug, Clone)]
pub struct TimerWheel<E> {
    slot_s: f64,
    /// Absolute slot index of `slots[0]` (the next slot to activate).
    base: i64,
    /// Future slots, unsorted.
    slots: VecDeque<Vec<Entry<E>>>,
    /// The activated slot, sorted *descending* by key so the next entry to
    /// fire pops off the back in O(1).
    current: Vec<Entry<E>>,
    /// Pushes that had to splice into the already-sorted activated slot.
    spliced: u64,
}

impl<E> TimerWheel<E> {
    /// Creates a wheel with `slot`-wide buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `slot` is positive and finite.
    #[must_use]
    pub fn new(slot: SimDuration) -> Self {
        let slot_s = slot.as_secs();
        assert!(
            slot_s.is_finite() && slot_s > 0.0,
            "timer-wheel slot must be positive and finite"
        );
        TimerWheel {
            slot_s,
            base: 0,
            slots: VecDeque::new(),
            current: Vec::new(),
            spliced: 0,
        }
    }

    /// How many slots the wheel will allocate ahead of its base. Entries
    /// further out should live in the scheduler's heap instead (see
    /// [`TimerWheel::accepts`]); the merge by key keeps order identical
    /// either way.
    pub const MAX_SLOTS_AHEAD: i64 = 4_096;

    fn slot_index(&self, time: SimTime) -> i64 {
        (time.as_secs() / self.slot_s).floor() as i64
    }

    /// Whether `time` is near enough for the wheel to bucket it without
    /// allocating an unbounded run of empty slots.
    #[must_use]
    pub fn accepts(&self, time: SimTime) -> bool {
        self.slot_index(time) - self.base < Self::MAX_SLOTS_AHEAD
    }

    /// Number of pending entries, counted across `current` and `slots`.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.current.len() + self.slots.iter().map(Vec::len).sum::<usize>()
    }

    /// How many pushes landed in the already-activated slot and were spliced
    /// into its sorted remainder — an `O(slot)` `memmove` each. Zero in
    /// steady state when the slot width follows the module-level rule.
    #[must_use]
    pub fn spliced(&self) -> u64 {
        self.spliced
    }

    /// Schedules `event` under `key`, at `key.time()`.
    pub fn push(&mut self, key: EventKey, event: E) {
        let entry = Entry { key, event };
        let idx = self.slot_index(key.time());
        if idx < self.base {
            // The slot is already activated (or the wheel has advanced past
            // it): splice into the sorted remainder so ordering holds.
            self.spliced += 1;
            let pos = self.current.partition_point(|e| e.key > key);
            self.current.insert(pos, entry);
            return;
        }
        let offset = usize::try_from(idx - self.base).expect("slot offset fits usize");
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, Vec::new);
        }
        self.slots[offset].push(entry);
    }

    /// Activates slots until `current` holds an entry or the wheel is
    /// drained.
    fn advance(&mut self) {
        while self.current.is_empty() {
            let Some(mut slot) = self.slots.pop_front() else {
                return;
            };
            self.base += 1;
            if !slot.is_empty() {
                slot.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
                self.current = slot;
            }
        }
    }

    /// The key of the earliest pending entry.
    #[must_use]
    pub fn peek(&mut self) -> Option<EventKey> {
        self.advance();
        self.current.last().map(|e| e.key)
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.advance();
        let entry = self.current.pop()?;
        Some((entry.key.time(), entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn k(secs: f64, seq: u64) -> EventKey {
        EventKey::new(t(secs), seq)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(k(2.5, 3), "c");
        w.push(k(0.5, 1), "a");
        w.push(k(2.5, 2), "b");
        w.push(k(1.1, 0), "z");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "z", "b", "c"]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_into_activated_slot_keeps_order() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(k(0.2, 0), "first");
        w.push(k(0.8, 1), "third");
        assert_eq!(w.pop().unwrap().1, "first");
        // Slot 0 is activated and half-drained; a late arrival for it must
        // still fire in key order.
        w.push(k(0.5, 2), "second");
        assert_eq!(w.pop().unwrap().1, "second");
        assert_eq!(w.pop().unwrap().1, "third");
    }

    #[test]
    fn sparse_far_future_slots() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(k(100.0, 0), "far");
        w.push(k(3.0, 1), "near");
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek(), Some(k(3.0, 1)));
        assert_eq!(w.pop().unwrap().1, "near");
        assert_eq!(w.pop().unwrap().1, "far");
        assert!(w.pop().is_none());
    }

    /// 200 beacons of period 1 s, each re-armed `[0.95, 1.05]` s after it
    /// fires, for ten periods; returns how many pushes spliced.
    fn splices_with_slot(slot: f64) -> u64 {
        let mut rng = crate::SimRng::new(3);
        let mut w = TimerWheel::new(SimDuration::from_secs(slot));
        let mut seq = 0u64;
        for node in 0..200u32 {
            w.push(k(rng.uniform(), seq), node);
            seq += 1;
        }
        let mut last = SimTime::ZERO;
        while let Some((time, node)) = w.pop() {
            assert!(time >= last, "pop order holds whatever the slot width");
            last = time;
            if time.as_secs() < 10.0 {
                let rearm = SimDuration::from_secs(rng.uniform_range(0.95, 1.05));
                w.push(EventKey::new(time + rearm, seq), node);
                seq += 1;
            }
        }
        w.spliced()
    }

    #[test]
    fn a_slot_below_the_shortest_rearm_never_splices() {
        assert_eq!(splices_with_slot(0.94), 0);
        assert!(
            splices_with_slot(1.0) > 0,
            "a beacon fired early in a full-interval slot and re-armed 0.95 s \
             ahead lands back in the activated slot"
        );
    }
}
