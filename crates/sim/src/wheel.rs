//! A bucketed deadline wheel for high-volume timers (beacons, per-node
//! maintenance deadlines, neighbour leases).
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
//! Originally the wheel only batched beacons; it is now a general deadline
//! wheel: any event type can ride it, and [`TimerWheel::push_cancellable`]
//! returns a [`WheelHandle`] that revokes a pending deadline in O(1)
//! (tombstone flag, reaped when the entry surfaces) — the primitive lease-
//! style timers need when a deadline is superseded before it fires.
//!
//! Determinism: every entry carries the scheduler-wide [`EventKey`], the
//! same key the event heap orders by. [`TimerWheel::peek`] always exposes the
//! smallest key in the wheel, so the scheduler's two-way merge of wheel and
//! heap pops events in exactly the order a single queue would have — byte
//! identical, including same-timestamp tie-breaks.

use crate::event::EventKey;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// One wheel entry: the ordering key, the payload, and the index of its
/// cancellation flag (if cancellable).
#[derive(Debug, Clone)]
struct Entry<E> {
    key: EventKey,
    event: E,
    /// Cancellation flag index plus one; niche-packed to 4 bytes because a
    /// fleet's worth of entries lands in every slot.
    handle: Option<NonZeroU32>,
}

/// A handle that can be used to cancel a deadline scheduled on the wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelHandle(usize);

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
    /// Cancellation flags, indexed by [`WheelHandle`]. A flag flips to `true`
    /// on cancel (or once its entry fires, making later cancels no-ops).
    cancelled: Vec<bool>,
    /// Live (non-cancelled) entries.
    len: usize,
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
            cancelled: Vec::new(),
            len: 0,
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

    /// Number of pending (non-cancelled) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many pushes landed in the already-activated slot and were spliced
    /// into its sorted remainder — an `O(slot)` `memmove` each. Zero in
    /// steady state when the slot width follows the module-level rule.
    #[must_use]
    pub fn spliced(&self) -> u64 {
        self.spliced
    }

    fn insert(&mut self, entry: Entry<E>) {
        self.len += 1;
        let idx = self.slot_index(entry.key.time());
        if idx < self.base {
            // The slot is already activated (or the wheel has advanced past
            // it): splice into the sorted remainder so ordering holds.
            self.spliced += 1;
            let pos = self.current.partition_point(|e| e.key > entry.key);
            self.current.insert(pos, entry);
            return;
        }
        let offset = usize::try_from(idx - self.base).expect("slot offset fits usize");
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, Vec::new);
        }
        self.slots[offset].push(entry);
    }

    /// Schedules `event` under `key`, at `key.time()`.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.insert(Entry {
            key,
            event,
            handle: None,
        });
    }

    /// Schedules `event` under `key` and returns a handle that can later be
    /// passed to [`TimerWheel::cancel`].
    ///
    /// Each cancellable push allocates one flag slot for the wheel's
    /// lifetime (the same bookkeeping [`EventQueue`](crate::EventQueue)
    /// uses), so this suits timers that are cancelled occasionally — a
    /// workload that re-arms per entry at high frequency should prefer a
    /// supersede-on-fire scheme over per-renewal cancellation.
    pub fn push_cancellable(&mut self, key: EventKey, event: E) -> WheelHandle {
        let handle = self.cancelled.len();
        self.cancelled.push(false);
        let tag = u32::try_from(handle + 1).expect("more than u32::MAX cancellable deadlines");
        self.insert(Entry {
            key,
            event,
            handle: NonZeroU32::new(tag),
        });
        WheelHandle(handle)
    }

    /// Cancels a pending deadline in O(1). Cancelling an already-fired or
    /// already-cancelled deadline is a no-op and returns `false`. The
    /// tombstoned entry is reaped when its slot surfaces.
    pub fn cancel(&mut self, handle: WheelHandle) -> bool {
        match self.cancelled.get_mut(handle.0) {
            Some(flag) if !*flag => {
                *flag = true;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    fn is_cancelled(&self, entry: &Entry<E>) -> bool {
        entry
            .handle
            .is_some_and(|tag| self.cancelled[tag.get() as usize - 1])
    }

    /// Drops cancelled entries off the back of `current`, then activates
    /// slots until `current` ends in a live entry or the wheel is drained.
    fn advance(&mut self) {
        loop {
            while let Some(tail) = self.current.last() {
                if self.is_cancelled(tail) {
                    self.current.pop();
                } else {
                    return;
                }
            }
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
        if let Some(tag) = entry.handle {
            // Mark fired so a later cancel() is a no-op.
            self.cancelled[tag.get() as usize - 1] = true;
        }
        self.len -= 1;
        Some((entry.key.time(), entry.event))
    }

    /// Drops all pending entries. Handles issued before the clear become
    /// permanently dead (their flags are tombstoned, not recycled, so they
    /// can never alias an entry pushed afterwards).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.current.clear();
        for flag in &mut self.cancelled {
            *flag = true;
        }
        self.len = 0;
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
        assert!(w.is_empty());
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

    #[test]
    fn cancellation_revokes_a_pending_deadline() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        let h = w.push_cancellable(k(1.0, 0), "lease");
        w.push(k(2.0, 1), "keep");
        assert_eq!(w.len(), 2);
        assert!(w.cancel(h));
        assert!(!w.cancel(h), "double cancel is a no-op");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().1, "keep");
        assert!(w.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        let h = w.push_cancellable(k(0.5, 0), "x");
        assert_eq!(w.pop().unwrap().1, "x");
        assert!(!w.cancel(h));
        assert!(w.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_entries() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        let h = w.push_cancellable(k(0.5, 0), "dead");
        w.push(k(1.5, 1), "live");
        w.cancel(h);
        assert_eq!(w.peek(), Some(k(1.5, 1)));
        assert_eq!(w.pop().unwrap().1, "live");
    }

    #[test]
    fn lease_renewal_pattern_fires_only_the_latest_deadline() {
        // The neighbour-lease shape: each renewal cancels the previous
        // deadline and schedules a later one.
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        let mut handle = w.push_cancellable(k(3.0, 0), 3u32);
        for (seq, deadline) in [(1u64, 4.0), (2, 5.0), (3, 6.0)] {
            assert!(w.cancel(handle));
            handle = w.push_cancellable(k(deadline, seq), deadline as u32);
        }
        assert_eq!(w.len(), 1);
        let fired: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(fired, vec![6]);
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

    #[test]
    fn clear_empties_wheel() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(k(1.0, 0), 1);
        let h = w.push_cancellable(k(2.0, 1), 2);
        w.clear();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
        assert!(!w.cancel(h), "handles from before clear are dead");
    }
}
