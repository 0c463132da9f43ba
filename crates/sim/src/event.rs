//! The deterministic event queue.
//!
//! Events are ordered primarily by their firing time, and secondarily by a
//! monotonically increasing sequence number assigned at insertion. The
//! sequence number makes processing order deterministic when several events
//! share the same timestamp — essential for reproducible simulations where two
//! runs with the same seed must produce byte-identical results.
//!
//! [`EventKey`] is that order as one value: every tier of the scheduler and
//! every caller that sorts events compares keys, never `(time, seq)` tuples.

// lint: hot-path

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU32;

/// The position of an event in the fire order: its time
/// ([`SimTime::order_key`]) and, below it, the sequence number that breaks
/// ties between events of one instant. Keys compare — two integer compares,
/// no float, no panic path — exactly as `(time, seq)` tuples would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    // Field order is the derived lexicographic order: time first.
    time: u64,
    seq: u64,
}

impl EventKey {
    /// The key of the event firing at `time` with tie-break number `seq`.
    #[must_use]
    pub fn new(time: SimTime, seq: u64) -> Self {
        EventKey {
            time: time.order_key(),
            seq,
        }
    }

    /// When the event fires (`-0.0` reads back as `0.0`).
    #[must_use]
    pub fn time(self) -> SimTime {
        SimTime::from_order_key(self.time)
    }

    /// The tie-break sequence number.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// A scheduled entry: its place in the fire order and the payload.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires, and the insertion order that breaks ties.
    pub key: EventKey,
    /// The event payload.
    pub event: E,
    /// Cancellation flag index plus one (see
    /// [`EventQueue::push_cancellable`]); `NonZeroU32` keeps the niche-packed
    /// option at 4 bytes, which matters when millions of entries flow through
    /// the heap per simulated second.
    handle: Option<NonZeroU32>,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest key pops first.
        other.key.cmp(&self.key)
    }
}

/// A handle that can be used to cancel a scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(usize);

/// A deterministic priority queue of timed events.
///
/// # Example
///
/// ```
/// use vanet_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5.0), "late");
/// q.push(SimTime::from_secs(5.0), "late-too, but inserted second");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
    cancelled: Vec<bool>,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            // lint: allow(P1) — construction, once per queue.
            cancelled: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (non-cancelled) events in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the queue holds no live events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(EventKey::new(time, self.next_seq), event);
    }

    /// Schedules `event` under a caller-assigned key. Used by
    /// [`Scheduler`](crate::Scheduler), which shares one sequence counter
    /// between this heap and its other tiers so that the merged pop order is
    /// identical to a single queue's.
    ///
    /// The key's sequence number must differ from every one already used (it
    /// need not be the largest: the scheduler queues reserved numbers late),
    /// or same-time ordering becomes unspecified.
    pub fn push_keyed(&mut self, key: EventKey, event: E) {
        self.next_seq = self.next_seq.max(key.seq() + 1);
        self.live += 1;
        self.heap.push(EventEntry {
            key,
            event,
            handle: None,
        });
    }

    /// Schedules `event` at `time` and returns a handle that can later be
    /// passed to [`EventQueue::cancel`].
    pub fn push_cancellable(&mut self, time: SimTime, event: E) -> EventHandle {
        self.push_cancellable_keyed(EventKey::new(time, self.next_seq), event)
    }

    /// Like [`EventQueue::push_keyed`], returning a cancellation handle.
    pub fn push_cancellable_keyed(&mut self, key: EventKey, event: E) -> EventHandle {
        self.next_seq = self.next_seq.max(key.seq() + 1);
        self.live += 1;
        let idx = self.cancelled.len();
        self.cancelled.push(false);
        let tag = u32::try_from(idx + 1).expect("more than u32::MAX cancellable events");
        self.heap.push(EventEntry {
            key,
            event,
            handle: NonZeroU32::new(tag),
        });
        EventHandle(idx)
    }

    /// Cancels a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op and returns `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.cancelled.get_mut(handle.0) {
            Some(flag) if !*flag => {
                *flag = true;
                self.live = self.live.saturating_sub(1);
                true
            }
            _ => false,
        }
    }

    /// Returns the time of the next live event without removing it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_cancelled_head();
        self.heap.peek().map(|e| e.key.time())
    }

    /// Returns the key of the next live event without removing it — the key
    /// the scheduler merges against its other tiers.
    #[must_use]
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.drop_cancelled_head();
        self.heap.peek().map(|e| e.key)
    }

    /// Removes and returns the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = self.heap.pop()?;
            if let Some(tag) = entry.handle {
                let idx = tag.get() as usize - 1;
                if self.cancelled[idx] {
                    continue;
                }
                // Mark fired so a later cancel() is a no-op.
                self.cancelled[idx] = true;
            }
            self.live = self.live.saturating_sub(1);
            return Some((entry.key.time(), entry.event));
        }
    }

    /// Drops all events, leaving the queue empty. Handles issued before the
    /// clear become permanently dead (their flags are tombstoned, not
    /// recycled, so they can never alias an event pushed afterwards).
    pub fn clear(&mut self) {
        self.heap.clear();
        for flag in &mut self.cancelled {
            *flag = true;
        }
        self.live = 0;
    }

    fn drop_cancelled_head(&mut self) {
        while let Some(entry) = self.heap.peek() {
            match entry.handle {
                Some(tag) if self.cancelled[tag.get() as usize - 1] => {
                    self.heap.pop();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn event_keys_order_as_time_seq_tuples() {
        let mut rng = crate::SimRng::new(0xe7e7);
        // A handful of times, negative ones and both zeros included, so that
        // half the pairs tie on time and fall through to `seq`.
        let times = [-2.5, -0.0, 0.0, 1e-9, 0.25, 0.25 + f64::EPSILON, 7.0, 1e12];
        for _ in 0..20_000 {
            let mut draw = || {
                let time = if rng.chance(0.8) {
                    times[rng.uniform_usize(times.len())]
                } else {
                    rng.uniform_range(-10.0, 10.0)
                };
                (time, rng.next_u64() >> rng.uniform_usize(64))
            };
            let (a, b) = (draw(), draw());
            let by_tuple =
                a.0.partial_cmp(&b.0)
                    .expect("no NaN drawn")
                    .then(a.1.cmp(&b.1));
            let key = |(time, seq)| EventKey::new(SimTime::from_secs(time), seq);
            assert_eq!(key(a).cmp(&key(b)), by_tuple, "{a:?} {b:?}");
            assert_eq!(key(a).seq(), a.1);
            assert_eq!(key(a).time().as_secs(), a.0);
        }
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "keep");
        let h = q.push_cancellable(SimTime::from_secs(0.5), "drop");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "keep");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime::from_secs(0.5), "x");
        assert_eq!(q.pop().unwrap().1, "x");
        assert!(!q.cancel(h));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(1.0), 1);
        let h = q.push_cancellable(SimTime::from_secs(2.0), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }
}
