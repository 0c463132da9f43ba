//! The deterministic event order.
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

/// A heap entry of the [`Scheduler`](crate::Scheduler): its place in the
/// fire order and the payload.
#[derive(Debug, Clone)]
pub(crate) struct EventEntry<E> {
    /// When the event fires, and the insertion order that breaks ties.
    pub(crate) key: EventKey,
    /// The event payload.
    pub(crate) event: E,
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

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BinaryHeap;

    /// Pops `entries`, given as `(time, seq)`, off a heap and returns their
    /// payloads — their index in `entries` — in fire order.
    fn fire_order(entries: &[(f64, u64)]) -> Vec<usize> {
        let mut heap: BinaryHeap<EventEntry<usize>> = entries
            .iter()
            .enumerate()
            .map(|(event, &(time, seq))| EventEntry {
                key: EventKey::new(SimTime::from_secs(time), seq),
                event,
            })
            .collect();
        std::iter::from_fn(|| heap.pop().map(|e| e.event)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        assert_eq!(fire_order(&[(3.0, 0), (1.0, 1), (2.0, 2)]), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let ties: Vec<(f64, u64)> = (0..10).map(|seq| (1.0, seq)).collect();
        assert_eq!(fire_order(&ties), (0..10).collect::<Vec<_>>());
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
}
