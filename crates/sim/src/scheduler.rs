//! The simulation scheduler: a clock plus an event queue.
//!
//! [`Scheduler`] is generic over the event payload type `E`. The owning
//! simulation drives it with a simple loop:
//!
//! ```
//! use vanet_sim::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_after(SimDuration::from_secs(1.0), Ev::Tick(1));
//! sched.schedule_after(SimDuration::from_secs(2.0), Ev::Tick(2));
//!
//! let mut fired = Vec::new();
//! while let Some((time, ev)) = sched.next_event() {
//!     match ev {
//!         Ev::Tick(n) => fired.push((time.as_secs(), n)),
//!     }
//! }
//! assert_eq!(fired, vec![(1.0, 1), (2.0, 2)]);
//! ```

use crate::calendar::CalendarQueue;
use crate::error::SimError;
use crate::event::{EventEntry, EventKey};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;
use std::collections::BinaryHeap;

/// Which tier holds the next pending event (see [`Scheduler::peek_merged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Heap,
    Wheel,
    Calendar,
}

/// A discrete-event scheduler combining a clock, an event heap, an optional
/// batched timer wheel for high-volume periodic events, and an optional
/// calendar queue for dense near-future events (frames in flight).
///
/// All three tiers share one sequence counter, and [`Scheduler::next_event`]
/// pops whichever holds the smallest [`EventKey`] — so enabling
/// batching or the calendar never changes the order events fire in, only the
/// cost of scheduling them.
///
/// A caller whose one action fans out into a *run* of events (a radio frame
/// reaching its receivers) need not queue them all: it reserves their
/// sequence numbers ([`Scheduler::reserve_seqs`]), queues one entry under
/// the run's smallest key ([`Scheduler::schedule_keyed`]) and, after firing
/// each member, asks [`Scheduler::advance_if_next`] whether the next
/// member's key is still ahead of everything pending — continuing inline if
/// so, re-queuing the entry under that key if not. Either way the members
/// fire exactly where individually scheduled events would have.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    now: SimTime,
    /// Whatever neither the wheel nor the calendar takes.
    heap: BinaryHeap<EventEntry<E>>,
    wheel: Option<TimerWheel<E>>,
    calendar: Option<CalendarQueue<E>>,
    /// The merged head of the three tiers, when known: filled by
    /// [`Scheduler::peek_merged`], cleared by every pop and by a push that
    /// lands in front of it (a push behind it cannot change it).
    head: Option<(EventKey, Tier)>,
    seq: u64,
    processed: u64,
    horizon: Option<SimTime>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            wheel: None,
            calendar: None,
            head: None,
            seq: 0,
            processed: 0,
            horizon: None,
        }
    }

    /// Creates a scheduler that refuses to advance past `horizon`.
    #[must_use]
    pub fn with_horizon(horizon: SimTime) -> Self {
        let mut s = Self::new();
        s.horizon = Some(horizon);
        s
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.heap.len()
            + self.wheel.as_ref().map_or(0, TimerWheel::len)
            + self.calendar.as_ref().map_or(0, CalendarQueue::len)
    }

    /// Enables the batched timer wheel with `slot`-wide buckets. Call once,
    /// before the first [`Scheduler::schedule_batched_after`]; pick the slot
    /// strictly below the shortest delay a batched event re-arms with (a
    /// beacon jittered by ±5 % re-arms 0.95 intervals ahead at the least), so
    /// that a re-armed timer never lands back in the slot it fired from — see
    /// the slot rule in the timer wheel's module docs and
    /// [`Scheduler::wheel_splices`].
    ///
    /// # Panics
    ///
    /// Panics unless `slot` is positive and finite.
    pub fn enable_batching(&mut self, slot: SimDuration) {
        if self.wheel.is_none() {
            self.wheel = Some(TimerWheel::new(slot));
        }
    }

    /// Enables the calendar-queue tier with `buckets` ring buckets each
    /// `bucket` wide. Once enabled, [`Scheduler::schedule_at`] and
    /// [`Scheduler::schedule_after`] route events landing inside the
    /// calendar's window (`buckets × bucket` ahead) through the ring instead
    /// of the heap; anything further out still goes to the heap. Fire order
    /// is identical either way — the calendar shares the scheduler-wide
    /// [`EventKey`]s and `next_event` merges all tiers by that key.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket` is positive and finite and `buckets > 0`.
    pub fn enable_calendar(&mut self, bucket: SimDuration, buckets: usize) {
        if self.calendar.is_none() {
            self.calendar = Some(CalendarQueue::new(bucket, buckets));
        }
    }

    /// How many batched pushes landed in the wheel's already-activated slot
    /// and were spliced into its sorted remainder; zero without a wheel.
    #[must_use]
    pub fn wheel_splices(&self) -> u64 {
        self.wheel.as_ref().map_or(0, TimerWheel::spliced)
    }

    /// Draws the next sequence number for an event at `time` and forgets the
    /// cached head if the new key precedes it.
    fn next_key(&mut self, time: SimTime) -> EventKey {
        let key = EventKey::new(time, self.reserve_seqs(1));
        self.forget_head_behind(key);
        key
    }

    /// Forgets the cached head if an entry about to be pushed under `key`
    /// precedes it.
    fn forget_head_behind(&mut self, key: EventKey) {
        if self.head.is_some_and(|(head, _)| key < head) {
            self.head = None;
        }
    }

    /// Routes `event` to the calendar when it is enabled and the key's time
    /// is inside its window, to the heap otherwise. The caller has already
    /// dealt with the cached head.
    fn push_near(&mut self, key: EventKey, event: E) {
        if let Some(cal) = &mut self.calendar {
            cal.reanchor(self.now);
            if cal.accepts(key.time()) {
                cal.push(key, event);
                return;
            }
        }
        self.heap.push(EventEntry { key, event });
    }

    /// Reserves `n` consecutive sequence numbers — the ones `n` back-to-back
    /// `schedule_*` calls would have drawn — and returns the first. The
    /// caller owns them: each may key at most one entry, queued with
    /// [`Scheduler::schedule_keyed`] or fired through
    /// [`Scheduler::advance_if_next`].
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules `event` under exactly `key`, whose sequence number was
    /// reserved with [`Scheduler::reserve_seqs`]. It fires where an event
    /// scheduled at `key.time()` by the call that drew that number would
    /// have.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the key's time is before the clock or its
    /// sequence number was never reserved.
    pub fn schedule_keyed(&mut self, key: EventKey, event: E) {
        debug_assert!(key.time() >= self.now, "keyed event scheduled in the past");
        debug_assert!(key.seq() < self.seq, "keyed event with an unreserved seq");
        self.forget_head_behind(key);
        self.push_near(key, event);
    }

    /// Fires the event keyed `key` in place, without it ever having been
    /// queued: returns `true` — with the clock advanced to `key.time()` and
    /// one more event counted as processed, exactly as if
    /// [`Scheduler::next_event`] had popped it — iff no pending event
    /// precedes that key and its time lies within the horizon. On `false`
    /// nothing changed; queue the event with [`Scheduler::schedule_keyed`]
    /// and it surfaces in its turn.
    pub fn advance_if_next(&mut self, key: EventKey) -> bool {
        let time = key.time();
        if self.horizon.is_some_and(|h| time > h) {
            return false;
        }
        if self.peek_merged().is_some_and(|(head, _)| head < key) {
            return false;
        }
        debug_assert!(time >= self.now, "keyed event lies in the past");
        self.now = time;
        self.processed += 1;
        true
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduledInPast`] if `time` is before the current
    /// clock value.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> Result<(), SimError> {
        if time < self.now {
            return Err(SimError::ScheduledInPast {
                now: self.now,
                requested: time,
            });
        }
        let key = self.next_key(time);
        self.push_near(key, event);
        Ok(())
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let key = self.next_key(self.now + delay);
        self.push_near(key, event);
    }

    /// Schedules an event `delay` after the current time through the batched
    /// timer wheel: an O(1) bucket push instead of a heap insertion. Intended
    /// for the per-node periodic timers (beacons) that would otherwise
    /// dominate the heap — i.e. events landing within a few slot widths of
    /// now. Falls back to the heap when batching is disabled or the delay is
    /// so far ahead that bucketing it would allocate a long run of empty
    /// slots (the wheel's `MAX_SLOTS_AHEAD`).
    ///
    /// Fire order is identical either way — the wheel shares the scheduler's
    /// sequence counter and `next_event` merges the two by [`EventKey`].
    pub fn schedule_batched_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        let key = self.next_key(time);
        match &mut self.wheel {
            Some(wheel) if wheel.accepts(time) => wheel.push(key, event),
            _ => self.heap.push(EventEntry { key, event }),
        }
    }

    /// The key of the next pending event across the heap, the wheel and the
    /// calendar, plus which tier holds it. Sequence numbers are globally
    /// unique, so the three-way minimum is unambiguous. The answer is cached
    /// until something can have changed it.
    fn peek_merged(&mut self) -> Option<(EventKey, Tier)> {
        if self.head.is_some() {
            return self.head;
        }
        let mut best = self.heap.peek().map(|e| (e.key, Tier::Heap));
        if let Some(key) = self.wheel.as_mut().and_then(TimerWheel::peek) {
            if !best.is_some_and(|(b, _)| b <= key) {
                best = Some((key, Tier::Wheel));
            }
        }
        if let Some(key) = self.calendar.as_mut().and_then(CalendarQueue::peek) {
            if !best.is_some_and(|(b, _)| b <= key) {
                best = Some((key, Tier::Calendar));
            }
        }
        self.head = best;
        best
    }

    /// Pops the next event and advances the clock to its time.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the configured horizon.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (next, tier) = self.peek_merged()?;
        if let Some(h) = self.horizon {
            if next.time() > h {
                return None;
            }
        }
        self.head = None;
        let (time, event) = match tier {
            Tier::Wheel => self.wheel.as_mut().expect("peek said wheel").pop()?,
            Tier::Calendar => self.calendar.as_mut().expect("peek said calendar").pop()?,
            Tier::Heap => self.heap.pop().map(|e| (e.key.time(), e.event))?,
        };
        debug_assert!(
            time >= self.now,
            "event queue returned an event in the past"
        );
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut s = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(2.0), Ev::B);
        s.schedule_after(SimDuration::from_secs(1.0), Ev::A);
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, e) = s.next_event().unwrap();
        assert_eq!(e, Ev::A);
        assert_eq!(t, SimTime::from_secs(1.0));
        assert_eq!(s.now(), t);
        let (t, e) = s.next_event().unwrap();
        assert_eq!(e, Ev::B);
        assert_eq!(s.now(), t);
        assert!(s.next_event().is_none());
        assert_eq!(s.processed_events(), 2);
    }

    #[test]
    fn scheduling_in_the_past_is_rejected() {
        let mut s = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(5.0), Ev::A);
        s.next_event();
        let err = s.schedule_at(SimTime::from_secs(1.0), Ev::B).unwrap_err();
        assert!(matches!(err, SimError::ScheduledInPast { .. }));
    }

    #[test]
    fn horizon_stops_processing() {
        let mut s = Scheduler::with_horizon(SimTime::from_secs(1.5));
        s.schedule_after(SimDuration::from_secs(1.0), Ev::A);
        s.schedule_after(SimDuration::from_secs(2.0), Ev::B);
        assert!(s.next_event().is_some());
        assert!(
            s.next_event().is_none(),
            "event beyond horizon must not fire"
        );
        assert_eq!(s.pending_events(), 1);
    }

    #[test]
    fn batched_and_heap_events_fire_in_identical_merged_order() {
        // Interleave "beacon" (batched) and "arrival" (heap) events with
        // colliding timestamps; the pop order must equal a pure-heap
        // scheduler's, including same-time tie-breaks by scheduling order.
        let mut rng = crate::SimRng::new(42);
        let mut plan: Vec<(bool, f64)> = Vec::new();
        for _ in 0..500 {
            let batched = rng.chance(0.5);
            // Coarse timestamps force plenty of exact ties.
            let t = (rng.uniform_range(0.0, 20.0) * 4.0).round() / 4.0;
            plan.push((batched, t));
        }

        let mut plain: Scheduler<usize> = Scheduler::new();
        let mut wheeled: Scheduler<usize> = Scheduler::new();
        wheeled.enable_batching(SimDuration::from_secs(1.0));
        for (i, &(batched, t)) in plan.iter().enumerate() {
            let d = SimDuration::from_secs(t);
            plain.schedule_after(d, i);
            if batched {
                wheeled.schedule_batched_after(d, i);
            } else {
                wheeled.schedule_after(d, i);
            }
        }
        loop {
            let a = plain.next_event();
            let b = wheeled.next_event();
            assert_eq!(a, b, "merged pop order diverged");
            if a.is_none() {
                break;
            }
            // Re-schedule a fraction to exercise pushes into activated slots.
            if let Some((_, i)) = a {
                if i % 7 == 0 && plain.processed_events() < 700 {
                    let d = SimDuration::from_secs(0.3);
                    plain.schedule_after(d, i + 10_000);
                    wheeled.schedule_batched_after(d, i + 10_000);
                }
            }
        }
        assert_eq!(plain.processed_events(), wheeled.processed_events());
    }

    #[test]
    fn calendar_and_heap_events_fire_in_identical_merged_order() {
        // Randomized mix of near-future "arrivals" (inside the calendar
        // window), far-future events (heap fallback) and batched "beacons"
        // (wheel), with coarse timestamps forcing exact ties. The calendar-
        // enabled scheduler must pop in exactly the pure-heap order,
        // including same-time tie-breaks by scheduling order.
        let mut rng = crate::SimRng::new(7);
        let mut plain: Scheduler<usize> = Scheduler::new();
        let mut tiered: Scheduler<usize> = Scheduler::new();
        tiered.enable_batching(SimDuration::from_secs(1.0));
        tiered.enable_calendar(SimDuration::from_secs(0.001), 64);

        for i in 0..600 {
            let roll = rng.uniform_range(0.0, 1.0);
            let t = if roll < 0.6 {
                // Near-future arrival, quantised to force key collisions.
                (rng.uniform_range(0.0, 0.050) * 2_000.0).round() / 2_000.0
            } else {
                (rng.uniform_range(0.0, 5.0) * 4.0).round() / 4.0
            };
            let d = SimDuration::from_secs(t);
            // Every path consumes exactly one seq per event, so the two
            // schedulers' keys stay comparable.
            plain.schedule_after(d, i);
            if roll >= 0.9 {
                tiered.schedule_batched_after(d, i);
            } else {
                tiered.schedule_after(d, i);
            }
        }
        loop {
            let a = plain.next_event();
            let b = tiered.next_event();
            assert_eq!(a, b, "three-tier merged pop order diverged");
            if a.is_none() {
                break;
            }
            // Re-schedule a fraction from the current instant to exercise
            // pushes into the activated calendar bucket and ring wrap.
            if let Some((_, i)) = a {
                if i % 5 == 0 && plain.processed_events() < 900 {
                    let d = SimDuration::from_secs(0.0005);
                    plain.schedule_after(d, i + 10_000);
                    tiered.schedule_after(d, i + 10_000);
                }
            }
        }
        assert_eq!(plain.processed_events(), tiered.processed_events());
    }

    /// What the keyed-run property test queues: a stand-alone event, or (in
    /// the keyed scheduler only) a whole run standing in for its members.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fired {
        Plain(u32),
        Run(usize),
    }

    /// A keyed run: its members as `(key, payload)` in key order, and the
    /// index of the next one to fire.
    struct KeyedRun {
        members: Vec<(EventKey, u32)>,
        next: usize,
    }

    /// One of the two schedulers of
    /// `a_keyed_run_continued_inline_fires_exactly_like_individual_entries`
    /// with the handlers that drive it. Everything a handler does is a
    /// function of the payload that fired and of counters that advance with
    /// the fire sequence, so the two drivers issue the same calls for as
    /// long as they fire in the same order.
    struct RunDriver {
        sched: Scheduler<Fired>,
        /// `false`: the reference, one `schedule_at` per member.
        keyed: bool,
        runs: Vec<KeyedRun>,
        log: Vec<(SimTime, u32)>,
        next_payload: u32,
        /// Payloads scheduled and not fired yet.
        live: usize,
        inline: usize,
        requeued: usize,
        tied_in_front: usize,
        tied_behind: usize,
    }

    /// Hop spacing: a power of two, so sums of multiples are exact and equal
    /// multiples give bit-equal times.
    const QUANTUM: f64 = 1.0 / 4_194_304.0;
    const TARGET_FIRES: usize = 6_000;

    impl RunDriver {
        fn new(keyed: bool, horizon: Option<SimTime>) -> Self {
            let mut sched = horizon.map_or_else(Scheduler::new, Scheduler::with_horizon);
            sched.enable_batching(SimDuration::from_secs(0.01));
            sched.enable_calendar(SimDuration::from_secs(0.000_25), 256);
            let mut driver = RunDriver {
                sched,
                keyed,
                runs: Vec::new(),
                log: Vec::new(),
                next_payload: 0,
                live: 0,
                inline: 0,
                requeued: 0,
                tied_in_front: 0,
                tied_behind: 0,
            };
            for i in 0..8 {
                let payload = Fired::Plain(driver.payload());
                driver
                    .sched
                    .schedule_after(SimDuration::from_secs(0.001 * f64::from(i)), payload);
            }
            driver
        }

        /// A fresh payload, counted as scheduled.
        fn payload(&mut self) -> u32 {
            self.next_payload += 1;
            self.live += 1;
            self.next_payload
        }

        /// Schedules a run whose member `i` fires `delays[i]` from now. The
        /// reference draws one seq per member in index order; the keyed side
        /// reserves the same numbers and queues the smallest key only.
        fn start_run(&mut self, delays: &[f64]) {
            let now = self.sched.now();
            let times: Vec<SimTime> = delays
                .iter()
                .map(|&d| now + SimDuration::from_secs(d))
                .collect();
            if self.keyed {
                let first = self.sched.reserve_seqs(times.len() as u64);
                let mut members: Vec<(EventKey, u32)> = times
                    .iter()
                    .zip(first..)
                    .map(|(&time, seq)| (EventKey::new(time, seq), self.payload()))
                    .collect();
                members.sort_unstable_by_key(|&(key, _)| key);
                let keys: Vec<EventKey> = members.iter().map(|&(key, _)| key).collect();
                assert_eq!(keys, tuple_sorted(keys.clone()), "the frame sort");
                self.sched
                    .schedule_keyed(members[0].0, Fired::Run(self.runs.len()));
                self.runs.push(KeyedRun { members, next: 0 });
            } else {
                for &time in &times {
                    let payload = Fired::Plain(self.payload());
                    self.sched.schedule_at(time, payload).unwrap();
                }
            }
        }

        /// A foreign event at exactly `delay` from now: on the wheel if
        /// `batched`, on the calendar or the heap by distance otherwise.
        fn foreign(&mut self, delay: f64, batched: bool) {
            let payload = Fired::Plain(self.payload());
            let delay = SimDuration::from_secs(delay);
            if batched {
                self.sched.schedule_batched_after(delay, payload);
            } else {
                self.sched.schedule_after(delay, payload);
            }
        }

        fn fire(&mut self, time: SimTime, payload: u32) {
            assert_eq!(self.sched.now(), time, "clock after firing {payload}");
            self.log.push((time, payload));
            self.live -= 1;
            let mut rng = crate::SimRng::new(0x5eed ^ u64::from(payload));
            let spawning = self.log.len() + self.live < TARGET_FIRES && self.live < 400;
            let roll = if self.live < 40 {
                rng.uniform_usize(4)
            } else {
                rng.uniform_usize(16)
            };
            match roll {
                // One run of 1–60 members, ties inside it, and foreign
                // events at members' exact times on both sides of the
                // tie-break (a lower seq fires first, a higher one after).
                0 | 1 if spawning => {
                    let base = 0.0005 + QUANTUM * rng.uniform_usize(2_000) as f64;
                    let delays: Vec<f64> = (0..1 + rng.uniform_usize(60))
                        .map(|_| base + QUANTUM * rng.uniform_usize(8) as f64)
                        .collect();
                    if rng.chance(0.5) {
                        let member = rng.uniform_usize(delays.len());
                        self.foreign(delays[member], rng.chance(0.5));
                        self.tied_in_front += 1;
                    }
                    self.start_run(&delays);
                    if rng.chance(0.5) {
                        let member = rng.uniform_usize(delays.len());
                        self.foreign(delays[member], rng.chance(0.5));
                        self.tied_behind += 1;
                    }
                }
                // Two runs whose members alternate one by one.
                2 if spawning => {
                    let base = 0.0005 + QUANTUM * rng.uniform_usize(2_000) as f64;
                    let n = 2 + rng.uniform_usize(20);
                    let even: Vec<f64> = (0..n).map(|k| base + QUANTUM * (2 * k) as f64).collect();
                    let odd: Vec<f64> = (0..n)
                        .map(|k| base + QUANTUM * (2 * k + 1) as f64)
                        .collect();
                    self.start_run(&even);
                    self.start_run(&odd);
                }
                // A handler scheduling at zero delay and half a millisecond
                // out, mid-run as often as not.
                3 | 4 if spawning => {
                    self.foreign(0.0, false);
                    self.foreign(0.0005, false);
                }
                // A far heap event and a wheel timer.
                5 if spawning => {
                    self.foreign(0.2 + rng.uniform(), false);
                    self.foreign(0.01 + 0.02 * rng.uniform(), true);
                }
                // A timer a few quanta out — the head of the queue more
                // often than not — on the calendar or the wheel.
                6 | 7 if spawning => {
                    let delay = QUANTUM * rng.uniform_usize(6) as f64;
                    self.foreign(delay, rng.chance(0.5));
                }
                _ => {}
            }
        }

        /// Pops and handles one queue entry; `false` once nothing is left
        /// within the horizon.
        fn step(&mut self) -> bool {
            let Some((mut time, fired)) = self.sched.next_event() else {
                return false;
            };
            match fired {
                Fired::Plain(payload) => self.fire(time, payload),
                Fired::Run(run) => loop {
                    let keyed = &mut self.runs[run];
                    let (due, payload) = keyed.members[keyed.next];
                    assert_eq!(due.time(), time, "run {run} surfaced at the wrong time");
                    keyed.next += 1;
                    let following = keyed.members.get(keyed.next).copied();
                    self.fire(time, payload);
                    let Some((next, _)) = following else {
                        break;
                    };
                    if self.sched.advance_if_next(next) {
                        self.inline += 1;
                        time = next.time();
                    } else {
                        self.requeued += 1;
                        self.sched.schedule_keyed(next, Fired::Run(run));
                        break;
                    }
                },
            }
            true
        }

        fn run_to_end(mut self) -> Self {
            while self.step() {}
            self
        }

        /// Members of keyed runs not fired yet, beyond the one entry each
        /// such run keeps queued.
        fn unqueued_members(&self) -> usize {
            self.runs
                .iter()
                .map(|run| (run.members.len() - run.next).saturating_sub(1))
                .sum()
        }
    }

    /// `keys` in `(time, seq)` tuple order, the floats compared as floats,
    /// through a stable sort: what every key sort has to reproduce.
    fn tuple_sorted(mut keys: Vec<EventKey>) -> Vec<EventKey> {
        keys.sort_by(|a, b| {
            let (ta, tb) = (a.time().as_secs(), b.time().as_secs());
            ta.partial_cmp(&tb)
                .expect("no NaN time")
                .then(a.seq().cmp(&b.seq()))
        });
        keys
    }

    #[test]
    fn every_tier_sorts_as_a_tuple_key_sort_does() {
        // 6,000 entries on a coarse time grid (ties abound), their sequence
        // numbers shuffled so that arrival order says nothing about rank.
        let mut rng = crate::SimRng::new(0x7157);
        let mut seqs: Vec<u64> = (0..6_000).collect();
        rng.shuffle(&mut seqs);
        let keys: Vec<EventKey> = seqs
            .iter()
            .map(|&seq| {
                let time = (rng.uniform_range(0.0, 20.0) * 16.0).round() / 16.0;
                EventKey::new(SimTime::from_secs(time), seq)
            })
            .collect();
        let expected = tuple_sorted(keys.clone());
        assert!(
            expected
                .windows(2)
                .filter(|w| w[0].time() == w[1].time())
                .count()
                > 5_000
        );

        // Each structure pops `(time, payload)`; the payload is the seq.
        let rekey = |(time, seq)| EventKey::new(time, seq);
        let mut wheel = TimerWheel::new(SimDuration::from_secs(0.94));
        let mut calendar = CalendarQueue::new(SimDuration::from_secs(0.01), 2_048);
        let mut heap = BinaryHeap::new();
        for &key in &keys {
            wheel.push(key, key.seq());
            assert!(calendar.accepts(key.time()));
            calendar.push(key, key.seq());
            heap.push(EventEntry {
                key,
                event: key.seq(),
            });
        }
        let popped: Vec<EventKey> = std::iter::from_fn(|| wheel.pop()).map(rekey).collect();
        assert_eq!(popped, expected, "timer wheel");
        let popped: Vec<EventKey> = std::iter::from_fn(|| calendar.pop()).map(rekey).collect();
        assert_eq!(popped, expected, "calendar queue");
        let popped: Vec<EventKey> = std::iter::from_fn(|| heap.pop())
            .map(|e| rekey((e.key.time(), e.event)))
            .collect();
        assert_eq!(popped, expected, "event heap");

        // Entries spliced into an activated slot or bucket keep the order.
        let (early, late) = keys.split_at(3_000);
        let mut wheel = TimerWheel::new(SimDuration::from_secs(50.0));
        let mut calendar = CalendarQueue::new(SimDuration::from_secs(50.0), 2);
        for &key in late {
            wheel.push(key, key.seq());
            calendar.push(key, key.seq());
        }
        let floor = wheel.peek().expect("3,000 entries pending");
        assert_eq!(calendar.peek(), Some(floor));
        let spliced: Vec<EventKey> = early.iter().copied().filter(|&k| k > floor).collect();
        for &key in &spliced {
            wheel.push(key, key.seq());
            calendar.push(key, key.seq());
        }
        assert_eq!(wheel.spliced(), spliced.len() as u64);
        let expected = tuple_sorted(late.iter().chain(&spliced).copied().collect());
        let popped: Vec<EventKey> = std::iter::from_fn(|| wheel.pop()).map(rekey).collect();
        assert_eq!(popped, expected, "timer wheel, spliced");
        let popped: Vec<EventKey> = std::iter::from_fn(|| calendar.pop()).map(rekey).collect();
        assert_eq!(popped, expected, "calendar queue, spliced");
    }

    #[test]
    fn a_keyed_run_continued_inline_fires_exactly_like_individual_entries() {
        let assert_same = |reference: &RunDriver, keyed: &RunDriver| {
            if let Some(at) = (0..reference.log.len().max(keyed.log.len()))
                .find(|&i| reference.log.get(i) != keyed.log.get(i))
            {
                panic!(
                    "fire {at} diverged: reference {:?}, keyed {:?}",
                    reference.log.get(at),
                    keyed.log.get(at)
                );
            }
            assert_eq!(reference.sched.now(), keyed.sched.now());
            assert_eq!(
                reference.sched.processed_events(),
                reference.log.len() as u64
            );
            assert_eq!(keyed.sched.processed_events(), keyed.log.len() as u64);
            assert_eq!(
                reference.sched.pending_events(),
                keyed.sched.pending_events() + keyed.unqueued_members(),
                "every unfired member is pending once"
            );
        };

        // No horizon: both drain completely.
        let reference = RunDriver::new(false, None).run_to_end();
        let keyed = RunDriver::new(true, None).run_to_end();
        assert_same(&reference, &keyed);
        assert_eq!(reference.sched.pending_events(), 0);
        assert_eq!(keyed.sched.pending_events(), 0);
        assert!(reference.log.len() >= TARGET_FIRES, "the script ran dry");
        // The script must have exercised what it is here for.
        assert!(keyed.inline > 1_000, "inline {}", keyed.inline);
        assert!(keyed.requeued > 300, "requeued {}", keyed.requeued);
        assert!(keyed.tied_in_front > 50 && keyed.tied_behind > 50);
        assert!(
            keyed.log.windows(2).filter(|w| w[0].0 == w[1].0).count() > 500,
            "exact ties are the point"
        );

        // A horizon falling inside a run: stop at a member that has a later
        // member of the same run still to come.
        let horizon = keyed
            .runs
            .iter()
            .filter(|run| {
                run.members.len() > 20 && run.members[0].0.time() < run.members[19].0.time()
            })
            .nth(40)
            .map(|run| run.members[0].0.time())
            .expect("the script has long runs");
        let reference = RunDriver::new(false, Some(horizon)).run_to_end();
        let keyed = RunDriver::new(true, Some(horizon)).run_to_end();
        assert_same(&reference, &keyed);
        assert_eq!(reference.sched.now(), horizon);
        assert!(keyed.unqueued_members() > 0 && keyed.sched.pending_events() > 0);
    }

    #[test]
    fn calendar_far_future_events_fall_back_to_heap_and_keep_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_calendar(SimDuration::from_secs(0.001), 64);
        // Beyond the 64 ms window: must ride the heap and still fire in
        // order against in-window calendar entries.
        s.schedule_after(SimDuration::from_secs(10.0), 2);
        s.schedule_after(SimDuration::from_secs(0.005), 1);
        assert_eq!(s.pending_events(), 2);
        assert_eq!(s.next_event().unwrap().1, 1);
        assert_eq!(s.next_event().unwrap().1, 2);
        // After the idle jump to t=10 the ring must have reanchored so
        // near-future events are accepted again (pure perf concern; order
        // would be right either way).
        s.schedule_after(SimDuration::from_secs(0.001), 3);
        assert_eq!(s.next_event().unwrap().1, 3);
    }

    #[test]
    fn far_future_batched_events_fall_back_to_heap_and_keep_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_batching(SimDuration::from_secs(1.0));
        // An hour-scale timer on a 1 s wheel must not allocate thousands of
        // empty slots; it goes to the heap and still fires in order.
        s.schedule_batched_after(SimDuration::from_secs(100_000.0), 2);
        s.schedule_batched_after(SimDuration::from_secs(1.0), 1);
        assert_eq!(s.pending_events(), 2);
        assert_eq!(s.next_event().unwrap().1, 1);
        assert_eq!(s.next_event().unwrap().1, 2);
    }

    #[test]
    fn batching_without_enable_falls_back_to_heap() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_batched_after(SimDuration::from_secs(1.0), Ev::A);
        assert_eq!(s.pending_events(), 1);
        assert_eq!(s.next_event().unwrap().1, Ev::A);
    }
}
