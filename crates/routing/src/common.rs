//! Machinery shared by several protocols: routing tables, duplicate caches,
//! pending-packet buffers and the store–carry–forward queue.

use crate::protocol::{DropReason, ProtocolContext};
use std::collections::{BTreeMap, VecDeque};
use vanet_net::Packet;
use vanet_sim::{NodeId, SeqNo, SimDuration, SimTime};

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// The destination this entry routes to.
    pub destination: NodeId,
    /// The neighbour to forward to.
    pub next_hop: NodeId,
    /// Number of hops to the destination.
    pub hops: u32,
    /// Destination sequence number (freshness).
    pub seq: SeqNo,
    /// Protocol-specific route quality (higher is better).
    pub metric: f64,
    /// When the entry stops being valid.
    pub expires_at: SimTime,
}

/// A destination-indexed routing table with expiry.
///
/// The routes sit in one `Vec` of 40-byte [`RouteEntry`]s kept sorted by
/// destination, at most one per destination: a lookup is a binary search, a
/// refresh overwrites its entry in place, an insert or a removal shifts the
/// tail, and iteration runs in ascending destination order (DSDV's dumps and
/// RERR generation read it in that order). A `BTreeMap` here allocated a
/// 525-byte leaf for eleven routes even when the table held one.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the route to `dest` is, or where it would be inserted.
    fn find(&self, dest: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&dest, |e| e.destination)
    }

    /// Returns the valid (non-expired) route to `dest`, if any.
    #[must_use]
    pub fn route(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.route_even_expired(dest)
            .filter(|e| e.expires_at >= now)
    }

    /// Returns the route regardless of expiry.
    #[must_use]
    pub fn route_even_expired(&self, dest: NodeId) -> Option<&RouteEntry> {
        self.find(dest).ok().map(|i| &self.entries[i])
    }

    /// Inserts `entry` if it is fresher (higher seq) or equally fresh with a
    /// better metric / fewer hops than the existing one. Returns whether the
    /// table changed.
    pub fn upsert(&mut self, entry: RouteEntry) -> bool {
        match self.find(entry.destination) {
            Ok(i) => {
                let existing = &self.entries[i];
                let fresher = entry.seq.is_fresher_than(existing.seq);
                let same_seq_better = entry.seq == existing.seq
                    && (entry.metric > existing.metric
                        || (entry.metric == existing.metric && entry.hops < existing.hops));
                let expired =
                    existing.expires_at < entry.expires_at && existing.expires_at == SimTime::ZERO;
                if fresher || same_seq_better || expired {
                    self.entries[i] = entry;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                self.entries.insert(i, entry);
                true
            }
        }
    }

    /// Removes the route to `dest`.
    pub fn remove(&mut self, dest: NodeId) -> Option<RouteEntry> {
        self.find(dest).ok().map(|i| self.entries.remove(i))
    }

    /// Removes every route whose next hop is `neighbor`, returning the
    /// affected destinations in ascending order (for RERR generation).
    pub fn invalidate_next_hop(&mut self, neighbor: NodeId) -> Vec<NodeId> {
        let mut affected = Vec::new();
        self.entries.retain(|e| {
            if e.next_hop == neighbor {
                affected.push(e.destination);
            }
            e.next_hop != neighbor
        });
        affected
    }

    /// Number of entries (including expired ones not yet purged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries in ascending destination order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.iter()
    }
}

/// A duplicate-suppression cache keyed by `(originator, identifier)` pairs,
/// with time-based eviction. Used for RREQ ids, RERR ids, flooded packet ids
/// and probe ids.
///
/// The entries sit in one `Vec` of 24-byte `((id, origin), stamp)` records
/// kept sorted by `(id, origin)`: a lookup is a binary search, a repeat of a
/// key overwrites its stamp in place, and a new key is inserted at its index.
/// The id leads because the simulation allocates packet ids in increasing
/// order, so a flood cache's new key is nearly always its largest and the
/// insert an append. No answer depends on the order. A `BTreeMap` here kept
/// each cache in leaves of eleven keys that ran a third to half full, at
/// about 290 bytes a leaf.
///
/// An entry is forgotten once its stamp is more than the horizon before the
/// latest call, whether or not the vector still holds it: every answer reads
/// the stamp, so the answers are those of a sweep at every call. The vector
/// is swept only when it has doubled since the last sweep, so each sweep
/// visits at most twice the keys inserted since the one before, where a
/// sweep at every call would visit the whole cache each time.
#[derive(Debug, Clone, Default)]
pub struct SeenCache {
    seen: Vec<((u64, NodeId), SimTime)>,
    horizon: f64,
    /// The time of the latest call.
    now: SimTime,
    /// Entries the vector held after the last sweep.
    swept_len: usize,
    /// Entries examined by sweeps so far.
    #[cfg(test)]
    visited: u64,
}

impl SeenCache {
    /// Creates a cache that remembers entries for `horizon_s` seconds.
    #[must_use]
    pub fn new(horizon_s: f64) -> Self {
        SeenCache {
            horizon: horizon_s.max(0.0),
            ..SeenCache::default()
        }
    }

    /// Where `key` is, or where it would be inserted.
    fn find(&self, key: (u64, NodeId)) -> Result<usize, usize> {
        self.seen.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Records `(origin, id)` at `now`; returns `true` if it was *already*
    /// present (i.e. the packet is a duplicate).
    pub fn check_and_insert(&mut self, origin: NodeId, id: u64, now: SimTime) -> bool {
        // An entry forgotten at the latest call stays forgotten at an
        // earlier time, though its stamp alone would no longer say so.
        if now < self.now {
            self.sweep();
        }
        self.now = now;
        let previous = match self.find((id, origin)) {
            Ok(i) => Some(std::mem::replace(&mut self.seen[i].1, now)),
            Err(i) => {
                self.seen.insert(i, ((id, origin), now));
                None
            }
        };
        if self.seen.len() > 2 * self.swept_len {
            self.sweep();
        }
        previous.is_some_and(|seen_at| !expired(self.horizon, seen_at, now))
    }

    /// Whether `(origin, id)` has been seen (without inserting).
    #[cfg(test)]
    #[must_use]
    fn contains(&self, origin: NodeId, id: u64) -> bool {
        self.find((id, origin))
            .is_ok_and(|i| !expired(self.horizon, self.seen[i].1, self.now))
    }

    /// Drops the entries forgotten at the latest call.
    fn sweep(&mut self) {
        #[cfg(test)]
        {
            self.visited += self.seen.len() as u64;
        }
        let (horizon, now) = (self.horizon, self.now);
        self.seen
            .retain(|&(_, seen_at)| !expired(horizon, seen_at, now));
        self.swept_len = self.seen.len();
    }

    /// Number of remembered entries.
    #[cfg(test)]
    #[must_use]
    fn len(&self) -> usize {
        self.seen
            .iter()
            .filter(|&&(_, seen_at)| !expired(self.horizon, seen_at, self.now))
            .count()
    }
}

/// Whether a [`SeenCache`] entry stamped `seen_at` is forgotten by `now`.
/// Never `true` for a later stamp when it is `false` for an earlier one, nor
/// for an earlier `now` when it is `false` for a later one.
fn expired(horizon: f64, seen_at: SimTime, now: SimTime) -> bool {
    now.saturating_since(seen_at).as_secs() > horizon
}

/// Packets buffered while a route is being discovered, per destination.
#[derive(Debug, Clone, Default)]
pub struct PendingBuffer {
    queues: BTreeMap<NodeId, VecDeque<(SimTime, Packet)>>,
    capacity_per_destination: usize,
    max_age: SimDuration,
}

impl PendingBuffer {
    /// Creates a buffer holding at most `capacity` packets per destination,
    /// each for at most `max_age`.
    #[must_use]
    pub fn new(capacity: usize, max_age: SimDuration) -> Self {
        PendingBuffer {
            queues: BTreeMap::new(),
            capacity_per_destination: capacity.max(1),
            max_age,
        }
    }

    /// Buffers a packet for `dest`. Returns the packet that had to be evicted
    /// if the queue was full (the oldest one).
    pub fn push(&mut self, dest: NodeId, packet: Packet, now: SimTime) -> Option<Packet> {
        let q = self.queues.entry(dest).or_default();
        q.push_back((now, packet));
        if q.len() > self.capacity_per_destination {
            q.pop_front().map(|(_, p)| p)
        } else {
            None
        }
    }

    /// Removes and returns every buffered packet for `dest` that has not
    /// exceeded its maximum age.
    pub fn take(&mut self, dest: NodeId, now: SimTime) -> Vec<Packet> {
        let Some(q) = self.queues.remove(&dest) else {
            return Vec::new();
        };
        q.into_iter()
            .filter(|(t, _)| now.saturating_since(*t) <= self.max_age)
            .map(|(_, p)| p)
            .collect()
    }

    /// Removes and returns the packets for `dest` that are too old, leaving
    /// fresh ones buffered.
    pub fn expire(&mut self, now: SimTime) -> Vec<Packet> {
        let max_age = self.max_age;
        let mut expired = Vec::new();
        for q in self.queues.values_mut() {
            while let Some((t, _)) = q.front() {
                if now.saturating_since(*t) > max_age {
                    expired.push(q.pop_front().expect("front checked").1);
                } else {
                    break;
                }
            }
        }
        self.queues.retain(|_, q| !q.is_empty());
        expired
    }

    /// Whether packets are waiting for `dest`.
    #[must_use]
    pub fn has_pending(&self, dest: NodeId) -> bool {
        self.queues.get(&dest).is_some_and(|q| !q.is_empty())
    }

    /// Total number of buffered packets.
    #[cfg(test)]
    #[must_use]
    fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Whether nothing is buffered.
    #[cfg(test)]
    #[must_use]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Destinations that currently have buffered packets.
    #[must_use]
    pub fn destinations(&self) -> Vec<NodeId> {
        self.queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(d, _)| *d)
            .collect()
    }
}

/// Packets carried while nobody can take them (store–carry–forward), each
/// stamped with the time it was last queued.
#[derive(Debug, Default)]
pub(crate) struct CarryQueue {
    packets: VecDeque<(SimTime, Packet)>,
}

impl CarryQueue {
    /// Carries `packet` from `ctx.now`, or drops it as
    /// [`DropReason::BufferOverflow`] when `capacity` packets are carried
    /// already.
    pub(crate) fn carry(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet, capacity: usize) {
        if self.packets.len() >= capacity {
            ctx.drop_packet(&packet, DropReason::BufferOverflow);
            return;
        }
        self.packets.push_back((ctx.now, packet));
    }

    /// Empties the queue in carry order: a packet carried longer than
    /// `timeout` is dropped as `reason`, any other goes to `retry`, which may
    /// carry it again. A packet carried again is stamped anew, so with ticks
    /// shorter than `timeout` none ever reaches it (ROADMAP 5(b)).
    pub(crate) fn retry(
        self,
        ctx: &mut ProtocolContext<'_>,
        timeout: SimDuration,
        reason: DropReason,
        mut retry: impl FnMut(&mut ProtocolContext<'_>, Packet),
    ) {
        for (since, packet) in self.packets {
            if ctx.now.saturating_since(since) > timeout {
                ctx.drop_packet(&packet, reason);
            } else {
                retry(ctx, packet);
            }
        }
    }

    /// Number of packets carried.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dest: u32, next: u32, hops: u32, seq: u64, metric: f64, exp: f64) -> RouteEntry {
        RouteEntry {
            destination: NodeId(dest),
            next_hop: NodeId(next),
            hops,
            seq: SeqNo(seq),
            metric,
            expires_at: SimTime::from_secs(exp),
        }
    }

    #[test]
    fn routing_table_upsert_prefers_fresher_seq() {
        let mut t = RoutingTable::new();
        assert!(t.upsert(entry(5, 1, 3, 1, 0.0, 10.0)));
        assert!(
            !t.upsert(entry(5, 2, 2, 1, 0.0, 10.0))
                || t.route_even_expired(NodeId(5)).unwrap().hops == 2
        );
        assert!(
            t.upsert(entry(5, 3, 7, 2, 0.0, 10.0)),
            "fresher seq always wins"
        );
        assert_eq!(t.route_even_expired(NodeId(5)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn routing_table_same_seq_prefers_better_metric_or_fewer_hops() {
        let mut t = RoutingTable::new();
        t.upsert(entry(5, 1, 4, 1, 10.0, 10.0));
        assert!(
            t.upsert(entry(5, 2, 4, 1, 20.0, 10.0)),
            "better metric replaces"
        );
        assert!(
            t.upsert(entry(5, 3, 2, 1, 20.0, 10.0)),
            "fewer hops replaces"
        );
        assert!(!t.upsert(entry(5, 4, 5, 1, 20.0, 10.0)), "worse does not");
        assert_eq!(t.route_even_expired(NodeId(5)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn routing_table_expiry() {
        let mut t = RoutingTable::new();
        t.upsert(entry(5, 1, 3, 1, 0.0, 10.0));
        assert!(t.route(NodeId(5), SimTime::from_secs(5.0)).is_some());
        assert!(t.route(NodeId(5), SimTime::from_secs(15.0)).is_none());
        assert!(t.route_even_expired(NodeId(5)).is_some());
    }

    #[test]
    fn invalidate_next_hop_returns_affected_destinations() {
        let mut t = RoutingTable::new();
        t.upsert(entry(5, 1, 3, 1, 0.0, 10.0));
        t.upsert(entry(6, 1, 2, 1, 0.0, 10.0));
        t.upsert(entry(7, 2, 2, 1, 0.0, 10.0));
        let mut affected = t.invalidate_next_hop(NodeId(1));
        affected.sort();
        assert_eq!(affected, vec![NodeId(5), NodeId(6)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn flat_entries_are_24_and_40_bytes() {
        assert_eq!(std::mem::size_of::<((u64, NodeId), SimTime)>(), 24);
        assert_eq!(std::mem::size_of::<RouteEntry>(), 40);
    }

    /// `RoutingTable` as it was: a `BTreeMap` from destination to route.
    #[derive(Default)]
    struct BTreeTable {
        entries: BTreeMap<NodeId, RouteEntry>,
    }

    impl BTreeTable {
        fn upsert(&mut self, entry: RouteEntry) -> bool {
            match self.entries.get(&entry.destination) {
                Some(existing) => {
                    let fresher = entry.seq.is_fresher_than(existing.seq);
                    let same_seq_better = entry.seq == existing.seq
                        && (entry.metric > existing.metric
                            || (entry.metric == existing.metric && entry.hops < existing.hops));
                    let expired = existing.expires_at < entry.expires_at
                        && existing.expires_at == SimTime::ZERO;
                    if fresher || same_seq_better || expired {
                        self.entries.insert(entry.destination, entry);
                        true
                    } else {
                        false
                    }
                }
                None => {
                    self.entries.insert(entry.destination, entry);
                    true
                }
            }
        }

        fn invalidate_next_hop(&mut self, neighbor: NodeId) -> Vec<NodeId> {
            let affected: Vec<NodeId> = self
                .entries
                .values()
                .filter(|e| e.next_hop == neighbor)
                .map(|e| e.destination)
                .collect();
            for d in &affected {
                self.entries.remove(d);
            }
            affected
        }
    }

    /// Drives `ops` seeded random operations through a `RoutingTable` and
    /// the `BTreeMap` reference, comparing every answer and, after each
    /// operation, the whole table in iteration order. Few destinations, seqs,
    /// metrics and hop counts, so equal-seq ties are common, and a fifth of
    /// the routes carry `expires_at == SimTime::ZERO`, so the replacement arm
    /// for a zero expiry fires. Returns how often an upsert replaced a route,
    /// was refused, and how many routes `invalidate_next_hop` removed.
    fn routing_table_stream(seed: u64, ops: usize) -> (usize, usize, usize) {
        let mut rng = vanet_sim::SimRng::new(seed);
        let mut table = RoutingTable::new();
        let mut reference = BTreeTable::default();
        let (mut replaced, mut refused, mut invalidated) = (0, 0, 0);
        for op in 0..ops {
            let dest = NodeId(rng.uniform_usize(24) as u32);
            let hop = NodeId(rng.uniform_usize(6) as u32);
            let now = SimTime::from_secs(rng.uniform_range(0.0, 12.0));
            match rng.uniform_usize(10) {
                0..=5 => {
                    let expires_at = if rng.chance(0.2) {
                        SimTime::ZERO
                    } else {
                        SimTime::from_secs(rng.uniform_usize(12) as f64)
                    };
                    let e = RouteEntry {
                        destination: dest,
                        next_hop: hop,
                        hops: 1 + rng.uniform_usize(4) as u32,
                        seq: SeqNo(rng.uniform_usize(4) as u64),
                        metric: rng.uniform_usize(3) as f64,
                        expires_at,
                    };
                    let existed = reference.entries.contains_key(&dest);
                    let changed = reference.upsert(e);
                    assert_eq!(table.upsert(e), changed, "op {op}: upsert {e:?}");
                    replaced += usize::from(existed && changed);
                    refused += usize::from(!changed);
                }
                6 => {
                    let removed = reference.entries.remove(&dest);
                    assert_eq!(table.remove(dest), removed, "op {op}: remove");
                }
                7 => {
                    let affected = reference.invalidate_next_hop(hop);
                    assert_eq!(table.invalidate_next_hop(hop), affected, "op {op}");
                    invalidated += affected.len();
                }
                _ => {
                    let valid = reference.entries.get(&dest).filter(|e| e.expires_at >= now);
                    assert_eq!(table.route(dest, now), valid, "op {op}: route");
                    let any = reference.entries.get(&dest);
                    assert_eq!(table.route_even_expired(dest), any, "op {op}");
                }
            }
            assert!(table.iter().eq(reference.entries.values()), "op {op}");
            assert_eq!(table.len(), reference.entries.len(), "op {op}");
            assert_eq!(table.is_empty(), reference.entries.is_empty());
        }
        (replaced, refused, invalidated)
    }

    #[test]
    fn routing_table_matches_a_btreemap_reference() {
        let (replaced, refused, invalidated) = routing_table_stream(0x7ab1e, 20_000);
        assert!(
            replaced > 2_000 && refused > 2_000 && invalidated > 2_000,
            "{replaced} replaced, {refused} refused, {invalidated} invalidated"
        );
    }

    /// The same over more seeds and fifty times the operations; run in
    /// release with `cargo test --release -p vanet-routing -- --ignored`.
    #[test]
    #[ignore = "heavy: a million operations; run in release"]
    fn routing_table_matches_a_btreemap_reference_heavy() {
        for seed in 0..50 {
            let (replaced, refused, invalidated) = routing_table_stream(seed, 20_000);
            assert!(
                replaced > 2_000 && refused > 2_000 && invalidated > 2_000,
                "seed {seed}: {replaced} replaced, {refused} refused, {invalidated} invalidated"
            );
        }
    }

    #[test]
    fn seen_cache_detects_duplicates_and_evicts() {
        let mut c = SeenCache::new(5.0);
        assert!(!c.check_and_insert(NodeId(1), 10, SimTime::ZERO));
        assert!(c.check_and_insert(NodeId(1), 10, SimTime::from_secs(1.0)));
        assert!(c.contains(NodeId(1), 10));
        assert!(!c.contains(NodeId(2), 10));
        // After the horizon the entry is forgotten.
        assert!(!c.check_and_insert(NodeId(1), 11, SimTime::from_secs(20.0)));
        assert!(!c.contains(NodeId(1), 10));
        assert_eq!(c.len(), 1);
    }

    /// `SeenCache` as it was: a full sweep on every call.
    struct EagerSeenCache {
        seen: BTreeMap<(NodeId, u64), SimTime>,
        horizon: f64,
    }

    impl EagerSeenCache {
        fn check_and_insert(&mut self, origin: NodeId, id: u64, now: SimTime) -> bool {
            let horizon = self.horizon;
            self.seen
                .retain(|_, t| now.saturating_since(*t).as_secs() <= horizon);
            self.seen.insert((origin, id), now).is_some()
        }
    }

    /// Drives `calls` seeded calls through a `SeenCache` and the eager
    /// reference, comparing every answer, the remembered count and
    /// membership. `now` is not monotone: it mostly advances in small steps
    /// (bursts of one flood), sometimes jumps past the horizon, and steps
    /// back by less or by more than the horizon. One call in ten repeats the
    /// previous key, at the same instant or a little later. Returns the
    /// duplicates, the calls at which the reference shrank and emptied, the
    /// steps back past the horizon and the same-instant refreshes.
    fn seen_cache_against_eager(seed: u64, calls: usize) -> [usize; 5] {
        let mut rng = vanet_sim::SimRng::new(seed);
        let mut lazy = SeenCache::new(2.0);
        let mut eager = EagerSeenCache {
            seen: BTreeMap::new(),
            horizon: 2.0,
        };
        let mut now = 0.0_f64;
        let mut key = (NodeId(0), 0);
        let [mut duplicates, mut shrank, mut emptied, mut back, mut same_instant] = [0; 5];
        for call in 0..calls {
            let repeat = rng.uniform_usize(10) == 0;
            now = if repeat && rng.chance(0.5) {
                now
            } else {
                match rng.uniform_usize(40) {
                    0 => now + rng.uniform_range(2.0, 6.0),
                    1 => (now - rng.uniform_range(0.0, 1.0)).max(0.0),
                    2 => {
                        back += usize::from(now > 2.0);
                        (now - rng.uniform_range(2.0, 5.0)).max(0.0)
                    }
                    _ => now + rng.uniform_range(0.0, 0.05),
                }
            };
            if !repeat {
                // Few enough keys that live ones are refreshed all the time.
                key = (
                    NodeId(rng.uniform_usize(12) as u32),
                    rng.uniform_usize(6) as u64,
                );
            }
            let (origin, id) = key;
            let at = SimTime::from_secs(now);
            same_instant += usize::from(repeat && at == lazy.now);
            let before = eager.seen.len();
            let expected = eager.check_and_insert(origin, id, at);
            assert_eq!(
                lazy.check_and_insert(origin, id, at),
                expected,
                "call {call}"
            );
            assert_eq!(lazy.len(), eager.seen.len(), "call {call}");
            assert!(eager.seen.keys().all(|&(o, i)| lazy.contains(o, i)));
            let (o, i) = (
                NodeId(rng.uniform_usize(12) as u32),
                rng.uniform_usize(6) as u64,
            );
            assert_eq!(lazy.contains(o, i), eager.seen.contains_key(&(o, i)));
            duplicates += usize::from(expected);
            shrank += usize::from(eager.seen.len() < before);
            emptied += usize::from(eager.seen.len() == 1 && before > 1);
        }
        [duplicates, shrank, emptied, back, same_instant]
    }

    #[test]
    fn seen_cache_sweeping_lazily_answers_as_sweeping_on_every_call() {
        let [duplicates, shrank, emptied, back, same_instant] =
            seen_cache_against_eager(0x5ee2, 10_000);
        assert!(duplicates > 3_000, "refreshes of a live key: {duplicates}");
        assert!(
            shrank > 200 && emptied > 40,
            "{shrank} sweeps, {emptied} full"
        );
        assert!(
            back > 150 && same_instant > 350,
            "{back} steps back past the horizon, {same_instant} same-instant refreshes"
        );
    }

    /// The same over more seeds and twenty times the calls; run in release
    /// with `cargo test --release -p vanet-routing -- --ignored`.
    #[test]
    #[ignore = "heavy: a million calls; run in release"]
    fn seen_cache_sweeping_lazily_answers_as_sweeping_on_every_call_heavy() {
        for seed in 0..50 {
            let [duplicates, shrank, emptied, back, same_instant] =
                seen_cache_against_eager(seed, 20_000);
            assert!(
                duplicates > 6_000 && shrank > 400 && emptied > 80,
                "seed {seed}: {duplicates} duplicates, {shrank} sweeps, {emptied} full"
            );
            assert!(
                back > 300 && same_instant > 700,
                "seed {seed}: {back} steps back, {same_instant} same-instant refreshes"
            );
        }
    }

    /// Feeds a cache with a `horizon_s` horizon `seconds` of a monotone
    /// stream, `per_second` inserts a second (fresh flood ids, and every
    /// tenth call a duplicate of one of the last twenty keys, which
    /// refreshes it). It checks that the cache never remembers more than
    /// the keys stamped within the horizon (every 1,009th call, as `len`
    /// scans the vector) and that the vector never holds more than twice that
    /// (every call). Returns the inserts and the entries sweeps visited.
    fn monotone_stream(horizon_s: f64, seconds: f64, per_second: usize) -> (u64, u64) {
        let mut cache = SeenCache::new(horizon_s);
        let mut rng = vanet_sim::SimRng::new(0x5ee3);
        let calls = (seconds * per_second as f64) as u64;
        let live = (horizon_s * per_second as f64) as u64;
        let mut recent: VecDeque<(NodeId, u64)> = VecDeque::new();
        let mut duplicates = 0;
        for call in 0..calls {
            let at = SimTime::from_secs(call as f64 / per_second as f64);
            let (origin, id) = if call >= 20 && rng.uniform_usize(10) == 0 {
                recent[rng.uniform_usize(recent.len())]
            } else {
                recent.push_back((NodeId(rng.uniform_usize(50) as u32), call));
                if recent.len() > 20 {
                    recent.pop_front();
                }
                recent[recent.len() - 1]
            };
            let duplicate = cache.check_and_insert(origin, id, at);
            assert_eq!(duplicate, id != call, "call {call}");
            duplicates += usize::from(duplicate);
            // Entries stamped within the horizon: at most `live + 1` calls,
            // fewer where duplicates refreshed a key. The vector holds at most
            // twice what the last sweep left, and one more.
            if call % 1_009 == 0 {
                assert!(cache.len() as u64 <= live + 1, "call {call}");
            }
            assert!(cache.seen.len() as u64 <= 2 * live + 3, "call {call}");
        }
        assert!(cache.len() as u64 >= live / 2, "{} of {live}", cache.len());
        assert!(duplicates as u64 > calls / 20, "{duplicates} refreshes");
        (calls, cache.visited)
    }

    /// Past the horizon an entry expires at almost every insert; the cache
    /// sweeps only when its vector has doubled since the last sweep, so each
    /// sweep visits at most twice the keys inserted since the one before.
    #[test]
    fn seen_cache_expiry_visits_each_record_a_bounded_number_of_times() {
        let (inserts, visited) = monotone_stream(2.0, 40.0, 500);
        assert!(
            visited <= 2 * inserts,
            "{visited} visits for {inserts} inserts"
        );
        // The horizon was passed many times over: the sweeps kept up.
        assert!(visited > inserts / 2, "{visited} of {inserts}");
    }

    /// The same at the paper's 120 s of simulated time against the 30 s
    /// horizon Yan's probes use, at a broadcast-storm rate; run in release
    /// with `cargo test --release -p vanet-routing -- --ignored`.
    #[test]
    #[ignore = "heavy: a 120 s stream; run in release"]
    fn seen_cache_expiry_visits_each_record_a_bounded_number_of_times_heavy() {
        let (inserts, visited) = monotone_stream(30.0, 120.0, 4_000);
        assert!(
            visited <= 2 * inserts,
            "{visited} visits for {inserts} inserts"
        );
        assert!(visited > inserts / 2, "{visited} of {inserts}");
    }

    #[test]
    fn pending_buffer_round_trip() {
        let mut b = PendingBuffer::new(2, SimDuration::from_secs(10.0));
        let dest = NodeId(9);
        assert!(b.is_empty());
        assert!(b
            .push(dest, Packet::data(NodeId(1), dest, 10), SimTime::ZERO)
            .is_none());
        assert!(b
            .push(dest, Packet::data(NodeId(1), dest, 20), SimTime::ZERO)
            .is_none());
        // Third push evicts the oldest.
        let evicted = b.push(dest, Packet::data(NodeId(1), dest, 30), SimTime::ZERO);
        assert_eq!(evicted.unwrap().payload_bytes, 10);
        assert!(b.has_pending(dest));
        assert_eq!(b.destinations(), vec![dest]);
        let taken = b.take(dest, SimTime::from_secs(1.0));
        assert_eq!(taken.len(), 2);
        assert!(!b.has_pending(dest));
    }

    #[test]
    fn pending_buffer_age_limit() {
        let mut b = PendingBuffer::new(8, SimDuration::from_secs(5.0));
        let dest = NodeId(9);
        b.push(dest, Packet::data(NodeId(1), dest, 10), SimTime::ZERO);
        b.push(
            dest,
            Packet::data(NodeId(1), dest, 20),
            SimTime::from_secs(4.0),
        );
        // take at t=7: the first packet (age 7) is dropped, the second kept.
        let taken = b.take(dest, SimTime::from_secs(7.0));
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].payload_bytes, 20);
    }

    #[test]
    fn pending_buffer_expire() {
        let mut b = PendingBuffer::new(8, SimDuration::from_secs(5.0));
        b.push(
            NodeId(9),
            Packet::data(NodeId(1), NodeId(9), 10),
            SimTime::ZERO,
        );
        b.push(
            NodeId(8),
            Packet::data(NodeId(1), NodeId(8), 20),
            SimTime::from_secs(8.0),
        );
        let expired = b.expire(SimTime::from_secs(9.0));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].payload_bytes, 10);
        assert_eq!(b.len(), 1);
    }
}
