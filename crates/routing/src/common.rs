//! Machinery shared by several protocols: routing tables, duplicate caches
//! and pending-packet buffers.

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
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: BTreeMap<NodeId, RouteEntry>,
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the valid (non-expired) route to `dest`, if any.
    #[must_use]
    pub fn route(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.entries.get(&dest).filter(|e| e.expires_at >= now)
    }

    /// Returns the route regardless of expiry.
    #[must_use]
    pub fn route_even_expired(&self, dest: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&dest)
    }

    /// Inserts `entry` if it is fresher (higher seq) or equally fresh with a
    /// better metric / fewer hops than the existing one. Returns whether the
    /// table changed.
    pub fn upsert(&mut self, entry: RouteEntry) -> bool {
        match self.entries.get(&entry.destination) {
            Some(existing) => {
                let fresher = entry.seq.is_fresher_than(existing.seq);
                let same_seq_better = entry.seq == existing.seq
                    && (entry.metric > existing.metric
                        || (entry.metric == existing.metric && entry.hops < existing.hops));
                let expired =
                    existing.expires_at < entry.expires_at && existing.expires_at == SimTime::ZERO;
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

    /// Unconditionally replaces the entry for its destination.
    pub fn force_insert(&mut self, entry: RouteEntry) {
        self.entries.insert(entry.destination, entry);
    }

    /// Removes the route to `dest`.
    pub fn remove(&mut self, dest: NodeId) -> Option<RouteEntry> {
        self.entries.remove(&dest)
    }

    /// Removes every route whose next hop is `neighbor`, returning the
    /// affected destinations (for RERR generation).
    pub fn invalidate_next_hop(&mut self, neighbor: NodeId) -> Vec<NodeId> {
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

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.values()
    }
}

/// A duplicate-suppression cache keyed by `(originator, identifier)` pairs,
/// with time-based eviction. Used for RREQ ids, flooded packet ids and probe
/// ids.
#[derive(Debug, Clone, Default)]
pub struct SeenCache {
    seen: BTreeMap<(NodeId, u64), SimTime>,
    horizon: f64,
    /// Lower bound on the oldest timestamp in `seen` (meaningless while it is
    /// empty). Lowered on insert, left alone when a live key is refreshed,
    /// tightened to the exact minimum by every sweep: while `now` is within
    /// the horizon of it, no entry can have expired and no sweep is needed.
    oldest: SimTime,
}

impl SeenCache {
    /// Creates a cache that remembers entries for `horizon_s` seconds.
    #[must_use]
    pub fn new(horizon_s: f64) -> Self {
        SeenCache {
            seen: BTreeMap::new(),
            horizon: horizon_s.max(0.0),
            oldest: SimTime::ZERO,
        }
    }

    /// Records `(origin, id)` at `now`; returns `true` if it was *already*
    /// present (i.e. the packet is a duplicate).
    pub fn check_and_insert(&mut self, origin: NodeId, id: u64, now: SimTime) -> bool {
        if expired(self.horizon, self.oldest, now) {
            self.evict(now);
        }
        self.oldest = if self.seen.is_empty() {
            now
        } else {
            self.oldest.min(now)
        };
        self.seen.insert((origin, id), now).is_some()
    }

    /// Whether `(origin, id)` has been seen (without inserting).
    #[must_use]
    pub fn contains(&self, origin: NodeId, id: u64) -> bool {
        self.seen.contains_key(&(origin, id))
    }

    fn evict(&mut self, now: SimTime) {
        let horizon = self.horizon;
        let mut oldest = SimTime::MAX;
        self.seen.retain(|_, t| {
            let keep = !expired(horizon, *t, now);
            if keep {
                oldest = oldest.min(*t);
            }
            keep
        });
        self.oldest = oldest;
    }

    /// Number of remembered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// Whether a [`SeenCache`] entry stamped `seen_at` is forgotten by `now`.
/// Never `true` for a later stamp when it is `false` for an earlier one,
/// which is what lets the cache's `oldest` bound stand in for every entry.
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
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
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

    #[test]
    fn seen_cache_sweeping_lazily_answers_as_sweeping_on_every_call() {
        let mut rng = vanet_sim::SimRng::new(0x5ee2);
        let mut lazy = SeenCache::new(2.0);
        let mut eager = EagerSeenCache {
            seen: BTreeMap::new(),
            horizon: 2.0,
        };
        let mut now = 0.0_f64;
        let (mut duplicates, mut shrank, mut emptied) = (0, 0, 0);
        for call in 0..10_000 {
            // Mostly small steps (bursts of one flood), some long silences
            // that forget everything, and the odd step back in time.
            now = match rng.uniform_usize(40) {
                0 => now + rng.uniform_range(2.0, 6.0),
                1 => (now - rng.uniform_range(0.0, 1.0)).max(0.0),
                _ => now + rng.uniform_range(0.0, 0.05),
            };
            // Few enough keys that live ones are refreshed all the time.
            let origin = NodeId(rng.uniform_usize(12) as u32);
            let id = rng.uniform_usize(6) as u64;
            let at = SimTime::from_secs(now);
            let before = eager.seen.len();
            let expected = eager.check_and_insert(origin, id, at);
            assert_eq!(
                lazy.check_and_insert(origin, id, at),
                expected,
                "call {call}"
            );
            assert_eq!(lazy.len(), eager.seen.len(), "call {call}");
            assert!(eager.seen.keys().all(|&(o, i)| lazy.contains(o, i)));
            duplicates += usize::from(expected);
            shrank += usize::from(eager.seen.len() < before);
            emptied += usize::from(eager.seen.len() == 1 && before > 1);
        }
        assert!(duplicates > 1_000, "refreshes of a live key: {duplicates}");
        assert!(
            shrank > 100 && emptied > 20,
            "{shrank} sweeps, {emptied} full"
        );
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
