//! Bounded per-node bundle buffer for the store-carry-forward protocols.
//!
//! A [`BundleBuffer`] is bounded slot storage: `capacity` is a number, and a
//! slot is materialised the first time an insert finds no hole below the
//! high-water mark. Every scan — `contains`, `get`, `iter`, `insert`,
//! `remove`, `expire_due` — therefore costs the slots the node has ever
//! occupied at once, not the configured capacity (on the benchmark's
//! `dtn-epidemic` workload a node peaks at 45 bundles in a buffer of 1024).
//!
//! Memory model: ≈264 B per *materialised* slot. The slot vector grows by
//! amortised doubling, never beyond `capacity` slots in use, and stops
//! growing at the node's occupancy high-water mark; below it bundles move in
//! and out of existing slots without touching the allocator. That is the
//! `// lint: hot-path` contract as the arena and the grid keep it — a
//! bounded warm-up, then an allocation-free steady state — without paying
//! `capacity × 264 B` per node up front.
//!
//! Capacity pressure is resolved by a pluggable [`DropPolicy`]; TTL expiry
//! is checked lazily from the per-node maintenance deadline that already
//! rides the batched timer wheel (the same lazy-purge discipline the
//! neighbour tables use), so expiry needs no timers of its own and fires at
//! exactly the maintenance instants the `(time, seq)` order defines.
//!
//! Every policy decision is a total order over `(SimTime, u32, bool,
//! BundleKey)` tuples — no float comparisons — so eviction is
//! deterministic for a deterministic call sequence.

// lint: hot-path

use vanet_net::Packet;
use vanet_sim::{NodeId, SimTime};

/// Fleet-unique identity of a bundle: the originating node plus the packet
/// id it allocated. Forwarded copies keep the originator's id, so every
/// replica of a bundle shares one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleKey {
    /// The node that originated the bundle.
    pub origin: NodeId,
    /// The packet id at the originator.
    pub id: u64,
}

impl BundleKey {
    /// The key of `packet`.
    #[must_use]
    pub fn of(packet: &Packet) -> Self {
        BundleKey {
            origin: packet.source,
            id: packet.id.value(),
        }
    }
}

/// Which bundle gives way when the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Evict the bundle that has been buffered longest.
    DropOldest,
    /// Evict the bundle that has travelled the most hops (it has had the
    /// most replication opportunities already).
    DropLargestHopCount,
    /// Evict non-custodial copies before custodial ones; oldest first
    /// within each class.
    NoCustodyFirst,
}

/// A buffered bundle: the stored packet plus its carry state.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// The stored data packet (TTL/hops as last received).
    pub packet: Packet,
    /// When this node buffered it.
    pub stored_at: SimTime,
    /// When it must be discarded.
    pub expires_at: SimTime,
    /// Whether this node currently holds custody of the bundle.
    pub custody: bool,
    /// Remaining copy tickets (spray-and-wait); 0 when unbudgeted.
    pub copies: u32,
}

impl Bundle {
    /// The bundle's fleet-unique key.
    #[must_use]
    pub fn key(&self) -> BundleKey {
        BundleKey::of(&self.packet)
    }
}

/// What [`BundleBuffer::insert`] did with the offered bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// Stored in a free slot.
    Stored,
    /// Stored; the returned bundle was evicted to make room.
    Evicted(Bundle),
    /// Not stored: under the drop policy the offered bundle itself was the
    /// most evictable candidate.
    Rejected(Bundle),
    /// Not stored: a bundle with the same key is already buffered.
    Duplicate(Bundle),
}

/// Bounded slot storage for bundles with policy-driven eviction.
#[derive(Debug, Clone)]
pub struct BundleBuffer {
    /// The slots materialised so far; `None` is a hole. A new bundle takes
    /// the first hole, else a pushed slot — exactly the first-free-slot
    /// order of a fully preallocated array, so slot order (and with it
    /// `iter()` order, eviction choices and transmission order) does not
    /// depend on when a slot was materialised. Occupancy stays in the tens,
    /// so a scan of this prefix needs no index structure.
    slots: Vec<Option<Bundle>>,
    capacity: usize,
    len: usize,
    policy: DropPolicy,
    /// Lower bound on the earliest `expires_at` among the stored bundles
    /// (`SimTime::MAX` when none can be due): [`BundleBuffer::expire_due`]
    /// is one compare until it is reached. Removal and eviction leave it
    /// conservatively low; it is never too high because a stored bundle's
    /// `expires_at` cannot change outside this module's crate-private
    /// accessors, and nothing that uses them touches it.
    next_expiry: SimTime,
}

impl BundleBuffer {
    /// Creates a buffer with room for `capacity` bundles.
    #[must_use]
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        BundleBuffer {
            // lint: allow(P1) — construction, once per node at simulation
            // start; slots materialise on demand up to `capacity`.
            slots: Vec::new(),
            capacity,
            len: 0,
            policy,
            next_expiry: SimTime::MAX,
        }
    }

    /// Maximum number of bundles the buffer can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered bundles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bundles are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured drop policy.
    #[must_use]
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Whether a bundle with `key` is buffered.
    #[must_use]
    pub fn contains(&self, key: BundleKey) -> bool {
        self.get(key).is_some()
    }

    /// The buffered bundle with `key`, if any.
    #[must_use]
    pub fn get(&self, key: BundleKey) -> Option<&Bundle> {
        self.slots
            .iter()
            .flatten()
            .find(|bundle| bundle.key() == key)
    }

    /// Mutable access to the buffered bundle with `key`, if any. Crate-
    /// private because `next_expiry` relies on `expires_at` staying put:
    /// callers change `custody` and `copies` only.
    pub(crate) fn get_mut(&mut self, key: BundleKey) -> Option<&mut Bundle> {
        self.slots
            .iter_mut()
            .flatten()
            .find(|bundle| bundle.key() == key)
    }

    /// All buffered bundles, in slot order (deterministic for a
    /// deterministic call sequence).
    pub fn iter(&self) -> impl Iterator<Item = &Bundle> {
        self.slots.iter().flatten()
    }

    /// Mutable iteration over all buffered bundles, in slot order. Crate-
    /// private for the same reason as [`BundleBuffer::get_mut`].
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Bundle> {
        self.slots.iter_mut().flatten()
    }

    /// Offers `bundle` to the buffer. With a free slot it is stored; at
    /// capacity the drop policy picks the most evictable of the stored
    /// bundles *and the offered one* — so an incoming bundle that ranks
    /// worst under the policy is rejected rather than displacing a better
    /// one.
    pub fn insert(&mut self, bundle: Bundle) -> InsertOutcome {
        if self.capacity == 0 {
            return InsertOutcome::Rejected(bundle);
        }
        if self.contains(bundle.key()) {
            return InsertOutcome::Duplicate(bundle);
        }
        if self.len < self.capacity {
            self.next_expiry = self.next_expiry.min(bundle.expires_at);
            self.len += 1;
            match self.slots.iter_mut().find(|slot| slot.is_none()) {
                Some(hole) => *hole = Some(bundle),
                // No hole below the high-water mark and `len < capacity`:
                // every materialised slot is occupied, so there are fewer
                // than `capacity` of them.
                None => self.slots.push(Some(bundle)),
            }
            return InsertOutcome::Stored;
        }
        // Full: every one of the `capacity` slots is materialised and
        // occupied. Find the most evictable stored bundle.
        let mut victim_slot = 0;
        for slot in 1..self.slots.len() {
            let candidate = self.slots[slot].as_ref().expect("buffer is full");
            let current = self.slots[victim_slot].as_ref().expect("buffer is full");
            if more_evictable(self.policy, candidate, current) {
                victim_slot = slot;
            }
        }
        let victim = self.slots[victim_slot].as_ref().expect("buffer is full");
        if more_evictable(self.policy, &bundle, victim) {
            return InsertOutcome::Rejected(bundle);
        }
        self.next_expiry = self.next_expiry.min(bundle.expires_at);
        let evicted = self.slots[victim_slot]
            .replace(bundle)
            .expect("victim slot was occupied");
        InsertOutcome::Evicted(evicted)
    }

    /// Removes and returns the bundle with `key`, if buffered.
    pub fn remove(&mut self, key: BundleKey) -> Option<Bundle> {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|bundle| bundle.key() == key) {
                self.len -= 1;
                return slot.take();
            }
        }
        None
    }

    /// Moves every bundle whose `expires_at` has passed into `out`, in slot
    /// order. `out` is a caller-owned scratch buffer so steady-state expiry
    /// reuses its capacity. One compare when nothing can be due yet.
    pub fn expire_due(&mut self, now: SimTime, out: &mut Vec<Bundle>) {
        if now < self.next_expiry {
            return;
        }
        let mut earliest = SimTime::MAX;
        for slot in &mut self.slots {
            let Some(bundle) = slot else { continue };
            if bundle.expires_at <= now {
                out.push(slot.take().expect("checked above"));
                self.len -= 1;
            } else {
                earliest = earliest.min(bundle.expires_at);
            }
        }
        self.next_expiry = earliest;
    }
}

/// Whether `a` should be evicted in preference to `b` under `policy`.
///
/// Every branch bottoms out in the total `(SimTime, u32, bool, BundleKey)`
/// orders, so the choice is unambiguous for any pair.
fn more_evictable(policy: DropPolicy, a: &Bundle, b: &Bundle) -> bool {
    use std::cmp::Ordering;
    let by_age = |a: &Bundle, b: &Bundle| {
        // Older (smaller stored_at) is more evictable; keys break ties.
        match a.stored_at.cmp(&b.stored_at) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.key() < b.key(),
        }
    };
    match policy {
        DropPolicy::DropOldest => by_age(a, b),
        DropPolicy::DropLargestHopCount => match a.packet.hops.cmp(&b.packet.hops) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => by_age(a, b),
        },
        DropPolicy::NoCustodyFirst => match (a.custody, b.custody) {
            (false, true) => true,
            (true, false) => false,
            _ => by_age(a, b),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_sim::{PacketId, SimDuration, SimRng};

    fn bundle(origin: u32, id: u64, stored_s: f64, hops: u32, custody: bool) -> Bundle {
        let mut packet = Packet::data(NodeId(origin), NodeId(999), 64);
        packet.id = PacketId(id);
        packet.hops = hops;
        let stored_at = SimTime::from_secs(stored_s);
        Bundle {
            packet,
            stored_at,
            expires_at: stored_at + SimDuration::from_secs(30.0),
            custody,
            copies: 0,
        }
    }

    #[test]
    fn stores_until_capacity_then_applies_the_policy() {
        let mut buf = BundleBuffer::new(2, DropPolicy::DropOldest);
        assert!(matches!(
            buf.insert(bundle(1, 1, 1.0, 0, false)),
            InsertOutcome::Stored
        ));
        assert!(matches!(
            buf.insert(bundle(1, 2, 2.0, 0, false)),
            InsertOutcome::Stored
        ));
        assert_eq!(buf.len(), 2);
        // Full: the oldest (id 1) is evicted for the newcomer.
        match buf.insert(bundle(1, 3, 3.0, 0, false)) {
            InsertOutcome::Evicted(evicted) => assert_eq!(evicted.key().id, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(buf.contains(BundleKey {
            origin: NodeId(1),
            id: 3
        }));
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let mut buf = BundleBuffer::new(4, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 1.0, 0, false));
        assert!(matches!(
            buf.insert(bundle(1, 1, 2.0, 5, true)),
            InsertOutcome::Duplicate(_)
        ));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn largest_hop_count_policy_rejects_a_worse_newcomer() {
        let mut buf = BundleBuffer::new(1, DropPolicy::DropLargestHopCount);
        buf.insert(bundle(1, 1, 1.0, 2, false));
        // The newcomer has more hops than anything stored: it is the victim.
        match buf.insert(bundle(1, 2, 2.0, 9, false)) {
            InsertOutcome::Rejected(rejected) => assert_eq!(rejected.key().id, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        // A fresher newcomer displaces the stored one.
        match buf.insert(bundle(1, 3, 3.0, 1, false)) {
            InsertOutcome::Evicted(evicted) => assert_eq!(evicted.key().id, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn no_custody_first_prefers_non_custodial_victims() {
        let mut buf = BundleBuffer::new(2, DropPolicy::NoCustodyFirst);
        buf.insert(bundle(1, 1, 1.0, 0, true));
        buf.insert(bundle(1, 2, 2.0, 0, false));
        match buf.insert(bundle(1, 3, 3.0, 0, true)) {
            InsertOutcome::Evicted(evicted) => {
                assert_eq!(evicted.key().id, 2, "the non-custodial copy gives way");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn expiry_moves_due_bundles_out_in_slot_order() {
        let mut buf = BundleBuffer::new(4, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 0.0, 0, false));
        buf.insert(bundle(1, 2, 20.0, 0, false));
        let mut out = Vec::new();
        buf.expire_due(SimTime::from_secs(31.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key().id, 1);
        assert_eq!(buf.len(), 1);
        buf.expire_due(SimTime::from_secs(31.0), &mut out);
        assert_eq!(out.len(), 1, "expiry is idempotent");
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut buf = BundleBuffer::new(2, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 1.0, 0, false));
        let key = BundleKey {
            origin: NodeId(1),
            id: 1,
        };
        assert!(buf.remove(key).is_some());
        assert!(buf.remove(key).is_none());
        assert_eq!(buf.len(), 0);
        assert!(matches!(
            buf.insert(bundle(1, 2, 2.0, 0, false)),
            InsertOutcome::Stored
        ));
    }

    /// The reference model: every slot preallocated, every operation an
    /// eager scan of all of them, a new bundle into the first free slot, the
    /// victim re-derived by ranking every candidate (stored + incoming).
    /// No high-water mark, no expiry bound.
    struct ReferenceModel {
        slots: Vec<Option<Bundle>>,
        policy: DropPolicy,
    }

    impl ReferenceModel {
        fn new(capacity: usize, policy: DropPolicy) -> Self {
            ReferenceModel {
                slots: vec![None; capacity],
                policy,
            }
        }

        /// The key that gave way (evicted or rejected), if any.
        fn insert(&mut self, bundle: Bundle) -> Option<BundleKey> {
            if self.slots.is_empty() {
                return Some(bundle.key());
            }
            if self.keys().contains(&bundle.key()) {
                return None; // duplicate: refused, nothing evicted
            }
            if let Some(free) = self.slots.iter_mut().find(|slot| slot.is_none()) {
                *free = Some(bundle);
                return None;
            }
            let mut worst: Option<usize> = None; // None = the incoming bundle
            for (at, slot) in self.slots.iter().enumerate() {
                let stored = slot.as_ref().expect("full");
                let current = worst.map_or(&bundle, |w| self.slots[w].as_ref().expect("full"));
                if more_evictable(self.policy, stored, current) {
                    worst = Some(at);
                }
            }
            match worst {
                None => Some(bundle.key()),
                Some(at) => self.slots[at].replace(bundle).map(|evicted| evicted.key()),
            }
        }

        fn remove(&mut self, key: BundleKey) -> bool {
            let slot = self
                .slots
                .iter_mut()
                .find(|slot| slot.as_ref().is_some_and(|b| b.key() == key));
            slot.is_some_and(|slot| slot.take().is_some())
        }

        /// Expired keys in slot order.
        fn expire(&mut self, now: SimTime) -> Vec<BundleKey> {
            let mut expired = Vec::new();
            for slot in &mut self.slots {
                if slot.as_ref().is_some_and(|b| b.expires_at <= now) {
                    expired.push(slot.take().expect("checked").key());
                }
            }
            expired
        }

        /// Stored keys in slot order.
        fn keys(&self) -> Vec<BundleKey> {
            self.slots.iter().flatten().map(Bundle::key).collect()
        }

        fn earliest_expiry(&self) -> Option<SimTime> {
            self.slots.iter().flatten().map(|b| b.expires_at).min()
        }
    }

    /// Property: under randomized churn (inserts with colliding keys,
    /// removals, expiry sweeps) the buffer holds the bundles the fully
    /// preallocated model holds *in the same slot order* — which decides
    /// transmission order — makes identical eviction choices for every
    /// policy, and expires the same bundles in the same order; the expiry
    /// bound never overshoots. Capacities cover full-and-evicting (1–8) and
    /// the sparse regime of `disrupted_highway` (1024 slots, tens in use).
    #[test]
    fn eviction_matches_the_naive_reference_model_under_churn() {
        for policy in [
            DropPolicy::DropOldest,
            DropPolicy::DropLargestHopCount,
            DropPolicy::NoCustodyFirst,
        ] {
            for seed in 0..10_u64 {
                let mut rng = SimRng::new(9000 + seed);
                let capacity = if seed < 8 {
                    1 + (rng.next_u64() % 8) as usize
                } else {
                    1024
                };
                let mut buf = BundleBuffer::new(capacity, policy);
                let mut model = ReferenceModel::new(capacity, policy);
                let mut clock = 0.0_f64;
                let mut scratch = Vec::new();
                for step in 0..400_u64 {
                    let at = format!("{policy:?} capacity {capacity} seed {seed} step {step}");
                    clock += rng.uniform();
                    let now = SimTime::from_secs(clock);
                    match rng.next_u64() % 10 {
                        // Mostly inserts, with a small key space so
                        // duplicates actually occur.
                        0..=6 => {
                            let origin = (rng.next_u64() % 4) as u32;
                            let id = rng.next_u64() % 32;
                            let hops = (rng.next_u64() % 6) as u32;
                            let custody = rng.next_u64() % 2 == 0;
                            let mut b = bundle(origin, id, clock, hops, custody);
                            b.expires_at = now + SimDuration::from_secs(1.0 + rng.uniform() * 10.0);
                            let model_evicted = model.insert(b.clone());
                            let buf_evicted = match buf.insert(b) {
                                InsertOutcome::Stored | InsertOutcome::Duplicate(_) => None,
                                InsertOutcome::Evicted(e) => Some(e.key()),
                                InsertOutcome::Rejected(r) => Some(r.key()),
                            };
                            assert_eq!(buf_evicted, model_evicted, "{at}: eviction diverged");
                        }
                        7 => {
                            let key = BundleKey {
                                origin: NodeId((rng.next_u64() % 4) as u32),
                                id: rng.next_u64() % 32,
                            };
                            assert_eq!(
                                buf.remove(key).is_some(),
                                model.remove(key),
                                "{at}: removal diverged"
                            );
                        }
                        _ => {
                            // Just before the bound nothing may move; at
                            // `now` the sweep must equal the eager scan.
                            if buf.next_expiry > SimTime::ZERO && buf.next_expiry < SimTime::MAX {
                                let early = buf.next_expiry - SimDuration::from_secs(1e-9);
                                buf.expire_due(early, &mut scratch);
                                assert!(scratch.is_empty(), "{at}: expired before the bound");
                                assert!(model.expire(early).is_empty(), "{at}: bound too high");
                            }
                            buf.expire_due(now, &mut scratch);
                            let expired: Vec<BundleKey> =
                                scratch.drain(..).map(|b| b.key()).collect();
                            assert_eq!(expired, model.expire(now), "{at}: expiry diverged");
                        }
                    }
                    let keys: Vec<BundleKey> = buf.iter().map(Bundle::key).collect();
                    assert_eq!(keys, model.keys(), "{at}: slot order diverged");
                    assert_eq!(buf.len(), keys.len());
                    assert!(buf.len() <= buf.capacity());
                    assert!(
                        model
                            .earliest_expiry()
                            .is_none_or(|earliest| buf.next_expiry <= earliest),
                        "{at}: expiry bound above a stored bundle's expiry"
                    );
                }
            }
        }
    }
}
