//! Neighbour discovery: HELLO beaconing and the neighbour table.
//!
//! Mobility-based and probability-based protocols need "neighbouring
//! awareness" — each vehicle periodically broadcasts its position and velocity
//! so its neighbours can predict link lifetimes. This is exactly the extra
//! communication overhead Table I charges to those categories; the beacon
//! packets are counted by the metrics layer like any other control packet.
//!
//! # Storage and the lazy expiry deadline
//!
//! Entries live in a [`NodeId`]-sorted `Vec` rather than a `BTreeMap`, with
//! the ids additionally mirrored in a parallel key vector. A table holds a
//! few dozen neighbours, so the key vector spans a handful of cache lines;
//! a lookup does one sequential, prefetch-friendly scan of those lines and
//! then exactly one access into the (much larger) entry payloads. That
//! matters at fleet scale: with 100k nodes the tables are far beyond cache,
//! and the previous pointer-chasing (or an entry-striding binary search)
//! paid a chain of dependent cache misses per received frame — `observe` is
//! the single hottest call in the megacity bench. Refreshes update in place
//! without allocating, and every read (`iter`, [`NeighborTable::
//! closest_to`], …) walks contiguous memory. Iteration order is ascending
//! `NodeId` — the same order the previous `BTreeMap` produced, which the
//! deterministic simulation driver depends on.
//!
//! Expiry is *lazy*: the table tracks [`NeighborTable::next_deadline`], a
//! conservative lower bound on the earliest `expires_at` of any live entry
//! (refreshing an entry raises its real deadline but leaves the bound
//! untouched, so the bound only ever errs towards checking early). The
//! driver's per-node maintenance event calls [`NeighborTable::purge_due`],
//! which is an O(1) no-op until the bound falls due and only then scans —
//! so steady-state maintenance cost tracks actual expiry activity, not
//! fleet size. The eager [`NeighborTable::purge_expired`] sweep is kept as
//! the reference implementation; a property test pins the two to identical
//! loss observations.

use vanet_mobility::geometry::distance;
use vanet_mobility::{Position, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Beaconing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconConfig {
    /// Interval between HELLO beacons.
    pub interval: SimDuration,
    /// How long a neighbour entry stays valid without a fresh beacon.
    pub lifetime: SimDuration,
    /// Random jitter applied to each beacon (fraction of the interval) so
    /// that beacons from different vehicles do not synchronise.
    pub jitter_fraction: f64,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            interval: SimDuration::from_secs(1.0),
            lifetime: SimDuration::from_secs(3.0),
            jitter_fraction: 0.1,
        }
    }
}

/// What a node knows about one of its neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborInfo {
    /// The neighbour's id.
    pub id: NodeId,
    /// Last advertised position.
    pub position: Position,
    /// Last advertised velocity.
    pub velocity: Velocity,
    /// When the last beacon (or overheard packet) from it arrived.
    pub last_heard: SimTime,
    /// When the entry expires if no further beacon arrives.
    pub expires_at: SimTime,
}

impl NeighborInfo {
    /// Predicted position of the neighbour at `time`, extrapolating its last
    /// advertised velocity (dead reckoning).
    #[must_use]
    pub fn predicted_position(&self, time: SimTime) -> Position {
        let dt = time.saturating_since(self.last_heard).as_secs();
        self.position + self.velocity * dt
    }
}

/// Entry ids mirrored inline in the table struct itself (see
/// [`NeighborTable::keys_inline`]). 104 ids cover every table a realistic
/// density produces; larger tables fall back to the heap-allocated key
/// vector with identical behaviour.
const INLINE_KEYS: usize = 104;

/// The neighbour table maintained by every node.
///
/// `repr(C)` pins the field order so the inline key array sits directly
/// after the scalar header fields: the hot lookup then walks cache lines
/// adjacent to the one the table header itself occupies, instead of
/// dereferencing into a separately-allocated key vector.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct NeighborTable {
    /// Entries sorted ascending by [`NodeId`].
    entries: Vec<NeighborInfo>,
    /// Entry ids, ascending — `keys[i] == entries[i].id`; the authoritative
    /// key list, kept separate from the 64-byte entries so key scans never
    /// stride through payloads.
    keys: Vec<NodeId>,
    /// Lower bound on the earliest `expires_at` among live entries, or
    /// [`SimTime::MAX`] when the table is empty. Maintained on insert and
    /// tightened whenever a purge scans the table.
    next_deadline: SimTime,
    /// Mirror of `keys[..len]` while `len <= INLINE_KEYS`, re-synced
    /// wholesale after every structural change (a few-hundred-byte copy at
    /// neighbour-churn rate, nothing on the refresh fast path). Lookups use
    /// it to stay within the node's own cache-line neighbourhood — at fleet
    /// scale the tables are cold, and the extra dependent miss through the
    /// key vector's heap allocation was the single largest remaining cost
    /// per received frame.
    keys_inline: [NodeId; INLINE_KEYS],
}

impl Default for NeighborTable {
    fn default() -> Self {
        NeighborTable {
            entries: Vec::new(),
            keys: Vec::new(),
            next_deadline: SimTime::MAX,
            keys_inline: [NodeId(0); INLINE_KEYS],
        }
    }
}

impl PartialEq for NeighborTable {
    /// Tables are equal when they hold the same entries; the expiry bound is
    /// a maintenance accelerator, not part of the observable state.
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl NeighborTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `id` lives (`Ok`) or belongs (`Err`). A sequential scan of the
    /// dense key array (inline while the table fits): for tables of tens of
    /// neighbours this touches fewer cache lines than a binary search and
    /// the hardware prefetcher hides the latency, which a dependent probe
    /// chain cannot.
    fn position_of(&self, id: NodeId) -> Result<usize, usize> {
        let n = self.entries.len();
        let keys: &[NodeId] = if n <= INLINE_KEYS {
            &self.keys_inline[..n]
        } else {
            &self.keys
        };
        match keys.iter().position(|&k| k >= id) {
            Some(i) if keys[i] == id => Ok(i),
            Some(i) => Err(i),
            None => Err(n),
        }
    }

    /// Re-mirrors the key vector into the inline array after a structural
    /// change (no-op for tables that have outgrown it).
    fn sync_inline(&mut self) {
        let n = self.keys.len();
        if n <= INLINE_KEYS {
            self.keys_inline[..n].copy_from_slice(&self.keys);
        }
    }

    /// Inserts or refreshes a neighbour from a received beacon. Returns
    /// `true` when the neighbour was newly inserted (a link came up) and
    /// `false` on a refresh of a live entry — the "gained" half of the
    /// neighbour-churn signal telemetry taps record.
    pub fn observe(
        &mut self,
        id: NodeId,
        position: Position,
        velocity: Velocity,
        now: SimTime,
        lifetime: SimDuration,
    ) -> bool {
        let expires_at = now + lifetime;
        let info = NeighborInfo {
            id,
            position,
            velocity,
            last_heard: now,
            expires_at,
        };
        let inserted = match self.position_of(id) {
            Ok(i) => {
                self.entries[i] = info;
                false
            }
            Err(i) => {
                self.keys.insert(i, id);
                self.entries.insert(i, info);
                self.sync_inline();
                true
            }
        };
        // Keep the bound a lower bound of every live deadline on refreshes
        // too: with monotone observation times a refresh can only raise its
        // entry's deadline, but enforcing the invariant here (one compare)
        // makes the table correct for out-of-order replays as well.
        if expires_at < self.next_deadline {
            self.next_deadline = expires_at;
        }
        inserted
    }

    /// The lazy-expiry deadline: no entry can expire strictly before this
    /// time, so maintenance may skip the table until the clock reaches it.
    /// [`SimTime::MAX`] when the table is empty.
    #[must_use]
    pub fn next_deadline(&self) -> SimTime {
        self.next_deadline
    }

    /// Lazy purge: removes entries with `expires_at < now` and appends their
    /// ids (ascending) to `out`. O(1) while [`NeighborTable::next_deadline`]
    /// has not fallen due; otherwise one contiguous scan that also tightens
    /// the deadline to the exact earliest `expires_at` of the survivors.
    ///
    /// Observes exactly the same (neighbour, time) losses as the eager
    /// [`NeighborTable::purge_expired`] sweep would at the same instants.
    pub fn purge_due(&mut self, now: SimTime, out: &mut Vec<NodeId>) {
        if self.next_deadline >= now {
            return;
        }
        self.scan_and_purge(now, out);
    }

    /// Eager purge (the reference sweep): removes expired entries and returns
    /// the ids that were dropped (each a detected link break), ascending.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.scan_and_purge(now, &mut out);
        out
    }

    fn scan_and_purge(&mut self, now: SimTime, out: &mut Vec<NodeId>) {
        let mut earliest = SimTime::MAX;
        let mut write = 0;
        for read in 0..self.entries.len() {
            let e = self.entries[read];
            if e.expires_at < now {
                out.push(e.id);
            } else {
                if e.expires_at < earliest {
                    earliest = e.expires_at;
                }
                self.keys[write] = self.keys[read];
                self.entries[write] = e;
                write += 1;
            }
        }
        self.keys.truncate(write);
        self.entries.truncate(write);
        self.sync_inline();
        self.next_deadline = earliest;
    }

    /// Removes a specific neighbour (e.g. after a failed unicast).
    pub fn remove(&mut self, id: NodeId) -> Option<NeighborInfo> {
        match self.position_of(id) {
            Ok(i) => {
                self.keys.remove(i);
                let removed = self.entries.remove(i);
                self.sync_inline();
                Some(removed)
            }
            Err(_) => None,
        }
    }

    /// Looks up a neighbour.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&NeighborInfo> {
        self.position_of(id).ok().map(|i| &self.entries[i])
    }

    /// Whether `id` is currently a (non-expired, as of last purge) neighbour.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.position_of(id).is_ok()
    }

    /// All current neighbours, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &NeighborInfo> {
        self.entries.iter()
    }

    /// The entries as one contiguous slice, ascending by id — the concrete
    /// form [`NeighborView`](crate::NeighborView) wraps.
    #[must_use]
    pub fn as_slice(&self) -> &[NeighborInfo] {
        &self.entries
    }

    /// Number of neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The neighbour geographically closest to `target`, if any — the greedy
    /// forwarding primitive.
    #[must_use]
    pub fn closest_to(&self, target: Position) -> Option<&NeighborInfo> {
        self.entries
            .iter()
            .min_by(|a, b| distance(a.position, target).total_cmp(&distance(b.position, target)))
    }

    /// The neighbour closest to `target` that is strictly closer to it than
    /// `own_distance` (greedy forwarding with the local-maximum check).
    #[must_use]
    pub fn greedy_next_hop(&self, target: Position, own_distance: f64) -> Option<&NeighborInfo> {
        self.closest_to(target)
            .filter(|n| distance(n.position, target) < own_distance)
    }

    /// Neighbours sorted by a caller-provided score, best (highest) first.
    #[must_use]
    pub fn ranked_by<F>(&self, mut score: F) -> Vec<&NeighborInfo>
    where
        F: FnMut(&NeighborInfo) -> f64,
    {
        let mut v: Vec<&NeighborInfo> = self.entries.iter().collect();
        v.sort_by(|a, b| score(b).total_cmp(&score(a)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mobility::Vec2;
    use vanet_sim::SimRng;

    fn table_with_three() -> NeighborTable {
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        t.observe(
            NodeId(1),
            Vec2::new(100.0, 0.0),
            Vec2::new(10.0, 0.0),
            SimTime::ZERO,
            life,
        );
        t.observe(
            NodeId(2),
            Vec2::new(200.0, 0.0),
            Vec2::new(-10.0, 0.0),
            SimTime::ZERO,
            life,
        );
        t.observe(
            NodeId(3),
            Vec2::new(50.0, 50.0),
            Vec2::ZERO,
            SimTime::ZERO,
            life,
        );
        t
    }

    #[test]
    fn observe_and_lookup() {
        let t = table_with_three();
        assert_eq!(t.len(), 3);
        assert!(t.contains(NodeId(1)));
        assert!(!t.contains(NodeId(9)));
        assert_eq!(t.get(NodeId(2)).unwrap().position, Vec2::new(200.0, 0.0));
    }

    #[test]
    fn re_observation_refreshes_entry() {
        let mut t = table_with_three();
        t.observe(
            NodeId(1),
            Vec2::new(150.0, 0.0),
            Vec2::new(12.0, 0.0),
            SimTime::from_secs(1.0),
            SimDuration::from_secs(3.0),
        );
        assert_eq!(t.len(), 3);
        let n = t.get(NodeId(1)).unwrap();
        assert_eq!(n.position, Vec2::new(150.0, 0.0));
        assert_eq!(n.last_heard, SimTime::from_secs(1.0));
    }

    #[test]
    fn iteration_is_ascending_by_id_regardless_of_observation_order() {
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        for id in [7u32, 2, 9, 4, 1] {
            t.observe(NodeId(id), Vec2::ZERO, Vec2::ZERO, SimTime::ZERO, life);
        }
        let ids: Vec<u32> = t.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![1, 2, 4, 7, 9]);
    }

    #[test]
    fn purge_removes_stale_entries() {
        let mut t = table_with_three();
        t.observe(
            NodeId(1),
            Vec2::new(100.0, 0.0),
            Vec2::ZERO,
            SimTime::from_secs(5.0),
            SimDuration::from_secs(3.0),
        );
        let dropped = t.purge_expired(SimTime::from_secs(6.0));
        assert_eq!(t.len(), 1);
        assert!(t.contains(NodeId(1)));
        assert_eq!(dropped.len(), 2);
    }

    #[test]
    fn purge_due_is_a_noop_before_the_deadline() {
        let mut t = table_with_three();
        // All entries expire at 3.0; the bound must hold off any scan first.
        assert_eq!(t.next_deadline(), SimTime::from_secs(3.0));
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(2.0), &mut lost);
        assert!(lost.is_empty());
        assert_eq!(t.len(), 3);
        // Exactly at the deadline nothing has *strictly* expired yet.
        t.purge_due(SimTime::from_secs(3.0), &mut lost);
        assert!(lost.is_empty());
        // Past it, everything goes, ascending by id.
        t.purge_due(SimTime::from_secs(3.5), &mut lost);
        assert_eq!(lost, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(t.is_empty());
        assert_eq!(t.next_deadline(), SimTime::MAX);
    }

    #[test]
    fn refreshes_leave_the_deadline_conservative_but_correct() {
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        t.observe(NodeId(1), Vec2::ZERO, Vec2::ZERO, SimTime::ZERO, life);
        t.observe(
            NodeId(1),
            Vec2::ZERO,
            Vec2::ZERO,
            SimTime::from_secs(2.0),
            life,
        );
        // The bound is stale-low (3.0) while the real deadline is 5.0: a due
        // check scans, loses nothing, and tightens the bound.
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(4.0), &mut lost);
        assert!(lost.is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.next_deadline(), SimTime::from_secs(5.0));
    }

    /// The satellite property: on a randomised beacon schedule, the lazy
    /// `purge_due` path observes exactly the same (neighbour, tick) loss
    /// events as the old eager per-tick sweep.
    #[test]
    fn lazy_and_eager_purges_observe_identical_losses() {
        let mut rng = SimRng::new(0xbeac0);
        for case in 0..50 {
            let mut lazy = NeighborTable::new();
            let mut eager = NeighborTable::new();
            let mut lazy_losses: Vec<(NodeId, u32)> = Vec::new();
            let mut eager_losses: Vec<(NodeId, u32)> = Vec::new();
            let lifetime = SimDuration::from_secs(1.0 + rng.uniform_range(0.0, 3.0));
            let neighbors = 1 + rng.uniform_usize(12) as u32;
            let mut scratch = Vec::new();
            for tick in 1..=40u32 {
                let tick_time = SimTime::from_secs(f64::from(tick));
                // Random beacon arrivals within the previous tick interval.
                for _ in 0..rng.uniform_usize(2 * neighbors as usize) {
                    let id = NodeId(rng.uniform_usize(neighbors as usize) as u32);
                    let at = SimTime::from_secs(f64::from(tick) - rng.uniform_range(0.0, 1.0));
                    lazy.observe(id, Vec2::ZERO, Vec2::ZERO, at, lifetime);
                    eager.observe(id, Vec2::ZERO, Vec2::ZERO, at, lifetime);
                }
                scratch.clear();
                lazy.purge_due(tick_time, &mut scratch);
                lazy_losses.extend(scratch.iter().map(|&id| (id, tick)));
                eager_losses.extend(
                    eager
                        .purge_expired(tick_time)
                        .into_iter()
                        .map(|id| (id, tick)),
                );
                assert_eq!(lazy, eager, "case {case} diverged at tick {tick}");
            }
            assert_eq!(
                lazy_losses, eager_losses,
                "case {case}: loss events diverged"
            );
        }
    }

    #[test]
    fn tables_larger_than_the_inline_mirror_behave_identically() {
        // 3× the inline capacity: lookups fall back to the key vector, and
        // shrinking back under the cap re-arms the mirror.
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        let count = 3 * super::INLINE_KEYS as u32;
        for i in (0..count).rev() {
            t.observe(
                NodeId(i),
                Vec2::new(f64::from(i), 0.0),
                Vec2::ZERO,
                SimTime::ZERO,
                life,
            );
        }
        assert_eq!(t.len(), count as usize);
        let ids: Vec<u32> = t.iter().map(|n| n.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending iteration");
        assert_eq!(t.get(NodeId(200)).unwrap().position.x, 200.0);
        // Refresh a late entry past the purge horizon, purge the rest.
        t.observe(
            NodeId(7),
            Vec2::ZERO,
            Vec2::ZERO,
            SimTime::from_secs(2.0),
            life,
        );
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(4.0), &mut lost);
        assert_eq!(t.len(), 1, "only the refreshed entry survives");
        assert_eq!(lost.len(), count as usize - 1);
        assert!(t.contains(NodeId(7)));
        // Back under the inline cap: lookups and inserts still correct.
        t.observe(
            NodeId(3),
            Vec2::ZERO,
            Vec2::ZERO,
            SimTime::from_secs(4.0),
            life,
        );
        assert!(t.contains(NodeId(3)));
        assert_eq!(
            t.iter().map(|n| n.id.0).collect::<Vec<_>>(),
            vec![3, 7],
            "ascending after shrink"
        );
    }

    #[test]
    fn closest_and_greedy_next_hop() {
        let t = table_with_three();
        let target = Vec2::new(300.0, 0.0);
        assert_eq!(t.closest_to(target).unwrap().id, NodeId(2));
        // Own distance 120 m: node 2 at 100 m qualifies, others do not.
        assert_eq!(t.greedy_next_hop(target, 120.0).unwrap().id, NodeId(2));
        // Own distance 50 m: nobody is closer — local maximum.
        assert!(t.greedy_next_hop(target, 50.0).is_none());
        let empty = NeighborTable::new();
        assert!(empty.closest_to(target).is_none());
    }

    #[test]
    fn dead_reckoning_prediction() {
        let t = table_with_three();
        let n = t.get(NodeId(1)).unwrap();
        let predicted = n.predicted_position(SimTime::from_secs(2.0));
        assert_eq!(predicted, Vec2::new(120.0, 0.0));
    }

    #[test]
    fn ranking_by_score() {
        let t = table_with_three();
        // Rank by x coordinate: highest first.
        let ranked = t.ranked_by(|n| n.position.x);
        let ids: Vec<u32> = ranked.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn remove_returns_entry() {
        let mut t = table_with_three();
        assert!(t.remove(NodeId(3)).is_some());
        assert!(t.remove(NodeId(3)).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn beacon_config_defaults_are_sane() {
        let c = BeaconConfig::default();
        assert!(c.lifetime.as_secs() > c.interval.as_secs());
        assert!(c.jitter_fraction < 1.0);
    }
}
