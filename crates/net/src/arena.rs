//! The neighbour store: one slab for the whole fleet.
//!
//! [`NeighborArena`] holds every node's neighbour entries in **one
//! contiguous slab**: entries live in fixed-size blocks (index-linked,
//! ascending by [`NodeId`] across a node's chain), a node holds a 16-byte
//! [`ArenaTable`] handle instead of owning storage, and blocks freed by
//! neighbour churn go on a free list for O(1) reuse. `observe` — the hottest
//! call on the beacon plane — and the purge walk touch a handful of adjacent
//! cache lines in one region the hardware prefetcher understands, and the
//! fleet's node array stays dense.
//!
//! Expiry is *lazy*: a handle carries [`ArenaTable::next_deadline`], a
//! conservative lower bound on the earliest `expires_at` of any live entry
//! (refreshing an entry raises its real deadline but leaves the bound
//! untouched, so the bound only ever errs towards checking early).
//! [`NeighborArena::purge_due`] is an O(1) no-op until the bound falls due
//! and only then scans — steady-state maintenance cost tracks actual expiry
//! activity, not fleet size.
//!
//! Protocols never mutate neighbour state, so they read through
//! [`NeighborView`], a copyable handle-plus-slab pair with the read API
//! (`contains` / `get` / `iter` / `closest_to` / `greedy_next_hop`) in the
//! ascending-id iteration order the deterministic driver depends on.
//!
//! This is the only implementation. What it is checked against is a
//! test-only naive model at the bottom of this file (a `BTreeMap` per node,
//! sharing no code with the slab): the property tests here and in
//! `neighbor.rs` drive both through randomised churn and pin identical
//! observe results, iteration order, loss observations and deadline
//! evolution.

// lint: hot-path

use crate::neighbor::NeighborInfo;
use vanet_mobility::geometry::distance;
use vanet_mobility::{Position, Vec2, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Entries per block. Thirty-two 56-byte entries keep a realistic urban
/// density (~50 neighbours) to a two-to-three block chain, so a lookup's
/// pointer-chase is bounded by a couple of dependent loads; the compact key
/// mirror at the front of the block means the in-block scan touches two
/// cache lines before any payload is read. (Narrower blocks were measured
/// slower: with 8 entries the same density chained ~7 scattered blocks and
/// the dependent misses dominated the refresh path.)
const BLOCK_ENTRIES: usize = 32;

/// Null block index (the slab can therefore hold up to `u32::MAX - 1`
/// blocks, far beyond any fleet this simulates).
const NIL: u32 = u32::MAX;

/// Filler for unoccupied entry slots; never observable through the API.
const EMPTY_INFO: NeighborInfo = NeighborInfo {
    id: NodeId(0),
    position: Vec2::ZERO,
    velocity: Vec2::ZERO,
    last_heard: SimTime::ZERO,
    expires_at: SimTime::ZERO,
};

/// One slab block: up to [`BLOCK_ENTRIES`] entries sorted ascending by id,
/// with the ids mirrored in a compact key array so lookups scan keys
/// without striding through payloads.
#[derive(Debug, Clone)]
struct Block {
    /// `keys[i] == entries[i].id` for `i < len`.
    keys: [NodeId; BLOCK_ENTRIES],
    /// Occupied entry count (≥ 1 for every block linked into a chain).
    len: u32,
    /// Next block in this node's chain, or — for blocks on the free list —
    /// the next free block. [`NIL`] terminates both lists.
    next: u32,
    /// Entry payloads.
    entries: [NeighborInfo; BLOCK_ENTRIES],
}

impl Block {
    fn empty() -> Self {
        Block {
            keys: [NodeId(0); BLOCK_ENTRIES],
            len: 0,
            next: NIL,
            entries: [EMPTY_INFO; BLOCK_ENTRIES],
        }
    }
}

/// A node's handle into the [`NeighborArena`]: the head of its block chain
/// plus the cached entry count and the lazy-expiry deadline bound — 16
/// bytes, so the fleet's node array stays dense.
#[derive(Debug, Clone, Copy)]
pub struct ArenaTable {
    head: u32,
    len: u32,
    /// Lower bound on the earliest `expires_at` among live entries, or
    /// [`SimTime::MAX`] when empty. Lowered on insert and refresh, tightened
    /// to the exact minimum whenever a purge scans the chain.
    next_deadline: SimTime,
}

impl Default for ArenaTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaTable {
    /// Creates an empty handle.
    #[must_use]
    pub fn new() -> Self {
        ArenaTable {
            head: NIL,
            len: 0,
            next_deadline: SimTime::MAX,
        }
    }

    /// Number of neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lazy-expiry deadline: no entry can expire strictly before this
    /// time, so maintenance may skip the table until the clock reaches it.
    /// [`SimTime::MAX`] when the table is empty.
    #[must_use]
    pub fn next_deadline(&self) -> SimTime {
        self.next_deadline
    }
}

/// The shared neighbour-state slab: one `Vec<Block>` for the whole fleet,
/// with an intrusive free list recycling blocks vacated by churn.
#[derive(Debug, Clone)]
pub struct NeighborArena {
    blocks: Vec<Block>,
    free_head: u32,
    free_len: usize,
}

impl Default for NeighborArena {
    /// An empty free list is `free_head == NIL`, not `0`, so this cannot be
    /// derived.
    fn default() -> Self {
        Self::new()
    }
}

impl NeighborArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        NeighborArena {
            // lint: allow(P1) — construction, once per simulation; the slab
            // itself is what makes the steady state alloc-free.
            blocks: Vec::new(),
            free_head: NIL,
            free_len: 0,
        }
    }

    /// Creates an arena with room for `blocks` blocks before the slab has
    /// to reallocate — sized from the scenario's node count and expected
    /// neighbour density so fleet start-up never pays a doubling ramp over
    /// a multi-gigabyte slab.
    #[must_use]
    pub fn with_block_capacity(blocks: usize) -> Self {
        NeighborArena {
            // lint: allow(P1) — pre-sizing at scenario setup: this is the
            // one allocation that prevents the doubling ramp later.
            blocks: Vec::with_capacity(blocks),
            free_head: NIL,
            free_len: 0,
        }
    }

    /// How many blocks a fleet of `nodes` nodes needs if each averages
    /// `expected_neighbors` entries (rounded up per node, plus one spill
    /// block each).
    #[must_use]
    pub fn blocks_for(nodes: usize, expected_neighbors: f64) -> usize {
        let per_node = (expected_neighbors.max(0.0) / BLOCK_ENTRIES as f64).ceil() as usize + 1;
        nodes.saturating_mul(per_node)
    }

    /// Total slab blocks (live + free).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently parked on the free list.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free_len
    }

    fn alloc_block(&mut self) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let b = &mut self.blocks[idx as usize];
            self.free_head = b.next;
            self.free_len -= 1;
            b.len = 0;
            b.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.blocks.len()).expect("arena slab outgrew u32 indices");
            assert!(idx != NIL, "arena slab outgrew u32 indices");
            self.blocks.push(Block::empty());
            idx
        }
    }

    fn free_block(&mut self, idx: u32) {
        let b = &mut self.blocks[idx as usize];
        b.len = 0;
        b.next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
    }

    /// Inserts or refreshes a neighbour from a received beacon. Returns
    /// `true` when the neighbour was newly inserted (a link came up) and
    /// `false` on a refresh of a live entry — the "gained" half of the
    /// neighbour-churn signal telemetry taps record.
    pub fn observe(
        &mut self,
        table: &mut ArenaTable,
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
        let inserted = self.upsert(table, info);
        // A refresh can only raise its entry's deadline when observation
        // times are monotone, but one compare keeps the bound a lower bound
        // for out-of-order replays as well.
        if expires_at < table.next_deadline {
            table.next_deadline = expires_at;
        }
        inserted
    }

    /// Inserts `info` keeping the chain sorted ascending by id, or replaces
    /// the existing entry in place. Full blocks split in half (classic
    /// unrolled-list insert); appends past a full tail block link a fresh
    /// block instead, which keeps the monotonically-growing case dense.
    fn upsert(&mut self, table: &mut ArenaTable, info: NeighborInfo) -> bool {
        let id = info.id;
        if table.head == NIL {
            let nb = self.alloc_block();
            let blk = &mut self.blocks[nb as usize];
            blk.keys[0] = id;
            blk.entries[0] = info;
            blk.len = 1;
            table.head = nb;
            table.len = 1;
            return true;
        }
        // Target: the first block whose last key is >= id, else the tail.
        let mut cur = table.head;
        loop {
            let blk = &self.blocks[cur as usize];
            if blk.keys[blk.len as usize - 1] >= id || blk.next == NIL {
                break;
            }
            cur = blk.next;
        }
        let blk = &self.blocks[cur as usize];
        let n = blk.len as usize;
        let pos = blk.keys[..n].iter().position(|&k| k >= id).unwrap_or(n);
        if pos < n && blk.keys[pos] == id {
            self.blocks[cur as usize].entries[pos] = info;
            return false;
        }
        table.len += 1;
        if n < BLOCK_ENTRIES {
            let blk = &mut self.blocks[cur as usize];
            for i in (pos..n).rev() {
                blk.keys[i + 1] = blk.keys[i];
                blk.entries[i + 1] = blk.entries[i];
            }
            blk.keys[pos] = id;
            blk.entries[pos] = info;
            blk.len += 1;
            return true;
        }
        if pos == BLOCK_ENTRIES {
            // Appending past a full tail block (the selection loop only
            // leaves pos == n on the tail): link a fresh block.
            let nb = self.alloc_block();
            let blk = &mut self.blocks[nb as usize];
            blk.keys[0] = id;
            blk.entries[0] = info;
            blk.len = 1;
            self.blocks[cur as usize].next = nb;
            return true;
        }
        // Split: upper half moves to a recycled/new block linked after cur.
        const HALF: usize = BLOCK_ENTRIES / 2;
        let nb = self.alloc_block();
        let mut upper_keys = [NodeId(0); HALF];
        let mut upper_entries = [EMPTY_INFO; HALF];
        {
            let blk = &mut self.blocks[cur as usize];
            upper_keys.copy_from_slice(&blk.keys[HALF..]);
            upper_entries.copy_from_slice(&blk.entries[HALF..]);
            blk.len = HALF as u32;
        }
        let old_next = self.blocks[cur as usize].next;
        {
            let blk = &mut self.blocks[nb as usize];
            blk.keys[..HALF].copy_from_slice(&upper_keys);
            blk.entries[..HALF].copy_from_slice(&upper_entries);
            blk.len = HALF as u32;
            blk.next = old_next;
        }
        self.blocks[cur as usize].next = nb;
        let (target, at) = if pos <= HALF {
            (cur, pos)
        } else {
            (nb, pos - HALF)
        };
        let blk = &mut self.blocks[target as usize];
        let n = blk.len as usize;
        for i in (at..n).rev() {
            blk.keys[i + 1] = blk.keys[i];
            blk.entries[i + 1] = blk.entries[i];
        }
        blk.keys[at] = id;
        blk.entries[at] = info;
        blk.len += 1;
        true
    }

    /// Lazy purge: removes entries with `expires_at < now` and appends their
    /// ids (ascending) to `out`. O(1) while [`ArenaTable::next_deadline`]
    /// has not fallen due; otherwise one chain scan that frees emptied
    /// blocks to the free list and tightens the bound to the exact earliest
    /// `expires_at` of the survivors.
    pub fn purge_due(&mut self, table: &mut ArenaTable, now: SimTime, out: &mut Vec<NodeId>) {
        if table.next_deadline >= now {
            return;
        }
        self.scan_and_purge(table, now, out);
    }

    fn scan_and_purge(&mut self, table: &mut ArenaTable, now: SimTime, out: &mut Vec<NodeId>) {
        let mut earliest = SimTime::MAX;
        let mut live = 0u32;
        let mut prev = NIL;
        let mut cur = table.head;
        while cur != NIL {
            let blk = &mut self.blocks[cur as usize];
            let next = blk.next;
            let n = blk.len as usize;
            let mut write = 0;
            for read in 0..n {
                let e = blk.entries[read];
                if e.expires_at < now {
                    out.push(e.id);
                } else {
                    if e.expires_at < earliest {
                        earliest = e.expires_at;
                    }
                    blk.keys[write] = blk.keys[read];
                    blk.entries[write] = e;
                    write += 1;
                }
            }
            blk.len = write as u32;
            live += write as u32;
            if write == 0 {
                if prev == NIL {
                    table.head = next;
                } else {
                    self.blocks[prev as usize].next = next;
                }
                self.free_block(cur);
            } else {
                prev = cur;
            }
            cur = next;
        }
        table.len = live;
        table.next_deadline = earliest;
    }

    /// Looks up a neighbour.
    #[must_use]
    pub fn get<'a>(&'a self, table: &ArenaTable, id: NodeId) -> Option<&'a NeighborInfo> {
        let mut cur = table.head;
        while cur != NIL {
            let blk = &self.blocks[cur as usize];
            let n = blk.len as usize;
            if id <= blk.keys[n - 1] {
                return blk.keys[..n]
                    .iter()
                    .position(|&k| k == id)
                    .map(|i| &blk.entries[i]);
            }
            cur = blk.next;
        }
        None
    }

    /// Whether `id` is currently a neighbour.
    #[must_use]
    pub fn contains(&self, table: &ArenaTable, id: NodeId) -> bool {
        self.get(table, id).is_some()
    }

    /// All of the node's neighbours, ascending by id.
    #[must_use]
    pub fn iter<'a>(&'a self, table: &ArenaTable) -> ArenaIter<'a> {
        ArenaIter {
            arena: self,
            block: table.head,
            pos: 0,
        }
    }

    /// A read-only [`NeighborView`] of one node's table, the form protocols
    /// consume through `ProtocolContext`.
    #[must_use]
    pub fn view<'a>(&'a self, table: &'a ArenaTable) -> NeighborView<'a> {
        NeighborView { arena: self, table }
    }
}

/// Iterator over one node's chain, ascending by id.
#[derive(Debug, Clone)]
pub struct ArenaIter<'a> {
    arena: &'a NeighborArena,
    block: u32,
    pos: usize,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = &'a NeighborInfo;

    fn next(&mut self) -> Option<Self::Item> {
        while self.block != NIL {
            let blk = &self.arena.blocks[self.block as usize];
            if self.pos < blk.len as usize {
                let item = &blk.entries[self.pos];
                self.pos += 1;
                return Some(item);
            }
            self.block = blk.next;
            self.pos = 0;
        }
        None
    }
}

/// A copyable, read-only view of one node's neighbour set: the slab and the
/// node's handle into it. This is what `ProtocolContext` hands to protocols;
/// iteration is ascending by id, which fixes the tie-break in `closest_to`.
#[derive(Debug, Clone, Copy)]
pub struct NeighborView<'a> {
    arena: &'a NeighborArena,
    table: &'a ArenaTable,
}

impl<'a> NeighborView<'a> {
    /// Number of neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Whether `id` is currently a (non-expired, as of last purge) neighbour.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.arena.contains(self.table, id)
    }

    /// Looks up a neighbour.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&'a NeighborInfo> {
        self.arena.get(self.table, id)
    }

    /// All current neighbours, ascending by id.
    #[must_use]
    pub fn iter(&self) -> ArenaIter<'a> {
        self.arena.iter(self.table)
    }

    /// The neighbour geographically closest to `target`, if any — the greedy
    /// forwarding primitive. Of several equally close, the lowest id.
    #[must_use]
    pub fn closest_to(&self, target: Position) -> Option<&'a NeighborInfo> {
        self.iter()
            .min_by(|a, b| distance(a.position, target).total_cmp(&distance(b.position, target)))
    }

    /// The neighbour closest to `target` that is strictly closer to it than
    /// `own_distance` (greedy forwarding with the local-maximum check).
    #[must_use]
    pub fn greedy_next_hop(&self, target: Position, own_distance: f64) -> Option<&'a NeighborInfo> {
        self.closest_to(target)
            .filter(|n| distance(n.position, target) < own_distance)
    }
}

/// The reference the slab is checked against: a deliberately naive
/// per-node neighbour set, sharing no code with [`NeighborArena`].
#[cfg(test)]
pub(crate) mod naive {
    use super::{distance, NeighborInfo, NodeId, Position, SimDuration, SimTime, Velocity};
    use std::collections::BTreeMap;

    /// One node's neighbours in an ordered map, with the same conservative
    /// next-deadline rule as [`super::ArenaTable`].
    #[derive(Debug)]
    pub(crate) struct NaiveTable {
        pub(crate) entries: BTreeMap<NodeId, NeighborInfo>,
        pub(crate) next_deadline: SimTime,
    }

    impl NaiveTable {
        pub(crate) fn new() -> Self {
            NaiveTable {
                entries: BTreeMap::new(),
                next_deadline: SimTime::MAX,
            }
        }

        pub(crate) fn observe(
            &mut self,
            id: NodeId,
            position: Position,
            velocity: Velocity,
            now: SimTime,
            lifetime: SimDuration,
        ) -> bool {
            let info = NeighborInfo {
                id,
                position,
                velocity,
                last_heard: now,
                expires_at: now + lifetime,
            };
            self.next_deadline = self.next_deadline.min(info.expires_at);
            self.entries.insert(id, info).is_none()
        }

        /// The eager sweep: drops everything with `expires_at < now`,
        /// returns the dropped ids ascending, makes the bound exact.
        pub(crate) fn purge_expired(&mut self, now: SimTime) -> Vec<NodeId> {
            let lost: Vec<NodeId> = self
                .entries
                .values()
                .filter(|e| e.expires_at < now)
                .map(|e| e.id)
                .collect();
            for id in &lost {
                self.entries.remove(id);
            }
            self.next_deadline = self
                .entries
                .values()
                .map(|e| e.expires_at)
                .min()
                .unwrap_or(SimTime::MAX);
            lost
        }

        /// The lazy rule: sweep only once the bound has fallen due.
        pub(crate) fn purge_due(&mut self, now: SimTime, out: &mut Vec<NodeId>) {
            if self.next_deadline < now {
                out.extend(self.purge_expired(now));
            }
        }

        /// Closest entry to `target`; a later id wins only when strictly
        /// closer, so ties go to the lowest id.
        pub(crate) fn closest_to(&self, target: Position) -> Option<&NeighborInfo> {
            let mut best: Option<&NeighborInfo> = None;
            for e in self.entries.values() {
                match best {
                    Some(b) if distance(b.position, target) <= distance(e.position, target) => {}
                    _ => best = Some(e),
                }
            }
            best
        }

        pub(crate) fn greedy_next_hop(
            &self,
            target: Position,
            own_distance: f64,
        ) -> Option<&NeighborInfo> {
            self.closest_to(target)
                .filter(|n| distance(n.position, target) < own_distance)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive::NaiveTable;
    use super::*;
    use vanet_sim::SimRng;

    fn obs(
        arena: &mut NeighborArena,
        t: &mut ArenaTable,
        id: u32,
        x: f64,
        now: f64,
        life: f64,
    ) -> bool {
        arena.observe(
            t,
            NodeId(id),
            Vec2::new(x, 0.0),
            Vec2::ZERO,
            SimTime::from_secs(now),
            SimDuration::from_secs(life),
        )
    }

    /// Blocks linked from `t`'s chain and the entries a walk of it yields.
    fn chain_census(arena: &NeighborArena, t: &ArenaTable) -> (usize, usize) {
        let (mut blocks, mut entries) = (0, 0);
        let mut cur = t.head;
        while cur != NIL {
            let blk = &arena.blocks[cur as usize];
            blocks += 1;
            entries += blk.len as usize;
            cur = blk.next;
        }
        (blocks, entries)
    }

    #[test]
    fn observe_insert_refresh_and_lookup() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        assert!(obs(&mut arena, &mut t, 5, 50.0, 0.0, 3.0));
        assert!(obs(&mut arena, &mut t, 2, 20.0, 0.0, 3.0));
        assert!(!obs(&mut arena, &mut t, 5, 55.0, 1.0, 3.0), "refresh");
        assert_eq!(t.len(), 2);
        assert!(arena.contains(&t, NodeId(2)));
        assert!(!arena.contains(&t, NodeId(3)));
        assert_eq!(arena.get(&t, NodeId(5)).unwrap().position.x, 55.0);
    }

    /// `Default` must be `new()`: a derived one would start the free list at
    /// block 0 of an empty slab and the first `observe` would index it.
    #[test]
    fn a_defaulted_arena_is_a_new_arena() {
        let mut arena = NeighborArena::default();
        let mut t = ArenaTable::default();
        assert_eq!(arena.free_blocks(), 0);
        assert!(obs(&mut arena, &mut t, 5, 50.0, 0.0, 3.0));
        assert_eq!(arena.get(&t, NodeId(5)).unwrap().position.x, 50.0);
        assert_eq!((arena.block_count(), arena.free_blocks()), (1, 0));
    }

    #[test]
    fn iteration_is_ascending_across_block_spills() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        // 3× the block size, inserted in a scrambled order, forces splits.
        let mut ids: Vec<u32> = (0..(3 * BLOCK_ENTRIES as u32)).collect();
        let mut rng = SimRng::new(9);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.uniform_usize(i + 1));
        }
        for &id in &ids {
            obs(&mut arena, &mut t, id, f64::from(id), 0.0, 3.0);
        }
        let seen: Vec<u32> = arena.iter(&t).map(|n| n.id.0).collect();
        let expect: Vec<u32> = (0..(3 * BLOCK_ENTRIES as u32)).collect();
        assert_eq!(seen, expect);
        assert_eq!(t.len(), expect.len());
    }

    #[test]
    fn freed_blocks_are_reused_across_tables() {
        let mut arena = NeighborArena::new();
        let mut a = ArenaTable::new();
        let mut b = ArenaTable::new();
        for id in 0..(2 * BLOCK_ENTRIES as u32) {
            obs(&mut arena, &mut a, id, 0.0, 0.0, 1.0);
        }
        let grown = arena.block_count();
        // Expire everything in `a`; its blocks go to the free list...
        let mut lost = Vec::new();
        arena.purge_due(&mut a, SimTime::from_secs(5.0), &mut lost);
        assert_eq!(lost.len(), 2 * BLOCK_ENTRIES);
        assert!(a.is_empty());
        assert!(arena.free_blocks() > 0);
        // ...and table `b` recycles them without growing the slab.
        for id in 0..(2 * BLOCK_ENTRIES as u32) {
            obs(&mut arena, &mut b, id, 0.0, 6.0, 1.0);
        }
        assert_eq!(arena.block_count(), grown, "churn must reuse freed blocks");
        assert_eq!(arena.free_blocks(), 0);
    }

    /// Randomised churn (observes and lazy purges) drives the arena and the
    /// naive model in lockstep; observe results, loss observations,
    /// iteration order and the deadline bound must stay identical. Several
    /// handles share one arena so chain interleaving and free-list reuse are
    /// exercised the way the fleet driver exercises them. After every tick
    /// the slab's books must balance: every block is on the free list or on
    /// exactly one live chain, and a handle's cached length is what a walk
    /// of its chain yields.
    #[test]
    fn arena_matches_reference_table_under_randomized_churn() {
        let mut rng = SimRng::new(0xa7e4a);
        for case in 0..40 {
            let mut arena = NeighborArena::new();
            let tables = 3usize;
            let mut handles: Vec<ArenaTable> = (0..tables).map(|_| ArenaTable::new()).collect();
            let mut refs: Vec<NaiveTable> = (0..tables).map(|_| NaiveTable::new()).collect();
            let lifetime = SimDuration::from_secs(1.0 + rng.uniform_range(0.0, 3.0));
            let universe = 4 + rng.uniform_usize(40) as u32;
            let mut scratch_a = Vec::new();
            let mut scratch_r = Vec::new();
            for tick in 1..=30u32 {
                let tick_time = SimTime::from_secs(f64::from(tick));
                for _ in 0..rng.uniform_usize(2 * universe as usize) {
                    let w = rng.uniform_usize(tables);
                    let id = NodeId(rng.uniform_usize(universe as usize) as u32);
                    let at = SimTime::from_secs(f64::from(tick) - rng.uniform_range(0.0, 1.0));
                    let pos = Vec2::new(rng.uniform_range(0.0, 500.0), 0.0);
                    let vel = Vec2::new(rng.uniform_range(-20.0, 20.0), 0.0);
                    let ia = arena.observe(&mut handles[w], id, pos, vel, at, lifetime);
                    let ir = refs[w].observe(id, pos, vel, at, lifetime);
                    assert_eq!(ia, ir, "case {case} tick {tick}: insert flag diverged");
                }
                let mut linked = 0;
                for w in 0..tables {
                    scratch_a.clear();
                    scratch_r.clear();
                    arena.purge_due(&mut handles[w], tick_time, &mut scratch_a);
                    refs[w].purge_due(tick_time, &mut scratch_r);
                    assert_eq!(
                        scratch_a, scratch_r,
                        "case {case} tick {tick}: losses diverged"
                    );
                    let ea: Vec<NeighborInfo> = arena.iter(&handles[w]).copied().collect();
                    let er: Vec<NeighborInfo> = refs[w].entries.values().copied().collect();
                    assert_eq!(ea, er, "case {case} tick {tick}: entries diverged");
                    assert_eq!(
                        handles[w].next_deadline(),
                        refs[w].next_deadline,
                        "case {case} tick {tick}: deadline bound diverged"
                    );
                    let (blocks, entries) = chain_census(&arena, &handles[w]);
                    assert_eq!(handles[w].len(), entries, "case {case} tick {tick}");
                    linked += blocks;
                }
                assert_eq!(
                    arena.block_count(),
                    arena.free_blocks() + linked,
                    "case {case} tick {tick}: a block is neither live nor free"
                );
            }
        }
    }

    /// The protocol-facing read API must answer exactly as the naive model
    /// does, including the lowest-id tie-break of `closest_to`.
    #[test]
    fn view_reads_identically_over_both_backings() {
        let mut rng = SimRng::new(0x51de5);
        let mut arena = NeighborArena::new();
        let mut handle = ArenaTable::new();
        let mut naive = NaiveTable::new();
        assert!(arena.view(&handle).is_empty());
        let life = SimDuration::from_secs(3.0);
        let mut observe = |id: u32, pos: Vec2, at: f64| {
            let at = SimTime::from_secs(at);
            arena.observe(&mut handle, NodeId(id), pos, Vec2::ZERO, at, life);
            naive.observe(NodeId(id), pos, Vec2::ZERO, at, life);
        };
        for _ in 0..60 {
            let id = 2 + rng.uniform_usize(24) as u32;
            let pos = Vec2::new(rng.uniform_range(0.0, 400.0), rng.uniform_range(0.0, 400.0));
            observe(id, pos, rng.uniform_range(0.0, 2.0));
        }
        // Two neighbours mirrored about the second target, nearer to it than
        // anything above can be: the lower id has to win.
        observe(1, Vec2::new(999.0, 500.0), 2.0);
        observe(0, Vec2::new(1_001.0, 500.0), 2.0);
        let view = arena.view(&handle);
        assert_eq!(view.len(), naive.entries.len());
        assert!(!view.is_empty());
        for id in 0..28 {
            assert_eq!(
                view.contains(NodeId(id)),
                naive.entries.contains_key(&NodeId(id))
            );
            assert_eq!(view.get(NodeId(id)), naive.entries.get(&NodeId(id)));
        }
        let seen: Vec<NeighborInfo> = view.iter().copied().collect();
        let expect: Vec<NeighborInfo> = naive.entries.values().copied().collect();
        assert_eq!(seen, expect);
        let target = Vec2::new(200.0, 200.0);
        assert_eq!(view.closest_to(target), naive.closest_to(target));
        for own_distance in [150.0, 5.0] {
            assert_eq!(
                view.greedy_next_hop(target, own_distance),
                naive.greedy_next_hop(target, own_distance)
            );
        }
        let tied = Vec2::new(1_000.0, 500.0);
        assert_eq!(view.closest_to(tied).map(|n| n.id), Some(NodeId(0)));
        assert_eq!(view.closest_to(tied), naive.closest_to(tied));
    }
}
