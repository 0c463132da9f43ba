//! The neighbour store: two slabs for the whole fleet.
//!
//! [`NeighborArena`] holds every node's neighbour entries in **two
//! contiguous slabs**. Small *key blocks* carry a node's neighbour ids
//! (index-linked, ascending by [`NodeId`] across the node's chain), and
//! beside each id the index of its entry in one dense *payload slab* that
//! holds exactly one [`NeighborInfo`] per live neighbour. A node holds a
//! 16-byte [`ArenaTable`] handle instead of owning storage, and key blocks
//! and payload slots freed by neighbour churn go on free lists for O(1)
//! reuse. `observe` — the hottest call on the beacon plane — walks a
//! couple of 264-byte key blocks and then touches one payload: a refresh
//! overwrites it in place, an insert shifts 4-byte keys and slot indices,
//! and a split moves no payload at all.
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
//! [`NeighborView`], a copyable handle-plus-arena pair with the read API
//! (`contains` / `get` / `iter` / `closest_to` / `greedy_next_hop`) in the
//! ascending-id iteration order the deterministic driver depends on.
//!
//! This is the only implementation. What it is checked against is a
//! test-only naive model at the bottom of this file (a `BTreeMap` per node,
//! sharing no code with the slabs): the property tests here and in
//! `neighbor.rs` drive both through randomised churn and pin identical
//! observe results, iteration order, loss observations and deadline
//! evolution, and check after every tick that both slabs' books balance.

// lint: hot-path

use crate::neighbor::NeighborInfo;
use vanet_mobility::geometry::distance;
use vanet_mobility::{Position, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Keys per block. An urban neighbourhood (~40 neighbours) is a two-block
/// chain, so a lookup is a couple of dependent loads before the payload.
/// Measured against 32: 16 (longer chains) read 1.04× on `city10k-greedy`
/// and 0.97× on `city100k-greedy`; 64 (longer scans and shifts, a larger
/// first touch) read 0.99× and 1.13×, with 24 MiB more at 100k nodes.
const BLOCK_KEYS: usize = 32;

/// Null index for both slabs (each can therefore hold up to `u32::MAX - 1`
/// elements, far beyond any fleet this simulates).
const NIL: u32 = u32::MAX;

/// One key block: up to [`BLOCK_KEYS`] ids ascending, each paired with the
/// payload slot of its entry.
#[derive(Debug, Clone)]
struct KeyBlock {
    /// Occupied key count (≥ 1 for every block linked into a chain).
    len: u32,
    /// Next block in this node's chain, or — for blocks on the free list —
    /// the next free block. [`NIL`] terminates both lists.
    next: u32,
    /// Ascending ids; the first `len` are live.
    keys: [NodeId; BLOCK_KEYS],
    /// `slot[i]` indexes the payload of `keys[i]`.
    slot: [u32; BLOCK_KEYS],
}

impl KeyBlock {
    const EMPTY: KeyBlock = KeyBlock {
        len: 0,
        next: NIL,
        keys: [NodeId(0); BLOCK_KEYS],
        slot: [0; BLOCK_KEYS],
    };

    /// Inserts `(id, slot)` at `at`, shifting the keys above it up by one.
    /// The block must have room.
    fn put(&mut self, at: usize, id: NodeId, slot: u32) {
        let n = self.len as usize;
        self.keys.copy_within(at..n, at + 1);
        self.slot.copy_within(at..n, at + 1);
        self.keys[at] = id;
        self.slot[at] = slot;
        self.len += 1;
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

/// How full the arena's two slabs are ([`NeighborArena::occupancy`]). Live
/// plus free is each slab's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaOccupancy {
    /// Key blocks linked into some node's chain.
    pub blocks_live: usize,
    /// Key blocks parked on the free list.
    pub blocks_free: usize,
    /// Payload slots holding a live neighbour entry: the sum of every
    /// handle's length.
    pub slots_live: usize,
    /// Payload slots parked on the free list.
    pub slots_free: usize,
}

impl ArenaOccupancy {
    /// Live entries per live key-block position (0 for an empty arena): how
    /// much of the key slab the chains actually use.
    #[must_use]
    pub fn key_fill(&self) -> f64 {
        if self.blocks_live == 0 {
            return 0.0;
        }
        self.slots_live as f64 / (self.blocks_live * BLOCK_KEYS) as f64
    }
}

/// The shared neighbour-state slabs: one `Vec<KeyBlock>` and one
/// `Vec<NeighborInfo>` for the whole fleet, each with an intrusive free list
/// recycling what churn vacates.
#[derive(Debug, Clone)]
pub struct NeighborArena {
    blocks: Vec<KeyBlock>,
    free_block: u32,
    free_blocks: usize,
    payload: Vec<NeighborInfo>,
    /// Head of the free payload slots. A freed slot is never observable, so
    /// its `id` field holds the link to the next one.
    free_slot: u32,
    free_slots: usize,
}

impl Default for NeighborArena {
    /// An empty free list is `NIL`, not `0`, so this cannot be derived.
    fn default() -> Self {
        Self::new()
    }
}

impl NeighborArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::with_block_capacity(0)
    }

    /// Creates an arena with room for `blocks` full key blocks — that many
    /// blocks, and a payload slot for each of their keys — before either
    /// slab has to reallocate. Sized from the scenario's node count and
    /// expected neighbour density, so neither slab doubles mid-run (a
    /// doubling briefly holds both buffers). Reserving touches nothing: a
    /// slab's pages are first touched as it grows into them.
    #[must_use]
    pub fn with_block_capacity(blocks: usize) -> Self {
        let slots = blocks.saturating_mul(BLOCK_KEYS);
        // lint: allow(P1) — pre-sizing at scenario setup (nothing for `new`):
        // each slab's one allocation, so the steady state never reallocates.
        let (key_blocks, payload) = (Vec::with_capacity(blocks), Vec::with_capacity(slots));
        NeighborArena {
            blocks: key_blocks,
            free_block: NIL,
            free_blocks: 0,
            payload,
            free_slot: NIL,
            free_slots: 0,
        }
    }

    /// How many key blocks a fleet of `nodes` nodes needs if each averages
    /// `expected_neighbors` entries (rounded up per node, plus one spill
    /// block each).
    #[must_use]
    pub fn blocks_for(nodes: usize, expected_neighbors: f64) -> usize {
        let per_node = (expected_neighbors.max(0.0) / BLOCK_KEYS as f64).ceil() as usize + 1;
        nodes.saturating_mul(per_node)
    }

    /// Live and free key blocks and payload slots.
    #[must_use]
    pub fn occupancy(&self) -> ArenaOccupancy {
        ArenaOccupancy {
            blocks_live: self.blocks.len() - self.free_blocks,
            blocks_free: self.free_blocks,
            slots_live: self.payload.len() - self.free_slots,
            slots_free: self.free_slots,
        }
    }

    fn alloc_block(&mut self) -> u32 {
        if self.free_block != NIL {
            let idx = self.free_block;
            let b = &mut self.blocks[idx as usize];
            self.free_block = b.next;
            self.free_blocks -= 1;
            b.len = 0;
            b.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.blocks.len()).expect("key slab outgrew u32 indices");
            assert!(idx != NIL, "key slab outgrew u32 indices");
            self.blocks.push(KeyBlock::EMPTY);
            idx
        }
    }

    /// Stores `info` in a free payload slot (the most recently freed, else
    /// a new one at the end of the slab) and returns its index.
    fn alloc_slot(&mut self, info: NeighborInfo) -> u32 {
        if self.free_slot != NIL {
            let idx = self.free_slot;
            let entry = &mut self.payload[idx as usize];
            self.free_slot = entry.id.0;
            self.free_slots -= 1;
            *entry = info;
            idx
        } else {
            let idx = u32::try_from(self.payload.len()).expect("payload slab outgrew u32 indices");
            assert!(idx != NIL, "payload slab outgrew u32 indices");
            self.payload.push(info);
            idx
        }
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

    /// Overwrites the payload of `info.id` if it is live, else stores it in
    /// a new slot and inserts its key keeping the chain sorted ascending by
    /// id. Full blocks split in half (classic unrolled-list insert); appends
    /// past a full tail block link a fresh block instead, which keeps the
    /// monotonically-growing case dense.
    fn upsert(&mut self, table: &mut ArenaTable, info: NeighborInfo) -> bool {
        let id = info.id;
        if table.head == NIL {
            let nb = self.alloc_block();
            let slot = self.alloc_slot(info);
            self.blocks[nb as usize].put(0, id, slot);
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
            let slot = blk.slot[pos];
            self.payload[slot as usize] = info;
            return false;
        }
        table.len += 1;
        let slot = self.alloc_slot(info);
        if n < BLOCK_KEYS {
            self.blocks[cur as usize].put(pos, id, slot);
            return true;
        }
        let nb = self.alloc_block();
        if pos == BLOCK_KEYS {
            // Appending past a full tail block (the selection loop only
            // leaves pos == n on the tail): link the fresh block.
            self.blocks[nb as usize].put(0, id, slot);
            self.blocks[cur as usize].next = nb;
            return true;
        }
        // Split: the upper half of the keys moves to the fresh block, linked
        // after cur; their payloads stay where they are.
        const HALF: usize = BLOCK_KEYS / 2;
        let full = &mut self.blocks[cur as usize];
        let mut upper = KeyBlock::EMPTY;
        upper.keys[..HALF].copy_from_slice(&full.keys[HALF..]);
        upper.slot[..HALF].copy_from_slice(&full.slot[HALF..]);
        upper.len = HALF as u32;
        upper.next = full.next;
        full.len = HALF as u32;
        full.next = nb;
        if pos <= HALF {
            full.put(pos, id, slot);
        } else {
            upper.put(pos - HALF, id, slot);
        }
        self.blocks[nb as usize] = upper;
        true
    }

    /// Lazy purge: removes entries with `expires_at < now` and appends their
    /// ids (ascending) to `out`. O(1) while [`ArenaTable::next_deadline`]
    /// has not fallen due; otherwise one chain scan that frees expired
    /// payload slots and emptied key blocks to their free lists and tightens
    /// the bound to the exact earliest `expires_at` of the survivors.
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
                let slot = blk.slot[read];
                let entry = &mut self.payload[slot as usize];
                if entry.expires_at < now {
                    out.push(entry.id);
                    entry.id = NodeId(self.free_slot);
                    self.free_slot = slot;
                    self.free_slots += 1;
                } else {
                    if entry.expires_at < earliest {
                        earliest = entry.expires_at;
                    }
                    blk.keys[write] = blk.keys[read];
                    blk.slot[write] = slot;
                    write += 1;
                }
            }
            blk.len = write as u32;
            live += write as u32;
            if write == 0 {
                blk.next = self.free_block;
                self.free_block = cur;
                self.free_blocks += 1;
                if prev == NIL {
                    table.head = next;
                } else {
                    self.blocks[prev as usize].next = next;
                }
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
    pub(crate) fn get<'a>(&'a self, table: &ArenaTable, id: NodeId) -> Option<&'a NeighborInfo> {
        let mut cur = table.head;
        while cur != NIL {
            let blk = &self.blocks[cur as usize];
            let n = blk.len as usize;
            if id <= blk.keys[n - 1] {
                return blk.keys[..n]
                    .iter()
                    .position(|&k| k == id)
                    .map(|i| &self.payload[blk.slot[i] as usize]);
            }
            cur = blk.next;
        }
        None
    }

    /// Whether `id` is currently a neighbour.
    #[must_use]
    pub(crate) fn contains(&self, table: &ArenaTable, id: NodeId) -> bool {
        self.get(table, id).is_some()
    }

    /// All of the node's neighbours, ascending by id.
    #[must_use]
    pub(crate) fn iter<'a>(&'a self, table: &ArenaTable) -> ArenaIter<'a> {
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
                let item = &self.arena.payload[blk.slot[self.pos] as usize];
                self.pos += 1;
                return Some(item);
            }
            self.block = blk.next;
            self.pos = 0;
        }
        None
    }
}

/// A copyable, read-only view of one node's neighbour set: the arena and
/// the node's handle into it. This is what `ProtocolContext` hands to
/// protocols; iteration is ascending by id, which fixes the tie-break in
/// `closest_to`.
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

/// The reference the slabs are checked against: a deliberately naive
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
    use vanet_mobility::Vec2;
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

    /// The books law of both slabs, with `handles` the arena's every live
    /// handle: each key block is on the free list or on exactly one live
    /// chain; each payload slot is on the free list or referenced by exactly
    /// one key; a handle's cached length is what a walk of its chain yields;
    /// and the referenced slots number the handles' lengths summed, which is
    /// what `occupancy` reports as live.
    fn assert_books_balance(arena: &NeighborArena, handles: &[ArenaTable], at: &str) {
        let mut block_refs = vec![0u32; arena.blocks.len()];
        let mut slot_refs = vec![0u32; arena.payload.len()];
        let mut held = 0;
        for t in handles {
            let mut walked = 0;
            let mut cur = t.head;
            while cur != NIL {
                let blk = &arena.blocks[cur as usize];
                block_refs[cur as usize] += 1;
                for &slot in &blk.slot[..blk.len as usize] {
                    slot_refs[slot as usize] += 1;
                }
                walked += blk.len as usize;
                cur = blk.next;
            }
            assert_eq!(t.len(), walked, "{at}: cached length is not the chain's");
            held += walked;
        }
        let (mut free_blocks, mut cur) = (0, arena.free_block);
        while cur != NIL {
            block_refs[cur as usize] += 1;
            free_blocks += 1;
            cur = arena.blocks[cur as usize].next;
        }
        let (mut free_slots, mut cur) = (0, arena.free_slot);
        while cur != NIL {
            slot_refs[cur as usize] += 1;
            free_slots += 1;
            cur = arena.payload[cur as usize].id.0;
        }
        assert!(
            block_refs.iter().all(|&r| r == 1),
            "{at}: a key block is not on exactly one chain or the free list"
        );
        assert!(
            slot_refs.iter().all(|&r| r == 1),
            "{at}: a payload slot is not under exactly one key or on the free list"
        );
        let occupancy = arena.occupancy();
        assert_eq!(
            (occupancy.blocks_free, occupancy.slots_free),
            (free_blocks, free_slots),
            "{at}: free-list counts diverged from the lists"
        );
        assert_eq!(occupancy.slots_live, held, "{at}: live slots ≠ Σ lengths");
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
        assert_eq!(arena.occupancy(), ArenaOccupancy::default());
        assert!(obs(&mut arena, &mut t, 5, 50.0, 0.0, 3.0));
        assert_eq!(arena.get(&t, NodeId(5)).unwrap().position.x, 50.0);
        let one = ArenaOccupancy {
            blocks_live: 1,
            slots_live: 1,
            ..ArenaOccupancy::default()
        };
        assert_eq!(arena.occupancy(), one);
    }

    #[test]
    fn iteration_is_ascending_across_block_spills() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        // 3× the block size, inserted in a scrambled order, forces splits.
        let mut ids: Vec<u32> = (0..(3 * BLOCK_KEYS as u32)).collect();
        let mut rng = SimRng::new(9);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.uniform_usize(i + 1));
        }
        for &id in &ids {
            obs(&mut arena, &mut t, id, f64::from(id), 0.0, 3.0);
        }
        let seen: Vec<u32> = arena.iter(&t).map(|n| n.id.0).collect();
        let expect: Vec<u32> = (0..(3 * BLOCK_KEYS as u32)).collect();
        assert_eq!(seen, expect);
        assert_eq!(t.len(), expect.len());
        assert_books_balance(&arena, &[t], "after the spills");
    }

    /// Churn reuses freed key blocks *and* payload slots: neither slab grows.
    #[test]
    fn freed_blocks_are_reused_across_tables() {
        let mut arena = NeighborArena::new();
        let mut a = ArenaTable::new();
        let mut b = ArenaTable::new();
        let count = 2 * BLOCK_KEYS as u32;
        for id in 0..count {
            obs(&mut arena, &mut a, id, 0.0, 0.0, 1.0);
        }
        let grown = (arena.blocks.len(), arena.payload.len());
        assert_eq!(grown.1, count as usize);
        // Expire everything in `a`; its blocks and slots go to the free lists...
        let mut lost = Vec::new();
        arena.purge_due(&mut a, SimTime::from_secs(5.0), &mut lost);
        assert_eq!(lost.len(), count as usize);
        assert!(a.is_empty());
        let drained = arena.occupancy();
        assert_eq!((drained.blocks_live, drained.slots_live), (0, 0));
        assert_eq!((drained.blocks_free, drained.slots_free), grown);
        // ...and table `b` recycles them.
        for id in 0..count {
            obs(&mut arena, &mut b, id, 0.0, 6.0, 1.0);
        }
        assert_eq!(
            (arena.blocks.len(), arena.payload.len()),
            grown,
            "churn must reuse freed key blocks and payload slots"
        );
        assert_eq!(arena.occupancy().slots_free, 0);
        assert_books_balance(&arena, &[a, b], "after the reuse");
    }

    /// Randomised churn (observes and lazy purges) drives the arena and the
    /// naive model in lockstep; observe results, loss observations,
    /// iteration order and the deadline bound must stay identical. Several
    /// handles share one arena so chain interleaving and free-list reuse are
    /// exercised the way the fleet driver exercises them. After every tick
    /// both slabs' books must balance ([`assert_books_balance`]).
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
                }
                assert_books_balance(&arena, &handles, &format!("case {case} tick {tick}"));
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
