//! The neighbour store: three slabs for the whole fleet.
//!
//! [`NeighborArena`] holds every node's neighbour entries in **three
//! contiguous slabs**. Small *key blocks* carry a node's neighbour ids
//! (index-linked, ascending by [`NodeId`] across the node's chain), and
//! beside each id the index of its entry in a dense *payload slab* that
//! holds one 8-byte `Entry` per live neighbour: the index of an `Advert` in
//! the *advert slab* and the entry's expiry as an offset from that advert's
//! base. An advert is one frame: the sender's position and velocity, the
//! `f64` bits of the smallest expiry it was minted for (its base, which no
//! expiry naming it lies below), the sender and a reference count, 48 bytes stored once however many receivers hold
//! it. An entry's expiry is rebuilt exactly as `f64::from_bits(base + off)`.
//! Every reception of one frame names the same advert, and so does a repeat
//! beacon whose kinematics are bit-identical while its expiry still lies
//! within a `u32` offset of the advert's base (2^32 ulps: 1.9 µs for an
//! expiry in [2 s, 4 s), twice that per further power of two, so a beacon
//! a second later does not fit and takes an advert of its own). A
//! reception whose offset does not fit — out-of-order times, a spread too
//! wide, a sign change — gets an advert of its own, so every expiry is
//! stored exactly whatever the lease, range or clock. A node holds a
//! 16-byte [`ArenaTable`] handle instead of owning storage, and key blocks,
//! payload slots and adverts freed by neighbour churn go on free lists for
//! O(1) reuse (an advert when the last entry naming it lets go). `observe`
//! — the hottest call on the beacon plane — walks a couple of 264-byte key
//! blocks and then touches one payload: a refresh overwrites it in place,
//! an insert shifts 4-byte keys and slot indices, and a split moves no
//! payload at all. [`NeighborArena::observe_batch`] observes one sender at
//! many receivers over a slice of handles, with one advert for the lot: a
//! first pass takes the first step of every receiver's walk, so their cache
//! misses overlap, and the span of their expiries, which the advert's base
//! must cover; then a second pass upserts.
//!
//! Expiry is *lazy*: a handle carries [`ArenaTable::next_deadline`], a
//! conservative lower bound on the earliest expiry of any live entry
//! (refreshing an entry raises its real deadline but leaves the bound
//! untouched, so the bound only ever errs towards checking early).
//! [`NeighborArena::purge_due`] is an O(1) no-op until the bound falls due
//! and only then scans, reading each scanned entry's advert for its base —
//! steady-state maintenance cost tracks actual expiry activity, not fleet
//! size.
//!
//! Protocols never mutate neighbour state, so they read through
//! [`NeighborView`], a copyable handle-plus-arena pair with the read API
//! (`contains` / `get` / `iter` / `closest_to` / `greedy_next_hop`) in the
//! ascending-id iteration order the deterministic driver depends on. It
//! hands out [`NeighborInfo`]s by value, each an entry joined to its key
//! and its advert.
//!
//! This is the only implementation. What it is checked against is a
//! test-only naive model at the bottom of this file (a `BTreeMap` per node,
//! sharing no code with the slabs): the property tests here and in
//! `neighbor.rs` drive both through randomised churn and pin identical
//! observe results, iteration order, loss observations and deadline
//! evolution, and check after every tick that all three slabs' books
//! balance, advert reference counts and expiry bases included.

// lint: hot-path

use crate::neighbor::NeighborInfo;
use vanet_mobility::geometry::distance;
use vanet_mobility::{Position, Vec2, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Keys per block. An urban neighbourhood (~40 neighbours) is a two-block
/// chain, so a lookup is a couple of dependent loads before the payload.
/// Measured against 32: 16 (longer chains) read 1.04× on `city10k-greedy`
/// and 0.97× on `city100k-greedy`; 64 (longer scans and shifts, a larger
/// first touch) read 0.99× and 1.13×, with 24 MiB more at 100k nodes.
const BLOCK_KEYS: usize = 32;

/// Null index for all three slabs (each can therefore hold up to
/// `u32::MAX - 1` elements, far beyond any fleet this simulates).
const NIL: u32 = u32::MAX;

/// One key block: up to [`BLOCK_KEYS`] ids ascending, each paired with the
/// payload slot of its [`Entry`].
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

/// One live neighbour's payload. Its id is the key that indexes it, and
/// what the neighbour last advertised is the advert it names. Its expiry is
/// the `f64` whose bits are the advert's [`Advert::base`] plus `off`. A slot
/// on the free list holds the index of the next free slot in `advert`
/// instead.
#[derive(Debug, Clone, Copy)]
struct Entry {
    off: u32,
    advert: u32,
}

/// One frame's kinematics, shared by every entry that names it.
#[derive(Debug, Clone, Copy)]
struct Advert {
    position: Position,
    velocity: Velocity,
    /// The `f64` bits of the smallest expiry (by bits) the advert was
    /// minted for; each entry naming it holds the expiry whose bits are
    /// `base` plus its [`Entry::off`], so none lies below it. For
    /// non-negative times bits order as the times do, so no entry naming
    /// the advert expires before `base`.
    base: u64,
    /// The advertiser. An advert on the free list holds the index of the
    /// next free advert here instead.
    sender: NodeId,
    /// How many live entries name this advert; 0 exactly when it is free.
    refs: u32,
}

impl Advert {
    /// The expiry of an entry naming this advert at offset `off`.
    fn expiry(&self, off: u32) -> SimTime {
        SimTime::from_secs(f64::from_bits(self.base + u64::from(off)))
    }
}

// The layout the slabs are sized by: what `ArenaOccupancy::slab_bytes`
// counts, and what a view builds per neighbour it hands out.
const _: () = assert!(std::mem::size_of::<Entry>() == 8);
const _: () = assert!(std::mem::size_of::<Advert>() == 48);
const _: () = assert!(std::mem::size_of::<KeyBlock>() == 264);
const _: () = assert!(std::mem::size_of::<NeighborInfo>() == 48);

/// The bits an expiry is stored by.
fn expiry_bits(expires_at: SimTime) -> u64 {
    expires_at.as_secs().to_bits()
}

/// The offset of expiry bits `bits` from an advert's `base`, if an entry
/// can hold it: `bits` at or above `base` and less than 2^32 above it.
fn offset(base: u64, bits: u64) -> Option<u32> {
    bits.checked_sub(base).and_then(|d| u32::try_from(d).ok())
}

/// Whether two vectors are the same bits: `-0.0` is not `0.0`, so a reused
/// advert reads back exactly what the beacon carried.
fn same_bits(a: Vec2, b: Vec2) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// The advert slab: each frame's `(position, velocity)` once, reference
/// counted by the entries that name it, with a free list, and per sender
/// the advert its latest frame minted.
#[derive(Debug, Clone)]
struct Adverts {
    slab: Vec<Advert>,
    /// Head of the free adverts, linked through [`Advert::sender`].
    free: u32,
    free_count: usize,
    /// `latest[s]` is the advert last minted for sender `s`, or [`NIL`]. It
    /// may since have been freed or recycled for another sender, so it is
    /// only a hint that [`Adverts::intern`] checks.
    latest: Vec<u32>,
}

impl Adverts {
    /// The entry for `sender` advertising `(position, velocity)` with the
    /// expiry whose bits are `least`, in a frame whose expiries' bits span
    /// `least..=most`. It names the sender's latest advert if that is live,
    /// still the sender's, bit-identical, and the whole span lies within an
    /// offset of its base; else a fresh advert based at `least` with no
    /// references yet, which the caller's upsert must name at once.
    fn intern(
        &mut self,
        sender: NodeId,
        position: Position,
        velocity: Velocity,
        least: u64,
        most: u64,
    ) -> Entry {
        let s = sender.index();
        if s >= self.latest.len() {
            self.latest.resize(s + 1, NIL);
        }
        let latest = self.latest[s];
        if latest != NIL {
            let a = &self.slab[latest as usize];
            if a.refs > 0
                && a.sender == sender
                && same_bits(a.position, position)
                && same_bits(a.velocity, velocity)
                && offset(a.base, most).is_some()
            {
                if let Some(off) = offset(a.base, least) {
                    return Entry {
                        off,
                        advert: latest,
                    };
                }
            }
        }
        let advert = Advert {
            position,
            velocity,
            base: least,
            sender,
            refs: 0,
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slab[idx as usize];
            self.free = slot.sender.0;
            self.free_count -= 1;
            *slot = advert;
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("advert slab outgrew u32 indices");
            assert!(idx != NIL, "advert slab outgrew u32 indices");
            self.slab.push(advert);
            idx
        };
        self.latest[s] = idx;
        Entry {
            off: 0,
            advert: idx,
        }
    }

    /// One more entry names `idx`.
    fn retain(&mut self, idx: u32) {
        self.slab[idx as usize].refs += 1;
    }

    /// One entry fewer names `idx`; the last one frees it.
    fn release(&mut self, idx: u32) {
        let advert = &mut self.slab[idx as usize];
        advert.refs -= 1;
        if advert.refs == 0 {
            advert.sender = NodeId(self.free);
            self.free = idx;
            self.free_count += 1;
        }
    }
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

/// One reception of a sender's beacon, as [`NeighborArena::observe_batch`]
/// takes it: which table hears the sender and when, and — once the batch
/// has run — whether that inserted the sender.
#[derive(Debug, Clone, Copy)]
pub struct Reception {
    table: u32,
    at: SimTime,
    /// The block the upsert's walk starts from, recorded by the first pass.
    start: u32,
    gained: bool,
}

impl Reception {
    /// A reception by the table at index `table` of the batch's handle
    /// slice, at time `at`.
    #[must_use]
    pub fn new(table: usize, at: SimTime) -> Self {
        Reception {
            table: u32::try_from(table).expect("fewer than 2^32 tables"),
            at,
            start: NIL,
            gained: false,
        }
    }

    /// Whether the batch inserted the sender into this table (a link came
    /// up) rather than refreshing it; `false` before the batch has run.
    #[must_use]
    pub fn gained(&self) -> bool {
        self.gained
    }
}

/// How full the arena's three slabs are ([`NeighborArena::occupancy`]).
/// Live plus free is each slab's length.
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
    /// Adverts named by at least one live entry.
    pub adverts_live: usize,
    /// Adverts parked on the free list.
    pub adverts_free: usize,
}

impl ArenaOccupancy {
    /// Bytes the three slabs have grown into, live and free alike: key
    /// blocks at 264 bytes, payload slots at 8 and adverts at 48. Reserved
    /// but untouched capacity is not counted.
    #[must_use]
    pub fn slab_bytes(&self) -> usize {
        (self.blocks_live + self.blocks_free) * std::mem::size_of::<KeyBlock>()
            + (self.slots_live + self.slots_free) * std::mem::size_of::<Entry>()
            + (self.adverts_live + self.adverts_free) * std::mem::size_of::<Advert>()
    }
}

/// An empty slab with room for `n` elements. Only
/// [`NeighborArena::with_block_capacity`] calls it.
fn reserve<T>(n: usize) -> Vec<T> {
    // lint: allow(P1) — pre-sizing at scenario setup (nothing for `new`):
    // each slab's one allocation, so the steady state never reallocates.
    Vec::with_capacity(n)
}

/// The shared neighbour-state slabs: one `Vec<KeyBlock>`, one `Vec<Entry>`
/// and one `Vec<Advert>` for the whole fleet, each with an intrusive free
/// list recycling what churn vacates.
#[derive(Debug, Clone)]
pub struct NeighborArena {
    blocks: Vec<KeyBlock>,
    free_block: u32,
    free_blocks: usize,
    payload: Vec<Entry>,
    /// Head of the free payload slots. A freed slot is never observable, so
    /// its `advert` holds the link to the next one.
    free_slot: u32,
    free_slots: usize,
    adverts: Adverts,
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
    /// blocks, a payload slot for each of their keys, two adverts and a
    /// sender's `latest` slot per block — before any slab has to
    /// reallocate. Sized from the scenario's node count and expected
    /// neighbour density ([`NeighborArena::blocks_for`], at least a block a
    /// node), so no slab doubles mid-run (a doubling briefly holds both
    /// buffers); on the benchmark's simulation workloads at seed 1 the
    /// advert slab, one advert a frame, grows to 0.07–1.8 adverts per
    /// reserved block (the most on `dtn-epidemic`). Reserving touches
    /// nothing: a slab's pages are first touched as it grows into them.
    #[must_use]
    pub fn with_block_capacity(blocks: usize) -> Self {
        NeighborArena {
            blocks: reserve(blocks),
            free_block: NIL,
            free_blocks: 0,
            payload: reserve(blocks.saturating_mul(BLOCK_KEYS)),
            free_slot: NIL,
            free_slots: 0,
            adverts: Adverts {
                slab: reserve(blocks.saturating_mul(2)),
                free: NIL,
                free_count: 0,
                latest: reserve(blocks),
            },
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

    /// Live and free key blocks, payload slots and adverts.
    #[must_use]
    pub fn occupancy(&self) -> ArenaOccupancy {
        ArenaOccupancy {
            blocks_live: self.blocks.len() - self.free_blocks,
            blocks_free: self.free_blocks,
            slots_live: self.payload.len() - self.free_slots,
            slots_free: self.free_slots,
            adverts_live: self.adverts.slab.len() - self.adverts.free_count,
            adverts_free: self.adverts.free_count,
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

    /// Stores `entry` in a free payload slot (the most recently freed, else
    /// a new one at the end of the slab), counts it among its advert's
    /// references, and returns its index.
    fn alloc_slot(&mut self, entry: Entry) -> u32 {
        self.adverts.retain(entry.advert);
        if self.free_slot != NIL {
            let idx = self.free_slot;
            let slot = &mut self.payload[idx as usize];
            self.free_slot = slot.advert;
            self.free_slots -= 1;
            *slot = entry;
            idx
        } else {
            let idx = u32::try_from(self.payload.len()).expect("payload slab outgrew u32 indices");
            assert!(idx != NIL, "payload slab outgrew u32 indices");
            self.payload.push(entry);
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
        let bits = expiry_bits(expires_at);
        let entry = self.adverts.intern(id, position, velocity, bits, bits);
        let start = table.head;
        self.observe_from(table, start, id, entry, expires_at)
    }

    /// One sender heard by many receivers: [`NeighborArena::observe`] for
    /// each of `receptions` in turn, on `tables[reception.table]` at the
    /// reception's time, with the result left in [`Reception::gained`].
    /// The receptions name one advert — the sender's latest if its base
    /// covers all their expiries, else a fresh one based at their smallest
    /// expiry bits — except those whose expiry lies 2^32 or more ulps above
    /// that base, each of which gets an advert of its own; none is minted
    /// when there are no receptions.
    ///
    /// It runs in two passes. The first reads each receiver's handle and
    /// the last key and link of its head block, and records where the walk
    /// to `id` starts: the head, or its successor when `id` lies past the
    /// head's last key; it also takes the smallest and largest expiry bits,
    /// which the advert is interned with. The second upserts from there.
    /// The first pass's loads do not depend on one another, so the
    /// receivers' cache misses overlap instead of queueing behind each
    /// upsert. A recorded block
    /// stays valid through the second pass: only a purge unlinks a block,
    /// a split keeps the original block as its lower half, and block
    /// indices survive the slab growing. So a table may even appear twice,
    /// though a frame reaches each receiver once.
    pub fn observe_batch(
        &mut self,
        tables: &mut [ArenaTable],
        id: NodeId,
        position: Position,
        velocity: Velocity,
        lifetime: SimDuration,
        receptions: &mut [Reception],
    ) {
        if receptions.is_empty() {
            return;
        }
        let (mut least, mut most) = (u64::MAX, 0);
        for reception in receptions.iter_mut() {
            let bits = expiry_bits(reception.at + lifetime);
            least = least.min(bits);
            most = most.max(bits);
            let head = tables[reception.table as usize].head;
            reception.start = head;
            if head != NIL {
                let blk = &self.blocks[head as usize];
                if blk.keys[blk.len as usize - 1] < id && blk.next != NIL {
                    reception.start = blk.next;
                }
            }
        }
        let first = self.adverts.intern(id, position, velocity, least, most);
        let (advert, base) = (first.advert, least - u64::from(first.off));
        for reception in receptions.iter_mut() {
            let expires_at = reception.at + lifetime;
            let bits = expiry_bits(expires_at);
            let entry = match offset(base, bits) {
                Some(off) => Entry { off, advert },
                None => self.adverts.intern(id, position, velocity, bits, bits),
            };
            let table = &mut tables[reception.table as usize];
            reception.gained = self.observe_from(table, reception.start, id, entry, expires_at);
        }
    }

    /// Upserts `id`'s `entry`, which holds `expires_at`, with the walk to
    /// its block starting at block `start` of the table's chain ([`NIL`]:
    /// the head), which must not lie past that block, and lowers the
    /// deadline bound to its expiry.
    #[inline]
    fn observe_from(
        &mut self,
        table: &mut ArenaTable,
        start: u32,
        id: NodeId,
        entry: Entry,
        expires_at: SimTime,
    ) -> bool {
        let inserted = self.upsert(table, start, id, entry);
        // A refresh can only raise its entry's deadline when observation
        // times are monotone, but one compare keeps the bound a lower bound
        // for out-of-order replays as well.
        if expires_at < table.next_deadline {
            table.next_deadline = expires_at;
        }
        inserted
    }

    /// Overwrites the payload of `id` if it is live, else stores `entry` in
    /// a new slot and inserts its key keeping the chain sorted ascending by
    /// id. The walk begins at block `start` ([`NIL`]: the head). Full blocks
    /// split in half (classic unrolled-list insert); appends past a full
    /// tail block link a fresh block instead, which keeps the
    /// monotonically-growing case dense. Either way the entry's advert
    /// gains a reference, unless the refreshed payload already named it;
    /// the advert a refresh replaces loses one.
    fn upsert(&mut self, table: &mut ArenaTable, start: u32, id: NodeId, entry: Entry) -> bool {
        if table.head == NIL {
            let nb = self.alloc_block();
            let slot = self.alloc_slot(entry);
            self.blocks[nb as usize].put(0, id, slot);
            table.head = nb;
            table.len = 1;
            return true;
        }
        // Target: the first block whose last key is >= id, else the tail.
        let mut cur = if start == NIL { table.head } else { start };
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
            let payload = &mut self.payload[blk.slot[pos] as usize];
            let replaced = std::mem::replace(payload, entry).advert;
            if replaced != entry.advert {
                self.adverts.retain(entry.advert);
                self.adverts.release(replaced);
            }
            return false;
        }
        table.len += 1;
        let slot = self.alloc_slot(entry);
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

    /// Lazy purge: removes entries that expire before `now` and appends
    /// their ids (ascending) to `out`. O(1) while
    /// [`ArenaTable::next_deadline`] has not fallen due; otherwise one chain
    /// scan, reading each entry's advert for its expiry's base, that frees
    /// expired payload slots, emptied key blocks and adverts no entry names
    /// any more to their free lists and tightens the bound to the exact
    /// earliest expiry of the survivors.
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
                let expires_at = self.adverts.slab[entry.advert as usize].expiry(entry.off);
                if expires_at < now {
                    out.push(blk.keys[read]);
                    self.adverts.release(entry.advert);
                    entry.advert = self.free_slot;
                    self.free_slot = slot;
                    self.free_slots += 1;
                } else {
                    if expires_at < earliest {
                        earliest = expires_at;
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

    /// The payload slot of neighbour `id`, if it is one.
    fn slot_of(&self, table: &ArenaTable, id: NodeId) -> Option<u32> {
        let mut cur = table.head;
        while cur != NIL {
            let blk = &self.blocks[cur as usize];
            let n = blk.len as usize;
            if id <= blk.keys[n - 1] {
                return blk.keys[..n]
                    .iter()
                    .position(|&k| k == id)
                    .map(|i| blk.slot[i]);
            }
            cur = blk.next;
        }
        None
    }

    /// The entry in payload slot `slot` joined to its key `id` and its
    /// advert, as the views hand it out.
    fn info(&self, slot: u32, id: NodeId) -> NeighborInfo {
        let entry = self.payload[slot as usize];
        let advert = &self.adverts.slab[entry.advert as usize];
        NeighborInfo {
            id,
            position: advert.position,
            velocity: advert.velocity,
            expires_at: advert.expiry(entry.off),
        }
    }

    /// Looks up a neighbour.
    #[must_use]
    pub(crate) fn get(&self, table: &ArenaTable, id: NodeId) -> Option<NeighborInfo> {
        self.slot_of(table, id).map(|slot| self.info(slot, id))
    }

    /// Whether `id` is currently a neighbour.
    #[must_use]
    pub(crate) fn contains(&self, table: &ArenaTable, id: NodeId) -> bool {
        self.slot_of(table, id).is_some()
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
pub(crate) struct ArenaIter<'a> {
    arena: &'a NeighborArena,
    block: u32,
    pos: usize,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = NeighborInfo;

    fn next(&mut self) -> Option<Self::Item> {
        while self.block != NIL {
            let blk = &self.arena.blocks[self.block as usize];
            if self.pos < blk.len as usize {
                let item = self.arena.info(blk.slot[self.pos], blk.keys[self.pos]);
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
    pub fn get(&self, id: NodeId) -> Option<NeighborInfo> {
        self.arena.get(self.table, id)
    }

    /// All current neighbours, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = NeighborInfo> + 'a {
        self.arena.iter(self.table)
    }

    /// The neighbour geographically closest to `target`, if any — the greedy
    /// forwarding primitive. Of several equally close, the lowest id.
    #[must_use]
    pub fn closest_to(&self, target: Position) -> Option<NeighborInfo> {
        self.iter()
            .min_by(|a, b| distance(a.position, target).total_cmp(&distance(b.position, target)))
    }

    /// The neighbour closest to `target` that is strictly closer to it than
    /// `own_distance` (greedy forwarding with the local-maximum check).
    #[must_use]
    pub fn greedy_next_hop(&self, target: Position, own_distance: f64) -> Option<NeighborInfo> {
        self.closest_to(target)
            .filter(|n| distance(n.position, target) < own_distance)
    }
}

#[cfg(test)]
impl NeighborArena {
    /// The books law of all three slabs, with `handles` the arena's every
    /// live handle: each key block is on the free list or on exactly one
    /// live chain; each payload slot is on the free list or referenced by
    /// exactly one key; a handle's cached length is what a walk of its chain
    /// yields; the referenced slots number the handles' lengths summed,
    /// which is what `occupancy` reports as live; every live entry names a
    /// live advert of its own key's sender, and its rebuilt expiry is at
    /// or past that advert's base (no less far from 0, on the same side);
    /// each live advert's count is the number of live entries naming it;
    /// and each free advert, its count 0, is on the free list exactly once.
    pub(crate) fn assert_books_balance(&self, handles: &[ArenaTable], at: &str) {
        let mut block_refs = vec![0u32; self.blocks.len()];
        let mut slot_refs = vec![0u32; self.payload.len()];
        let mut advert_refs = vec![0u32; self.adverts.slab.len()];
        let mut held = 0;
        for t in handles {
            let mut walked = 0;
            let mut cur = t.head;
            while cur != NIL {
                let blk = &self.blocks[cur as usize];
                block_refs[cur as usize] += 1;
                for (&key, &slot) in blk.keys.iter().zip(&blk.slot).take(blk.len as usize) {
                    slot_refs[slot as usize] += 1;
                    let entry = self.payload[slot as usize];
                    advert_refs[entry.advert as usize] += 1;
                    let advert = &self.adverts.slab[entry.advert as usize];
                    assert_eq!(
                        advert.sender, key,
                        "{at}: an entry names another sender's advert"
                    );
                    let rebuilt = advert
                        .base
                        .checked_add(u64::from(entry.off))
                        .map(f64::from_bits);
                    let base = f64::from_bits(advert.base);
                    assert!(
                        rebuilt.is_some_and(|e| e.is_sign_negative() == base.is_sign_negative()
                            && e.abs() >= base.abs()),
                        "{at}: {key:?}'s expiry {rebuilt:?} lies before its advert's base {base}"
                    );
                }
                walked += blk.len as usize;
                cur = blk.next;
            }
            assert_eq!(t.len(), walked, "{at}: cached length is not the chain's");
            held += walked;
        }
        let (mut free_blocks, mut cur) = (0, self.free_block);
        while cur != NIL {
            block_refs[cur as usize] += 1;
            free_blocks += 1;
            cur = self.blocks[cur as usize].next;
        }
        let (mut free_slots, mut cur) = (0, self.free_slot);
        while cur != NIL {
            slot_refs[cur as usize] += 1;
            free_slots += 1;
            cur = self.payload[cur as usize].advert;
        }
        let mut on_free_list = vec![0u32; self.adverts.slab.len()];
        let (mut free_adverts, mut cur) = (0, self.adverts.free);
        while cur != NIL && on_free_list[cur as usize] == 0 {
            on_free_list[cur as usize] += 1;
            free_adverts += 1;
            cur = self.adverts.slab[cur as usize].sender.0;
        }
        assert_eq!(cur, NIL, "{at}: the free advert list runs into a cycle");
        assert!(
            block_refs.iter().all(|&r| r == 1),
            "{at}: a key block is not on exactly one chain or the free list"
        );
        assert!(
            slot_refs.iter().all(|&r| r == 1),
            "{at}: a payload slot is not under exactly one key or on the free list"
        );
        for (i, advert) in self.adverts.slab.iter().enumerate() {
            if on_free_list[i] == 1 {
                assert_eq!(
                    (advert.refs, advert_refs[i]),
                    (0, 0),
                    "{at}: advert {i} is free but counted or named"
                );
            } else {
                assert!(advert.refs > 0, "{at}: advert {i} is unnamed but not free");
                assert_eq!(
                    advert.refs, advert_refs[i],
                    "{at}: advert {i}'s count is not the entries naming it"
                );
            }
        }
        let occupancy = self.occupancy();
        assert_eq!(
            (
                occupancy.blocks_free,
                occupancy.slots_free,
                occupancy.adverts_free
            ),
            (free_blocks, free_slots, free_adverts),
            "{at}: free-list counts diverged from the lists"
        );
        assert_eq!(occupancy.slots_live, held, "{at}: live slots ≠ Σ lengths");
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
        pub(crate) fn closest_to(&self, target: Position) -> Option<NeighborInfo> {
            let mut best: Option<NeighborInfo> = None;
            for e in self.entries.values() {
                match best {
                    Some(b) if distance(b.position, target) <= distance(e.position, target) => {}
                    _ => best = Some(*e),
                }
            }
            best
        }

        pub(crate) fn greedy_next_hop(
            &self,
            target: Position,
            own_distance: f64,
        ) -> Option<NeighborInfo> {
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
            adverts_live: 1,
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
        arena.assert_books_balance(&[t], "after the spills");
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
        arena.assert_books_balance(&[a, b], "after the reuse");
    }

    /// A purged slot holds its free-list link in `advert`. Recycled, it
    /// must read back through every read path as exactly its new entry, and
    /// the slots still free must chain through their links — the last one
    /// through [`NIL`].
    #[test]
    fn recycled_slots_read_their_new_entries_never_a_link() {
        let mut arena = NeighborArena::new();
        let (mut a, mut b) = (ArenaTable::new(), ArenaTable::new());
        for id in 0..12 {
            obs(&mut arena, &mut a, id, f64::from(id), 0.0, 1.0);
            obs(&mut arena, &mut b, id, f64::from(id), 0.0, 9.0);
        }
        let mut lost = Vec::new();
        arena.purge_due(&mut a, SimTime::from_secs(2.0), &mut lost);
        assert_eq!(lost, (0..12).map(NodeId).collect::<Vec<_>>());
        arena.assert_books_balance(&[a, b], "after the purge");
        let mut naive = NaiveTable::new();
        let (at, life) = (SimTime::from_secs(2.5), SimDuration::from_secs(3.0));
        for id in [40, 7, 23, 15, 31] {
            let pos = Vec2::new(100.0 + f64::from(id), 50.0);
            let vel = Vec2::new(-f64::from(id), 1.0);
            assert!(arena.observe(&mut a, NodeId(id), pos, vel, at, life));
            naive.observe(NodeId(id), pos, vel, at, life);
        }
        assert_eq!(arena.payload.len(), 24, "the inserts must recycle slots");
        let occupancy = arena.occupancy();
        assert_eq!((occupancy.slots_live, occupancy.slots_free), (17, 7));
        arena.assert_books_balance(&[a, b], "after the reuse");

        let view = arena.view(&a);
        let expect: Vec<NeighborInfo> = naive.entries.values().copied().collect();
        assert_eq!(view.iter().collect::<Vec<_>>(), expect);
        assert!(view.iter().all(|n| n.expires_at == at + life));
        for id in 0..48 {
            let id = NodeId(id);
            assert_eq!(view.get(id), naive.entries.get(&id).copied(), "{id:?}");
        }
        for target in [Vec2::ZERO, Vec2::new(140.0, 50.0), Vec2::new(500.0, 0.0)] {
            assert_eq!(view.closest_to(target), naive.closest_to(target));
            for own in [1.0, 1_000.0] {
                assert_eq!(
                    view.greedy_next_hop(target, own),
                    naive.greedy_next_hop(target, own)
                );
            }
        }
        let hop = view.greedy_next_hop(Vec2::new(140.0, 50.0), 1_000.0);
        assert_eq!(hop.map(|n| n.id), Some(NodeId(40)));
        // The other table's entries never left their slots.
        let kept = arena.view(&b);
        assert!(kept
            .iter()
            .all(|n| n.position.x == f64::from(n.id.0) && n.expires_at == SimTime::from_secs(9.0)));

        arena.purge_due(&mut a, SimTime::from_secs(10.0), &mut lost);
        arena.purge_due(&mut b, SimTime::from_secs(10.0), &mut lost);
        let drained = arena.occupancy();
        assert_eq!((drained.slots_live, drained.slots_free), (0, 24));
        arena.assert_books_balance(&[a, b], "after draining both");
    }

    #[test]
    fn slab_bytes_count_both_slabs_live_and_free() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        assert_eq!(arena.occupancy().slab_bytes(), 0);
        for id in 0..(BLOCK_KEYS as u32 + 1) {
            obs(&mut arena, &mut t, id, 0.0, 0.0, 1.0);
        }
        // Two key blocks, and an 8-byte payload slot and a 48-byte advert
        // for each of the 33 senders: 2 × 264 + 33 × 56 = 2,376 bytes.
        let full = arena.occupancy();
        assert_eq!(full.blocks_live, 2);
        assert_eq!(full.slab_bytes(), 2 * 264 + (BLOCK_KEYS + 1) * (8 + 48));
        arena.purge_due(&mut t, SimTime::from_secs(5.0), &mut Vec::new());
        assert_eq!(arena.occupancy().slab_bytes(), full.slab_bytes());
    }

    /// One frame heard by many receivers is one advert, whatever the mix of
    /// inserts and refreshes; an empty batch mints none.
    #[test]
    fn one_batch_of_receptions_mints_one_advert() {
        let mut arena = NeighborArena::new();
        let mut tables = vec![ArenaTable::new(); 8];
        let (pos, vel) = (Vec2::new(10.0, 20.0), Vec2::new(-3.0, 0.5));
        let life = SimDuration::from_secs(3.0);
        arena.observe_batch(&mut tables, NodeId(99), pos, vel, life, &mut []);
        assert_eq!(arena.occupancy(), ArenaOccupancy::default());
        // Half the tables have heard the sender before, at other kinematics.
        for t in tables.iter_mut().step_by(2) {
            arena.observe(t, NodeId(99), Vec2::ZERO, Vec2::ZERO, SimTime::ZERO, life);
        }
        let at = SimTime::from_secs(1.0);
        let mut receptions: Vec<Reception> = (0..8).map(|w| Reception::new(w, at)).collect();
        arena.observe_batch(&mut tables, NodeId(99), pos, vel, life, &mut receptions);
        let gained = receptions.iter().filter(|r| r.gained()).count();
        assert_eq!(gained, 4);
        let occupancy = arena.occupancy();
        assert_eq!((occupancy.adverts_live, occupancy.adverts_free), (1, 1));
        assert_eq!(occupancy.slots_live, 8);
        arena.assert_books_balance(&tables, "after the batch");
        for t in &tables {
            let n = arena.get(t, NodeId(99)).unwrap();
            assert_eq!((n.position, n.velocity), (pos, vel));
        }
    }

    /// Receptions of one frame share an advert. A sender's next frame
    /// names its latest advert only if the kinematics are bit-identical
    /// (a parked car, an RSU) and the expiry lies within an offset of the
    /// advert's base: a beacon a second later does not, so it takes an
    /// advert of its own — recycled once the frame before last has let go
    /// — and one advert stays live. A repeat within the offset names the
    /// same advert; any other bits mint a fresh one, `-0.0` against `0.0`
    /// included.
    #[test]
    fn repeat_beacons_reuse_only_bit_identical_adverts() {
        let mut arena = NeighborArena::new();
        let mut tables = vec![ArenaTable::new(); 2];
        let life = SimDuration::from_secs(3.0);
        let pos = Vec2::new(5.0, 5.0);
        let live = |arena: &NeighborArena| arena.occupancy().adverts_live;
        let frame = |arena: &mut NeighborArena, tables: &mut [ArenaTable], at: f64| {
            let at = SimTime::from_secs(at);
            let mut receptions = [Reception::new(0, at), Reception::new(1, at)];
            arena.observe_batch(tables, NodeId(3), pos, Vec2::ZERO, life, &mut receptions);
        };
        frame(&mut arena, &mut tables, 0.0);
        assert_eq!(live(&arena), 1, "a frame's receptions share an advert");
        assert_eq!(arena.adverts.slab.len(), 1);
        frame(&mut arena, &mut tables, 1.0);
        assert_eq!(live(&arena), 1, "the frame before let go of its advert");
        assert_eq!(
            arena.adverts.slab.len(),
            2,
            "a beacon later is a new advert"
        );
        frame(&mut arena, &mut tables, 2.0);
        assert_eq!(live(&arena), 1);
        assert_eq!(arena.adverts.slab.len(), 2, "the next takes a recycled one");
        let at = SimTime::from_secs(2.0);
        arena.observe(&mut tables[0], NodeId(3), pos, Vec2::ZERO, at, life);
        assert_eq!(live(&arena), 1, "a bit-identical repeat is the same advert");
        assert_eq!(arena.adverts.slab.len(), 2, "and minted nothing");
        let minus_zero = Vec2::new(-0.0, 0.0);
        arena.observe(&mut tables[0], NodeId(3), pos, minus_zero, at, life);
        assert_eq!(live(&arena), 2, "-0.0 is not 0.0");
        let read = arena.get(&tables[0], NodeId(3)).unwrap().velocity;
        assert!(
            read.x.is_sign_negative(),
            "the entry reads back the bits it heard"
        );
        assert!(arena
            .get(&tables[1], NodeId(3))
            .unwrap()
            .velocity
            .x
            .is_sign_positive());
        arena.observe(&mut tables[1], NodeId(3), pos, minus_zero, at, life);
        assert_eq!(
            live(&arena),
            1,
            "the last entry naming the old advert let go"
        );
        for t in &tables {
            assert_eq!(arena.get(t, NodeId(3)).unwrap().expires_at, at + life);
        }
        arena.assert_books_balance(&tables, "after the repeats");
    }

    /// A purge that drains every table frees every advert, and the slab
    /// recycles them.
    #[test]
    fn draining_every_table_frees_every_advert() {
        let mut arena = NeighborArena::new();
        let mut tables = vec![ArenaTable::new(); 4];
        let life = SimDuration::from_secs(2.0);
        for id in 0..40u32 {
            let at = SimTime::from_secs(f64::from(id % 3));
            let x = f64::from(id);
            for (w, t) in tables.iter_mut().enumerate() {
                if (id as usize + w) % 3 != 0 {
                    arena.observe(t, NodeId(id % 10), Vec2::new(x, 0.0), Vec2::ZERO, at, life);
                }
            }
        }
        let grown = arena.occupancy();
        assert!(grown.adverts_live > 10, "{grown:?}");
        arena.assert_books_balance(&tables, "before the drain");
        let mut lost = Vec::new();
        for t in &mut tables {
            arena.purge_due(t, SimTime::from_secs(10.0), &mut lost);
        }
        let drained = arena.occupancy();
        assert_eq!(drained.adverts_live, 0, "{drained:?}");
        assert_eq!(drained.adverts_free, arena.adverts.slab.len());
        arena.assert_books_balance(&tables, "after the drain");
        for id in 0..5 {
            obs(&mut arena, &mut tables[0], id, 1.0, 11.0, 1.0);
        }
        assert_eq!(arena.adverts.slab.len(), drained.adverts_free, "recycled");
        arena.assert_books_balance(&tables, "after the reuse");
    }

    /// A sender's `latest` hint can outlive its advert: freed, the advert
    /// may be recycled for another sender with the very same kinematics,
    /// or still sit on the free list. Either way the hint must miss, or the
    /// sender's entries would name another sender's advert or a free one.
    #[test]
    fn a_recycled_latest_advert_is_never_matched() {
        let mut arena = NeighborArena::new();
        let (mut a, mut b) = (ArenaTable::new(), ArenaTable::new());
        let (pos, vel) = (Vec2::new(7.0, 7.0), Vec2::new(1.0, 0.0));
        let life = SimDuration::from_secs(1.0);
        arena.observe(&mut a, NodeId(5), pos, vel, SimTime::ZERO, life);
        let freed = arena.adverts.latest[5];
        arena.purge_due(&mut a, SimTime::from_secs(2.0), &mut Vec::new());
        assert_eq!(arena.occupancy().adverts_free, 1);
        // Node 7 advertises the same kinematics and takes the freed advert.
        let at = SimTime::from_secs(2.5);
        arena.observe(&mut b, NodeId(7), pos, vel, at, life);
        assert_eq!(
            arena.adverts.latest[7], freed,
            "the free advert is recycled"
        );
        assert_eq!(
            arena.adverts.latest[5], freed,
            "and node 5's hint still names it"
        );
        arena.observe(&mut a, NodeId(5), pos, vel, at, life);
        assert_ne!(arena.adverts.latest[5], freed);
        assert_eq!(arena.occupancy().adverts_live, 2);
        arena.assert_books_balance(&[a, b], "after node 5 re-advertised");
        // A hint whose advert is still free misses as well, even when the
        // free-list link in its `sender` reads as the hinted sender's id.
        let mut arena = NeighborArena::new();
        let (mut a, mut b) = (ArenaTable::new(), ArenaTable::new());
        arena.observe(&mut a, NodeId(9), pos, vel, SimTime::ZERO, life);
        arena.observe(&mut b, NodeId(0), pos, vel, SimTime::ZERO, life);
        arena.purge_due(&mut a, SimTime::from_secs(2.0), &mut Vec::new());
        arena.purge_due(&mut b, SimTime::from_secs(2.0), &mut Vec::new());
        assert_eq!(arena.adverts.latest[0], 1);
        assert_eq!(
            arena.adverts.slab[1].sender,
            NodeId(0),
            "linked to advert 0"
        );
        arena.observe(&mut a, NodeId(0), pos, vel, SimTime::from_secs(2.0), life);
        assert_eq!(arena.occupancy().adverts_live, 1);
        arena.assert_books_balance(&[a, b], "after a free hint");
    }

    /// Randomised churn (observes and lazy purges) drives the arena and the
    /// naive model in lockstep; observe results, loss observations,
    /// iteration order and the deadline bound must stay identical. Several
    /// handles share one arena so chain interleaving and free-list reuse are
    /// exercised the way the fleet driver exercises them. After every tick
    /// all three slabs' books must balance
    /// ([`NeighborArena::assert_books_balance`]).
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
                    let ea: Vec<NeighborInfo> = arena.iter(&handles[w]).collect();
                    let er: Vec<NeighborInfo> = refs[w].entries.values().copied().collect();
                    assert_eq!(ea, er, "case {case} tick {tick}: entries diverged");
                    assert_eq!(
                        handles[w].next_deadline(),
                        refs[w].next_deadline,
                        "case {case} tick {tick}: deadline bound diverged"
                    );
                }
                arena.assert_books_balance(&handles, &format!("case {case} tick {tick}"));
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
            assert_eq!(
                view.get(NodeId(id)),
                naive.entries.get(&NodeId(id)).copied()
            );
        }
        let seen: Vec<NeighborInfo> = view.iter().collect();
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

    /// How many blocks a table's chain has, and how many steps the walk to
    /// `id`'s block takes from its head (`None` for an empty table).
    fn chain_shape(
        arena: &NeighborArena,
        table: &ArenaTable,
        id: NodeId,
    ) -> (usize, Option<usize>) {
        let (mut blocks, mut walk) = (0, None);
        let mut cur = table.head;
        while cur != NIL {
            let blk = &arena.blocks[cur as usize];
            if walk.is_none() && (blk.keys[blk.len as usize - 1] >= id || blk.next == NIL) {
                walk = Some(blocks);
            }
            blocks += 1;
            cur = blk.next;
        }
        (blocks, walk)
    }

    /// What the batch property exercised, so that it can insist on it.
    #[derive(Debug, Default)]
    struct BatchCoverage {
        empty: usize,
        /// Walks of zero, one, and two or more steps.
        steps: [usize; 3],
        splits: usize,
        appends: usize,
        blocks_reused: usize,
        slots_reused: usize,
    }

    /// Twin arenas take the same seeded churn: one observes each frame's
    /// receivers through [`NeighborArena::observe_batch`], the other through
    /// [`NeighborArena::observe`] one receiver at a time, with lazy purges
    /// in between. After every frame the gained flags must agree, and after
    /// every tick the iteration, the deadline bounds and the loss lists; both
    /// arenas' books must balance.
    fn batch_observe_matches_sequential_observe(cases: usize) -> BatchCoverage {
        let mut rng = SimRng::new(0xba7c);
        let mut cover = BatchCoverage::default();
        for case in 0..cases {
            let mut batched = NeighborArena::new();
            let mut single = NeighborArena::new();
            let tables = 2 + rng.uniform_usize(7);
            let mut bt = vec![ArenaTable::new(); tables];
            let mut st = vec![ArenaTable::new(); tables];
            let lifetime = SimDuration::from_secs(1.0 + rng.uniform_range(0.0, 3.0));
            let universe = 4 + rng.uniform_usize(120);
            // Senders in ascending id order grow chains at their tails,
            // which is what makes a full tail block take an append.
            let ascending = rng.chance(0.3);
            let mut receptions = Vec::new();
            let (mut lost_b, mut lost_s) = (Vec::new(), Vec::new());
            for tick in 1..=20u32 {
                let tick_time = SimTime::from_secs(f64::from(tick));
                for frame in 0..rng.uniform_usize(3 * universe) {
                    let id = if ascending {
                        NodeId((frame % universe) as u32)
                    } else {
                        NodeId(rng.uniform_usize(universe) as u32)
                    };
                    let pos = Vec2::new(rng.uniform_range(0.0, 500.0), 0.0);
                    let vel = Vec2::new(rng.uniform_range(-20.0, 20.0), 0.0);
                    let mut hearers: Vec<usize> = (0..tables).collect();
                    rng.shuffle(&mut hearers);
                    hearers.truncate(rng.uniform_usize(tables + 1));
                    hearers.sort_unstable();
                    // A frame reaches each receiver once, but the batch
                    // holds up when a table comes twice.
                    if !hearers.is_empty() && rng.chance(0.05) {
                        hearers.push(hearers[rng.uniform_usize(hearers.len())]);
                    }
                    receptions.clear();
                    for &w in &hearers {
                        let at = f64::from(tick) - rng.uniform_range(0.0, 1.0);
                        receptions.push(Reception::new(w, SimTime::from_secs(at)));
                    }
                    let before = batched.occupancy();
                    batched.observe_batch(&mut bt, id, pos, vel, lifetime, &mut receptions);
                    let after = batched.occupancy();
                    cover.blocks_reused += usize::from(after.blocks_free < before.blocks_free);
                    cover.slots_reused += usize::from(after.slots_free < before.slots_free);
                    for r in &receptions {
                        let w = r.table as usize;
                        let (blocks, walk) = chain_shape(&single, &st[w], id);
                        match walk {
                            None => cover.empty += 1,
                            Some(steps) => cover.steps[steps.min(2)] += 1,
                        }
                        let gained = single.observe(&mut st[w], id, pos, vel, r.at, lifetime);
                        assert_eq!(
                            r.gained(),
                            gained,
                            "case {case} tick {tick}: gained diverged"
                        );
                        if walk.is_some() && chain_shape(&single, &st[w], id).0 > blocks {
                            let mut tail = st[w].head;
                            while single.blocks[tail as usize].next != NIL {
                                tail = single.blocks[tail as usize].next;
                            }
                            let tail = &single.blocks[tail as usize];
                            if tail.len == 1 && tail.keys[0] == id {
                                cover.appends += 1;
                            } else {
                                cover.splits += 1;
                            }
                        }
                    }
                }
                for w in 0..tables {
                    lost_b.clear();
                    lost_s.clear();
                    batched.purge_due(&mut bt[w], tick_time, &mut lost_b);
                    single.purge_due(&mut st[w], tick_time, &mut lost_s);
                    let at = format!("case {case} tick {tick} table {w}");
                    assert_eq!(lost_b, lost_s, "{at}: losses diverged");
                    let eb: Vec<NeighborInfo> = batched.iter(&bt[w]).collect();
                    let es: Vec<NeighborInfo> = single.iter(&st[w]).collect();
                    assert_eq!(eb, es, "{at}: entries diverged");
                    assert_eq!(
                        bt[w].next_deadline(),
                        st[w].next_deadline(),
                        "{at}: deadline"
                    );
                }
                batched.assert_books_balance(&bt, &format!("case {case} tick {tick}, batched"));
                single.assert_books_balance(&st, &format!("case {case} tick {tick}, single"));
            }
        }
        cover
    }

    #[test]
    fn batch_observe_matches_sequential_observe_under_randomized_churn() {
        let cover = batch_observe_matches_sequential_observe(30);
        assert!(cover.empty > 100, "{cover:?}");
        assert!(cover.steps.iter().all(|&n| n > 100), "{cover:?}");
        assert!(cover.splits > 20 && cover.appends > 20, "{cover:?}");
        assert!(
            cover.blocks_reused > 20 && cover.slots_reused > 100,
            "{cover:?}"
        );
    }

    /// Ten times the tier-1 cases; CI runs it in its release `--ignored`
    /// step beside the medium's and the grid's heavy properties.
    #[test]
    #[ignore = "heavy: ten times the tier-1 cases; run with --release -- --ignored"]
    fn batch_observe_matches_sequential_observe_heavy() {
        let cover = batch_observe_matches_sequential_observe(300);
        assert!(cover.steps.iter().all(|&n| n > 1_000), "{cover:?}");
        assert!(cover.splits > 200 && cover.appends > 200, "{cover:?}");
    }

    /// What the expiry property exercised, so that it can insist on it.
    #[derive(Debug, Default)]
    struct ExpiryCoverage {
        /// Batches of two or more receptions within one offset of their
        /// smallest expiry, and so on one advert.
        shared: usize,
        /// Batches wider than one offset, and so on two adverts or more.
        wide: usize,
        /// Batches with a negative expiry among them, and batches with
        /// expiries on both sides of 0.
        negative: usize,
        sign_changes: usize,
        /// Frames whose smallest expiry named the advert the sender's
        /// previous frame did, still live when the frame came.
        reused: usize,
        purged: usize,
    }

    /// The expiry an entry holds is its advert's base plus an offset, so it
    /// must read back as exactly the bits of `now + lifetime` it was
    /// observed with, whatever the clock's origin (0, large, negative, or
    /// crossing 0 mid-case), the lease, the sender's kinematics, and the
    /// spread of a frame's reception times: identical, a few ulps, or wider
    /// than one offset. The arena runs each frame through
    /// [`NeighborArena::observe_batch`] against a [`NaiveTable`] per
    /// receiver. After every frame its receivers must name one advert
    /// exactly when the frame's expiries fit one offset of the smallest;
    /// after every tick every `get` and `iter` expiry, every loss and every
    /// deadline bound must match the model bit for bit, and the books must
    /// balance.
    fn expiries_rebuild_exactly(cases: usize) -> ExpiryCoverage {
        let mut rng = SimRng::new(0xe8b1);
        let mut cover = ExpiryCoverage::default();
        for case in 0..cases {
            let lifetime = if rng.chance(0.2) {
                SimDuration::from_secs(rng.uniform_range(1e-9, 1e-3))
            } else {
                SimDuration::from_secs(rng.uniform_range(0.5, 5.0))
            };
            let origin = match rng.uniform_usize(5) {
                0 => 0.0,
                1 => rng.uniform_range(1e5, 1e7),
                2 => rng.uniform_range(1e9, 4e9),
                3 => -rng.uniform_range(30.0, 1e4),
                // Expiries cross 0 about halfway through the case.
                _ => -10.0 - lifetime.as_secs(),
            };
            let tables = 2 + rng.uniform_usize(5);
            let universe = 2 + rng.uniform_usize(12);
            let parked = rng.chance(0.5);
            let mut arena = NeighborArena::new();
            let mut handles = vec![ArenaTable::new(); tables];
            let mut refs: Vec<NaiveTable> = (0..tables).map(|_| NaiveTable::new()).collect();
            let mut previous = vec![NIL; universe];
            let (mut lost_a, mut lost_r) = (Vec::new(), Vec::new());
            let mut receptions = Vec::new();
            for tick in 1..=20u32 {
                let tick_time = SimTime::from_secs(origin + f64::from(tick));
                for _ in 0..rng.uniform_usize(2 * universe) {
                    let sender = rng.uniform_usize(universe);
                    let id = NodeId(sender as u32);
                    let (pos, vel) = if parked {
                        (Vec2::new(f64::from(id.0), 1.0), Vec2::ZERO)
                    } else {
                        let x = rng.uniform_range(0.0, 500.0);
                        (
                            Vec2::new(x, 0.0),
                            Vec2::new(rng.uniform_range(-20.0, 20.0), 0.0),
                        )
                    };
                    let sent = origin + f64::from(tick) - rng.uniform_range(0.0, 1.0);
                    let spread = rng.uniform_usize(4);
                    let mut hearers: Vec<usize> = (0..tables).collect();
                    rng.shuffle(&mut hearers);
                    hearers.truncate(1 + rng.uniform_usize(tables));
                    receptions.clear();
                    for &w in &hearers {
                        let at = match spread {
                            0 => sent,
                            1 => f64::from_bits(sent.to_bits() + rng.uniform_usize(1_000) as u64),
                            2 => sent + rng.uniform_range(0.0, 1e-3),
                            _ => sent + rng.uniform_range(0.0, 2.0),
                        };
                        receptions.push(Reception::new(w, SimTime::from_secs(at)));
                    }
                    let before = previous[sender];
                    let was_live = before != NIL && arena.adverts.slab[before as usize].refs > 0;
                    arena.observe_batch(&mut handles, id, pos, vel, lifetime, &mut receptions);
                    let mut expiries: Vec<u64> = Vec::new();
                    let mut named: Vec<u32> = Vec::new();
                    for r in &receptions {
                        let w = r.table as usize;
                        let gained = refs[w].observe(id, pos, vel, r.at, lifetime);
                        assert_eq!(r.gained(), gained, "case {case} tick {tick}: gained");
                        expiries.push(expiry_bits(r.at + lifetime));
                        let slot = arena.slot_of(&handles[w], id).expect("just observed");
                        named.push(arena.payload[slot as usize].advert);
                    }
                    let least = *expiries.iter().min().expect("one reception or more");
                    let fits = expiries.iter().all(|&e| offset(least, e).is_some());
                    let least_named = named[expiries.iter().position(|&e| e == least).unwrap()];
                    named.sort_unstable();
                    named.dedup();
                    assert_eq!(
                        named.len() == 1,
                        fits,
                        "case {case} tick {tick}: {} adverts for a frame that fits: {fits}",
                        named.len()
                    );
                    let signs = expiries.iter().filter(|&&e| e >> 63 == 1).count();
                    cover.negative += usize::from(signs > 0);
                    cover.sign_changes += usize::from(signs > 0 && signs < expiries.len());
                    if receptions.len() > 1 {
                        cover.shared += usize::from(fits);
                        cover.wide += usize::from(!fits);
                    }
                    cover.reused += usize::from(was_live && least_named == before);
                    previous[sender] = least_named;
                }
                for w in 0..tables {
                    lost_a.clear();
                    lost_r.clear();
                    arena.purge_due(&mut handles[w], tick_time, &mut lost_a);
                    refs[w].purge_due(tick_time, &mut lost_r);
                    let at = format!("case {case} tick {tick} table {w}");
                    assert_eq!(lost_a, lost_r, "{at}: losses diverged");
                    cover.purged += lost_a.len();
                    let got: Vec<(NodeId, u64)> = arena
                        .iter(&handles[w])
                        .map(|n| (n.id, expiry_bits(n.expires_at)))
                        .collect();
                    let want: Vec<(NodeId, u64)> = refs[w]
                        .entries
                        .values()
                        .map(|n| (n.id, expiry_bits(n.expires_at)))
                        .collect();
                    assert_eq!(got, want, "{at}: iterated expiries diverged");
                    for (id, n) in &refs[w].entries {
                        let read = arena.get(&handles[w], *id).expect("a live neighbour");
                        assert_eq!(
                            expiry_bits(read.expires_at),
                            expiry_bits(n.expires_at),
                            "{at}: get"
                        );
                    }
                    assert_eq!(
                        expiry_bits(handles[w].next_deadline()),
                        expiry_bits(refs[w].next_deadline),
                        "{at}: deadline bound diverged"
                    );
                }
                arena.assert_books_balance(&handles, &format!("case {case} tick {tick}"));
            }
        }
        cover
    }

    #[test]
    fn expiries_rebuild_exactly_from_advert_bases() {
        let cover = expiries_rebuild_exactly(40);
        assert!(cover.shared > 1_000 && cover.wide > 500, "{cover:?}");
        assert!(cover.negative > 500 && cover.sign_changes > 5, "{cover:?}");
        assert!(cover.reused > 200 && cover.purged > 1_000, "{cover:?}");
    }

    /// Ten times the tier-1 cases, in CI's release `--ignored` step.
    #[test]
    #[ignore = "heavy: ten times the tier-1 cases; run with --release -- --ignored"]
    fn expiries_rebuild_exactly_from_advert_bases_heavy() {
        let cover = expiries_rebuild_exactly(400);
        assert!(cover.shared > 10_000 && cover.wide > 5_000, "{cover:?}");
        assert!(
            cover.negative > 5_000 && cover.sign_changes > 50,
            "{cover:?}"
        );
        assert!(cover.reused > 2_000 && cover.purged > 10_000, "{cover:?}");
    }
}
