//! The engine's self-metrics as one record ([`EngineCounters`]): exact
//! counts of how the scheduler, neighbour arena, grid, medium and run loop
//! did a run's work, which can move while every report byte stays the same.

/// Declares [`EngineCounters`] and its [`EngineCounters::FIELDS`] table from
/// one list, so each counter's name is written once.
macro_rules! engine_counters {
    ($($(#[doc = $doc:literal])* $field:ident,)*) => {
        /// Every engine self-metric of a run, read off it by
        /// [`Simulation::counters`](crate::Simulation::counters).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct EngineCounters {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl EngineCounters {
            /// Every counter as a `(name, getter)` row, in declaration order:
            /// the one list a counter is compared or printed by.
            pub const FIELDS: &'static [(&'static str, fn(&EngineCounters) -> u64)] =
                &[$((stringify!($field), |c| c.$field)),*];
        }
    };
}

engine_counters! {
    /// Scheduler events processed: each reception of a frame is one.
    events,
    /// Timers spliced into the timer wheel's already-sorted slot.
    wheel_splices,
    /// Neighbour entries the nodes' tables hold between them.
    entries_held,
    /// The neighbour arena's key blocks linked into some node's chain.
    blocks_live,
    /// Key blocks on the arena's free list.
    blocks_free,
    /// Payload slots holding a live neighbour entry.
    slots_live,
    /// Payload slots on the arena's free list.
    slots_free,
    /// Adverts named by at least one live entry.
    adverts_live,
    /// Adverts on the arena's free list.
    adverts_free,
    /// Bytes the arena's three slabs have grown into, live and free alike.
    slab_bytes,
    /// Vertex lists the spatial grid holds, emptied ones included.
    grid_lists,
    /// Ids across all the grid's vertex lists.
    grid_entries,
    /// The longest vertex list: the most a grid query can scan.
    grid_longest,
    /// Frames through the medium's delivery pipeline.
    medium_frames,
    /// Of those, frames that continued a burst instead of taking a snapshot.
    continued,
    /// Receivers of fresh-snapshot frames that reached the collision draw.
    receivers,
    /// Of those, receivers of frames whose survival bracket applied.
    bracketed,
    /// Of those, receivers whose draw the bracket decided on its own.
    decided,
    /// Receivers whose contention window was counted entry by entry.
    scanned,
    /// Contention-window snapshots taken fresh from the recent index.
    snapshots,
    /// Distinct entries those snapshots collected.
    window_entries,
    /// Transmissions those entries stand for, every copy counted.
    copies,
    /// Frames whose first reception fired in the run loop.
    frames,
    /// Of those, HELLO frames nothing interleaved with: delivered in one pass.
    one_pass,
    /// Of those, frames sorted into key order and delivered hop by hop.
    sorted,
    /// The most frames ever in flight at once: the frame slab's length.
    slab_peak,
}

impl EngineCounters {
    /// Checks the laws every run's counters obey, on a run of `nodes` nodes;
    /// the error names the first law broken.
    pub fn check_books(&self, nodes: usize) -> Result<(), String> {
        let law = if self.slots_live != self.entries_held {
            "one live payload slot per entry held"
        } else if self.grid_entries != 4 * nodes as u64 {
            "four grid entries per node"
        } else if self.one_pass + self.sorted != self.frames {
            "every frame begun went one way or the other"
        } else if self.copies < self.window_entries {
            "a window entry stands for a copy or more"
        } else if self.decided > self.bracketed || self.bracketed > self.receivers {
            "the bracket decides only receivers it applied to, and those drew"
        } else if self.continued > self.medium_frames {
            "only a medium frame continues a burst"
        } else {
            return Ok(());
        };
        Err(format!("books broken on {nodes} nodes: {law}: {self:?}"))
    }
}
