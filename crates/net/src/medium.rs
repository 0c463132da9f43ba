//! The shared wireless medium.
//!
//! [`Medium::transmit`] is the single entry point through which every frame in
//! the simulation travels. Given the sender, its position, the packet and the
//! current positions of all nodes, it decides who receives a copy and when,
//! applying the propagation model, the contention/collision model and — for
//! unicast frames — the intended-receiver filter.

// lint: hot-path

use crate::channel::PropagationModel;
use crate::grid::{cell_of, CellMap};
use crate::mac::MacParams;
use crate::packet::Packet;
use std::collections::VecDeque;
use vanet_mobility::geometry::{distance, within, WithinFilter};
use vanet_mobility::Position;
use vanet_sim::{Counter, NodeId, SimRng, SimTime};

/// Configuration of the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// MAC parameters.
    pub mac: MacParams,
    /// Whether unicast frames are also overheard by other nodes in range
    /// (promiscuous mode, used by implicit-acknowledgement schemes such as
    /// Biswas et al.).
    pub promiscuous: bool,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            mac: MacParams::default(),
            promiscuous: true,
        }
    }
}

/// One frame delivery produced by [`Medium::transmit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The node receiving the frame.
    pub receiver: NodeId,
    /// When the frame finishes arriving at the receiver.
    pub arrival: SimTime,
    /// Whether this receiver was the intended link-layer destination
    /// (`false` for frames merely overheard in promiscuous mode).
    pub intended: bool,
}

/// Aggregate statistics collected by the medium.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MediumStats {
    /// Frames handed to the medium for transmission.
    pub transmissions: Counter,
    /// Total frame copies delivered to receivers.
    pub deliveries: Counter,
    /// Frame copies lost to propagation (out of range / fading).
    pub propagation_losses: Counter,
    /// Frame copies lost to collisions.
    pub collision_losses: Counter,
    /// Frame copies lost to an active fault overlay (jamming / burst loss).
    pub fault_losses: Counter,
    /// Total bytes handed to the medium (control + data).
    pub bytes_transmitted: Counter,
}

impl MediumStats {
    /// Counter-wise difference `self − earlier` (saturating at zero): the
    /// medium activity between two snapshots. Telemetry taps snapshot the
    /// stats at each window boundary and report the per-window delta as the
    /// channel-load record — frames on air, deliveries, losses by cause and
    /// bytes, all attributed to the window they happened in.
    #[must_use]
    pub fn since(&self, earlier: &MediumStats) -> MediumStats {
        let delta = |now: Counter, before: Counter| {
            let mut c = Counter::new();
            c.add(now.value().saturating_sub(before.value()));
            c
        };
        MediumStats {
            transmissions: delta(self.transmissions, earlier.transmissions),
            deliveries: delta(self.deliveries, earlier.deliveries),
            propagation_losses: delta(self.propagation_losses, earlier.propagation_losses),
            collision_losses: delta(self.collision_losses, earlier.collision_losses),
            fault_losses: delta(self.fault_losses, earlier.fault_losses),
            bytes_transmitted: delta(self.bytes_transmitted, earlier.bytes_transmitted),
        }
    }

    /// Fraction of candidate receptions lost to collisions.
    #[must_use]
    pub fn collision_rate(&self) -> f64 {
        let attempts = self.deliveries.value()
            + self.collision_losses.value()
            + self.propagation_losses.value();
        if attempts == 0 {
            0.0
        } else {
            self.collision_losses.value() as f64 / attempts as f64
        }
    }
}

/// How the medium reached its collision decisions
/// ([`Medium::interference_counts`]): an engine self-metric for the burst
/// path and the survival bracket. Counts accumulate over the medium's
/// lifetime; [`Medium::reset_stats`] leaves them alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterferenceCounts {
    /// Frames through the delivery pipeline.
    pub frames: u64,
    /// Of those, frames that continued a burst: their interference counts
    /// were carried from the previous frame, not taken from a fresh
    /// snapshot. `continued / frames` is the burst-continuation hit rate.
    pub continued: u64,
    /// Receivers of fresh-snapshot frames that reached the collision draw.
    pub receivers: u64,
    /// Of those, receivers of frames whose survival bracket applied.
    pub bracketed: u64,
    /// Of those, receivers whose draw the bracket decided on its own.
    pub decided: u64,
    /// Receivers of fresh-snapshot frames whose contention window was
    /// counted entry by entry: the bracket's fallbacks plus every receiver
    /// of a frame it did not apply to (a frame alone in its window needs no
    /// count).
    pub scanned: u64,
}

/// A rectangular extra-loss overlay installed by the fault subsystem: while
/// active, receivers standing inside `min..=max` lose each frame copy with
/// probability `loss` (after propagation and collision have been resolved).
/// Zones are pre-registered at build time and merely toggled by fault events,
/// so the steady-state transmit path never allocates for them; when no zone
/// is active the delivery pipeline pays a single integer compare.
#[derive(Debug, Clone, Copy)]
struct FaultZone {
    min: Position,
    max: Position,
    loss: f64,
    active: bool,
}

impl FaultZone {
    #[inline]
    fn covers(&self, pos: Position) -> bool {
        pos.x >= self.min.x && pos.x <= self.max.x && pos.y >= self.min.y && pos.y <= self.max.y
    }
}

/// Number of `positions` within `range` of `center` (the interference count
/// against a per-transmission snapshot of the contention window). Uses the
/// banded squared-distance count — decision-identical to
/// `distance(p, center) <= range` per entry, without the `hypot` and without
/// a branch per entry.
fn count_within(positions: &[Position], center: Position, range: f64) -> usize {
    WithinFilter::new(range).count(positions, center)
}

/// A coarse uniform-grid index over recent transmissions.
///
/// The interference pipeline needs "transmissions inside the contention
/// window near this point". A flat deque of every recent transmission made
/// that an O(fleet × rate) scan *per frame* — at 100k beaconing vehicles the
/// window holds thousands of entries and the scan dwarfed the rest of the
/// transmit path. Bucketing by position bounds each query to the 3×3 cells
/// around the point. Per-cell deques stay time-ordered (simulation time is
/// monotone), so pruning is a pop-front loop; queries re-apply the exact
/// time-window and banded-distance predicates, so the surviving set — and
/// therefore every interference *count* derived from it — is identical to
/// the flat scan's. Only counts ever leave this index, so the cell-by-cell
/// visit order is unobservable.
#[derive(Debug, Default)]
struct RecentIndex {
    cell_m: f64,
    // lint: allow(D1) — cells are read only by keyed 3×3-block lookup and
    // every query re-applies the exact time-window and distance predicates,
    // so only counts (and predicate-filtered positions, gathered in the
    // deterministic dx/dy block order) ever leave the map; pinned by
    // `recent_index_counts_match_a_flat_scan`.
    cells: CellMap<VecDeque<(SimTime, Position)>>,
}

impl RecentIndex {
    /// (Re)initialises the index for `cell_m`-sized cells. Queries are valid
    /// for any radius up to `cell_m`.
    fn reset(&mut self, cell_m: f64) {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "recent-transmission cell size must be positive and finite"
        );
        self.cell_m = cell_m;
        self.cells.clear();
    }

    /// Records a transmission and prunes that cell's entries older than
    /// `keep` (entries arrive in time order, so pruning is front-pops).
    fn push(&mut self, now: SimTime, pos: Position, keep: f64) {
        let cell = self.cells.entry(cell_of(self.cell_m, pos)).or_default();
        while let Some((t, _)) = cell.front() {
            if now.saturating_since(*t).as_secs() > keep {
                cell.pop_front();
            } else {
                break;
            }
        }
        cell.push_back((now, pos));
    }

    /// Appends to `out` the positions of transmissions within `window`
    /// seconds before `now` and within `radius` of `center`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size (the 3×3 block would miss
    /// entries further than one cell away).
    fn collect_window(
        &self,
        now: SimTime,
        center: Position,
        window: f64,
        radius: f64,
        out: &mut Vec<Position>,
    ) {
        assert!(
            radius <= self.cell_m,
            "query radius {radius} exceeds recent-index cell size {}",
            self.cell_m
        );
        let filter = WithinFilter::new(radius);
        let (cx, cy) = cell_of(self.cell_m, center);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(cell) = self.cells.get(&(cx + dx, cy + dy)) {
                    // Entries are time-ordered: skip the stale prefix, then
                    // everything from the first in-window entry onward is in
                    // the window.
                    for &(t, p) in cell.iter().rev() {
                        if now.saturating_since(t).as_secs() > window {
                            break;
                        }
                        if filter.check(p, center) {
                            out.push(p);
                        }
                    }
                }
            }
        }
    }
}

/// What the snapshot, the candidate list and the interference counts were
/// computed for: one instant, one sender position, one state of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BurstKey {
    now: SimTime,
    sender_pos: Position,
    grid_generation: u64,
}

/// The state a same-instant, same-position run of frames (a summary-vector
/// answer is tens of them) carries from one frame to the next. Between two
/// such frames with nothing else booked the contention window gains exactly
/// the earlier frame, at the sender's position, so every interference count
/// — an integer — advances by one where the sender is within interference
/// range and is otherwise unchanged: no rescan, same counts, same RNG draws.
#[derive(Debug, Default)]
struct Burst {
    /// `None` when the next frame must start from a fresh snapshot.
    key: Option<BurstKey>,
    /// Frames in the run so far, the current one included.
    frames: u32,
    /// Snapshot entries within interference range of the sender (the frame
    /// itself included).
    sender_count: usize,
    /// Per candidate, from the second frame on: `(frame, count)` — the
    /// snapshot entries within interference range of that candidate as of
    /// `frame`; frame 0 marks a candidate not yet counted in this run.
    receiver_counts: Vec<(u32, usize)>,
}

/// `MacParams::survival_probability(k)` by interferer count `k`, computed
/// once per count: in a broadcast storm every receiver of every frame asks
/// for `(1 − p)^k` with `k` in the dozens, and a `powi` per receiver is a
/// measurable slice of the delivery loop. Entries are that same call's
/// results — identical bits — and the MAC parameters are fixed when the
/// medium is built, so they cannot go stale. The table grows to the largest
/// count seen (never beyond the snapshot's length) and then stands.
#[derive(Debug, Default)]
struct SurvivalTable {
    by_interferers: Vec<f64>,
}

impl SurvivalTable {
    fn get(&mut self, mac: &MacParams, interferers: usize) -> f64 {
        while self.by_interferers.len() <= interferers {
            let next = mac.survival_probability(self.by_interferers.len());
            self.by_interferers.push(next);
        }
        self.by_interferers[interferers]
    }

    /// The least and the greatest entry for `lo..=hi` interferers, filling
    /// the table that far. `powi` is not assumed monotone: both come from a
    /// scan of the entries.
    fn bounds(&mut self, mac: &MacParams, lo: usize, hi: usize) -> (f64, f64) {
        self.get(mac, hi);
        self.by_interferers[lo..=hi]
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), &q| {
                (min.min(q), max.max(q))
            })
    }
}

/// The shared broadcast medium connecting all nodes.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    propagation: Box<dyn PropagationModel + Send>,
    /// Recent transmissions, spatially bucketed, from which each frame's
    /// interference snapshot is taken.
    recent: RecentIndex,
    /// Positions of the transmissions inside the contention window at the
    /// time of the current frame — snapshotted once per transmission so the
    /// per-receiver interference count is a scan of the (small) in-window
    /// set instead of re-filtering the whole `recent` deque per candidate.
    snapshot: Vec<Position>,
    /// The last spatial-grid candidate query, kept so the next frame of a
    /// burst reuses it.
    candidates: Vec<(NodeId, Position)>,
    /// Scratch buffer for the grid query's run merge.
    candidate_scratch: Vec<(NodeId, Position)>,
    /// Pre-registered fault overlay rectangles, toggled by fault events.
    fault_zones: Vec<FaultZone>,
    /// How many fault zones are currently active — the transmit path's only
    /// cost when faults are disabled is comparing this against zero.
    active_fault_zones: usize,
    burst: Burst,
    survival: SurvivalTable,
    stats: MediumStats,
    interference: InterferenceCounts,
}

impl Medium {
    /// Creates a medium with the given configuration and propagation model.
    ///
    /// # Panics
    ///
    /// Panics if the MAC's collision probability is not in `[0, 1]` (NaN
    /// included): the survival probability `(1 − p)^k` would not be one.
    #[must_use]
    pub fn new(config: MediumConfig, propagation: Box<dyn PropagationModel + Send>) -> Self {
        let p = config.mac.collision_probability;
        assert!(
            (0.0..=1.0).contains(&p),
            "collision probability must be in [0, 1], got {p}"
        );
        let mut recent = RecentIndex::default();
        recent.reset(Self::relevant_range(propagation.as_ref()));
        Medium {
            config,
            propagation,
            recent,
            // lint: allow(P1) — construction, once per simulation; these
            // buffers grow to steady-state size and are reused thereafter.
            snapshot: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            candidates: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            candidate_scratch: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            fault_zones: Vec::new(),
            active_fault_zones: 0,
            burst: Burst::default(),
            survival: SurvivalTable::default(),
            stats: MediumStats::default(),
            interference: InterferenceCounts::default(),
        }
    }

    /// Registers a rectangular fault-overlay zone (inactive until toggled)
    /// and returns its slot for [`Medium::set_fault_zone_active`]. Zones are
    /// registered once at simulation build time, so the delivery pipeline
    /// iterates a pre-sized, allocation-free vector.
    pub fn add_fault_zone(&mut self, min: Position, max: Position, loss: f64) -> usize {
        self.fault_zones.push(FaultZone {
            min,
            max,
            loss,
            active: false,
        });
        self.fault_zones.len() - 1
    }

    /// Activates or deactivates a registered fault zone.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not returned by [`Medium::add_fault_zone`].
    pub fn set_fault_zone_active(&mut self, slot: usize, active: bool) {
        let zone = &mut self.fault_zones[slot];
        if zone.active != active {
            zone.active = active;
            if active {
                self.active_fault_zones += 1;
            } else {
                self.active_fault_zones -= 1;
            }
        }
    }

    /// Number of currently active fault zones.
    #[must_use]
    pub fn active_fault_zone_count(&self) -> usize {
        self.active_fault_zones
    }

    /// Pre-sizes the per-transmission scratch buffers — the grid query's
    /// result and merge scratch, the contention-window snapshot, the burst
    /// counts — for `expected_candidates` entries each.
    /// Purely a capacity hint — the buffers grow on demand regardless — but
    /// reserving up front means a fleet-scale run's first transmissions don't
    /// pay a reallocation ramp while the caches are already cold.
    pub fn reserve_for_neighborhood(&mut self, expected_candidates: usize) {
        self.candidates.reserve(expected_candidates);
        self.candidate_scratch.reserve(expected_candidates);
        self.snapshot.reserve(expected_candidates);
        self.burst.receiver_counts.reserve(expected_candidates);
    }

    /// The largest distance at which a recent transmission can matter to any
    /// receiver of a frame: every receiver lies within `max_range` of the
    /// sender, interference reaches `2 × nominal_range`, and the extra metre
    /// of slack dwarfs any floating-point rounding. Doubles as the recent-
    /// index cell size, so a 3×3-cell query covers the snapshot radius.
    fn relevant_range(propagation: &(dyn PropagationModel + Send)) -> f64 {
        propagation.max_range() + propagation.nominal_range() * 2.0 + 1.0
    }

    /// The propagation model in use.
    #[must_use]
    pub fn propagation(&self) -> &(dyn PropagationModel + Send) {
        self.propagation.as_ref()
    }

    /// The medium configuration.
    #[must_use]
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MediumStats {
        &self.stats
    }

    /// How the collision decisions were reached so far: burst frames, and
    /// the receivers the survival bracket decided without a count.
    #[must_use]
    pub fn interference_counts(&self) -> InterferenceCounts {
        self.interference
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MediumStats::default();
    }

    /// Transmits `packet` from `sender` at `sender_pos` to every node in
    /// `nodes` (id, position) pairs, excluding the sender itself. Returns the
    /// successful deliveries; losses are recorded in [`MediumStats`].
    pub fn transmit(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        nodes: &[(NodeId, Position)],
        rng: &mut SimRng,
    ) -> Vec<Delivery> {
        // lint: allow(P1) — convenience form; the engine's warm path owns a
        // delivery buffer and calls the `_into` variants.
        let mut deliveries = Vec::new();
        // `nodes` is the caller's: nothing computed for it carries over.
        self.begin_transmission(now, sender_pos, packet, None);
        self.deliver(now, sender, sender_pos, packet, nodes, rng, &mut deliveries);
        deliveries
    }

    /// Like [`Medium::transmit`], but takes the candidate receivers from a
    /// [`SpatialGrid`](crate::SpatialGrid) instead of scanning every node, so
    /// the cost scales with local density rather than total fleet size.
    /// Clears `out` and fills it with this frame's deliveries: a driver that
    /// owns `out` and reuses it across calls pays no per-transmission heap
    /// allocation once the buffer has warmed up.
    ///
    /// The grid must be built with a cell size of at least
    /// [`PropagationModel::max_range`]. Its query returns exactly the nodes
    /// in range, in ascending node-id order — the nodes `transmit` keeps and
    /// the order it sees them in when its `nodes` slice is id-sorted — so
    /// both paths draw identically from `rng` and produce identical
    /// deliveries (pinned by `indexed_transmit_matches_the_exhaustive_scan`).
    ///
    /// Calls that repeat `now` and `sender_pos` back to back, with no
    /// [`SpatialGrid::update`](crate::SpatialGrid::update) in between, are
    /// one burst: the later frames reuse the first one's candidate list and
    /// advance its interference counts instead of recomputing them, with
    /// identical results. One medium is driven against one grid; the grid
    /// is told apart by its update count only, so do not swap another one
    /// in between two frames of the same instant.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_indexed_into(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        grid: &crate::SpatialGrid,
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        out.clear();
        let key = BurstKey {
            now,
            sender_pos,
            grid_generation: grid.generation(),
        };
        let continued = self.begin_transmission(now, sender_pos, packet, Some(key));
        let mut candidates = std::mem::take(&mut self.candidates);
        if !continued {
            grid.candidates_within_scratch(
                sender_pos,
                self.propagation.max_range(),
                &mut candidates,
                &mut self.candidate_scratch,
            );
        }
        self.deliver(now, sender, sender_pos, packet, &candidates, rng, out);
        self.candidates = candidates;
    }

    /// Forgets the burst state, so the next frame starts from a fresh
    /// snapshot whatever its key: the reference the burst path is pinned
    /// against.
    #[cfg(test)]
    fn forget_burst(&mut self) {
        self.burst.key = None;
    }

    /// Books the transmission into the contention window and the statistics,
    /// and snapshots the in-window transmission positions (including this
    /// frame's own) for the interference counts of the delivery pipeline.
    ///
    /// The snapshot keeps only entries that could possibly interfere at this
    /// frame's sender or any of its receivers: every receiver lies within
    /// `max_range` of the sender, so by the triangle inequality an entry
    /// further than `max_range + interference_range` from the sender is out
    /// of interference range of all of them (see [`Medium::relevant_range`]).
    /// The spatially-bucketed recent index serves that query from the 3×3
    /// cells around the sender instead of a scan of every in-window
    /// transmission in the fleet; the predicates are unchanged, so the
    /// snapshot multiset — and every count derived from it — is identical.
    ///
    /// Returns whether this frame continues a burst: `key` equals the
    /// previous frame's, so no other transmission was booked in between
    /// (each one overwrites the key), time has not advanced and the grid has
    /// not changed. The window is then the previous snapshot plus this
    /// frame, and the previous candidate list still stands.
    fn begin_transmission(
        &mut self,
        now: SimTime,
        sender_pos: Position,
        packet: &Packet,
        key: Option<BurstKey>,
    ) -> bool {
        let keep = self.config.mac.contention_window_s * 4.0;
        self.recent.push(now, sender_pos, keep);
        self.stats.transmissions.incr();
        self.stats.bytes_transmitted.add(packet.size_bytes() as u64);
        if key.is_some() && key == self.burst.key {
            self.snapshot.push(sender_pos);
            self.burst.frames += 1;
            return true;
        }
        self.burst.key = key;
        self.burst.frames = 1;
        let window = self.config.mac.contention_window_s;
        let relevant = Self::relevant_range(self.propagation.as_ref());
        self.snapshot.clear();
        self.recent
            .collect_window(now, sender_pos, window, relevant, &mut self.snapshot);
        false
    }

    /// Runs the propagation / contention / collision pipeline over the
    /// candidate receivers, in slice order, appending to `out`.
    ///
    /// A receiver's interference count only feeds one `chance` draw on
    /// `(1 − p)^k`, so on a fresh frame whose counts all lie inside a
    /// bracket of non-degenerate survival probabilities
    /// ([`Medium::survival_bracket`]) the uniform is drawn first and the
    /// window is counted only when it lands between the bracket's ends —
    /// the same draw, the same comparison, the same outcome.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        nodes: &[(NodeId, Position)],
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        let interference_range = self.propagation.nominal_range() * 2.0;
        // The snapshot always contains this frame's own entry; when it is
        // the only one, every interference count below is 0 after the
        // self-discount, so the scans can be skipped outright (the RNG draws
        // they feed still happen, so outcomes are identical).
        let snapshot_trivial = self.snapshot.len() <= 1;
        // 1 for every frame that starts from a fresh snapshot; from 2 on the
        // counts are carried instead of rescanned (see `Burst`).
        let frame = self.burst.frames;
        if frame == 2 {
            self.burst.receiver_counts.clear();
            self.burst.receiver_counts.resize(nodes.len(), (0, 0));
        }
        self.burst.sender_count = if frame > 1 {
            // The sender is within any range of itself.
            self.burst.sender_count + 1
        } else if snapshot_trivial {
            1
        } else {
            count_within(&self.snapshot, sender_pos, interference_range)
        };
        // `begin_transmission` has already pushed this frame into the window
        // (and the snapshot), so discount it when counting contenders.
        let contenders = self.burst.sender_count.saturating_sub(1);
        let backoff = self.config.mac.sample_backoff(contenders, rng);
        let tx_delay = self.config.mac.transmission_delay(packet.size_bytes());
        let processing = vanet_sim::SimDuration::from_secs(self.config.mac.processing_delay_s);
        let range_filter = WithinFilter::new(self.propagation.max_range());
        // On a channel certain of reception within `max_range`,
        // `sample_reception` returns true without a draw for every candidate
        // that passes `range_filter`: it is not called, and the distance is
        // computed only for delivered copies.
        let certain = self.propagation.certain_within_max_range();
        let bracket = if frame == 1 && !snapshot_trivial {
            self.survival_bracket(sender_pos)
        } else {
            None
        };
        let (mut reached, mut decided, mut scanned) = (0, 0, 0);

        for (at, &(node, pos)) in nodes.iter().enumerate() {
            if node == sender {
                continue;
            }
            // The grid query has already applied this test, so on the
            // indexed path every candidate passes; the slice form hands in
            // arbitrary nodes and relies on it. A node that fails it has
            // touched no counter and no RNG draw.
            if !range_filter.check(sender_pos, pos) {
                continue;
            }
            // Unicast frames are only *delivered* to the intended next hop
            // unless promiscuous overhearing is enabled.
            let intended = match packet.next_hop {
                None => true,
                Some(h) => h == node,
            };
            if !intended && !self.config.promiscuous {
                continue;
            }
            let sampled_distance = (!certain).then(|| distance(sender_pos, pos));
            if let Some(d) = sampled_distance {
                if !self.propagation.sample_reception(d, rng) {
                    self.stats.propagation_losses.incr();
                    continue;
                }
            }
            reached += 1;
            let survives = if let Some((q_min, q_max)) = bracket {
                // Every count in range makes `chance` draw exactly once and
                // compare `u < (1 − p)^k`: draw first, count only when `u`
                // falls between the bracket's ends.
                let u = rng.uniform();
                if u < q_min || u >= q_max {
                    decided += 1;
                    u < q_min
                } else {
                    scanned += 1;
                    let count = count_within(&self.snapshot, pos, interference_range);
                    u < self.survival.get(&self.config.mac, count - 1)
                }
            } else {
                let interferers = if snapshot_trivial {
                    0
                } else if frame == 1 {
                    scanned += 1;
                    count_within(&self.snapshot, pos, interference_range).saturating_sub(1)
                } else {
                    // Counted lazily, here, so only receivers that passed
                    // propagation pay a scan — once per burst.
                    let (counted_at, count) = &mut self.burst.receiver_counts[at];
                    if *counted_at == 0 {
                        *count = count_within(&self.snapshot, pos, interference_range);
                    } else if within(sender_pos, pos, interference_range) {
                        *count += (frame - *counted_at) as usize;
                    }
                    *counted_at = frame;
                    count.saturating_sub(1)
                };
                // `chance` draws nothing for a probability of 1, so a
                // receiver with no interferer consumes no randomness here.
                rng.chance(self.survival.get(&self.config.mac, interferers))
            };
            if !survives {
                self.stats.collision_losses.incr();
                continue;
            }
            // Fault overlay: one combined-survival draw per candidate that
            // stands inside at least one active zone. With no active zones
            // this is a single integer compare and zero RNG draws, keeping
            // fault-free runs byte-identical.
            if self.active_fault_zones > 0 {
                let mut survive = 1.0;
                for zone in &self.fault_zones {
                    if zone.active && zone.covers(pos) {
                        survive *= 1.0 - zone.loss;
                    }
                }
                if survive < 1.0 && rng.uniform() >= survive {
                    self.stats.fault_losses.incr();
                    continue;
                }
            }
            let d = sampled_distance.unwrap_or_else(|| distance(sender_pos, pos));
            let arrival =
                now + processing + backoff + tx_delay + self.config.mac.propagation_delay(d);
            self.stats.deliveries.incr();
            out.push(Delivery {
                receiver: node,
                arrival,
                intended,
            });
        }
        let counts = &mut self.interference;
        counts.frames += 1;
        if frame > 1 {
            counts.continued += 1;
        } else {
            counts.receivers += reached;
            if bracket.is_some() {
                counts.bracketed += reached;
            }
            counts.decided += decided;
            counts.scanned += scanned;
        }
    }

    /// The survival bracket of a fresh frame: the least and the greatest
    /// `(1 − p)^k` over every interferer count `k` any of its receivers can
    /// have, or `None` when some count in that range has a survival
    /// probability of 0 or 1, on which `chance` would not draw.
    ///
    /// The range: a receiver passed the `max_range` filter, so by the
    /// triangle inequality every snapshot entry within
    /// `2·nominal·(1 − 1e-6) − max_range` of the sender (the *core*, this
    /// frame's own entry included) is within `2·nominal·(1 − 1e-6)` of the
    /// receiver. That is inside interference range by far more than the
    /// ±1e-9 band in which `WithinFilter` decides exactly, so the receiver's
    /// count includes the whole core, and it cannot exceed the snapshot.
    /// Less this frame's own entry, `k` lies in `core − 1 ..= len − 1`. A
    /// channel that reaches as far as it interferes has a negative core
    /// radius, an empty core and no bracket.
    fn survival_bracket(&mut self, sender_pos: Position) -> Option<(f64, f64)> {
        let lo = self.core_count(sender_pos).checked_sub(1)?;
        let hi = self.snapshot.len() - 1;
        let (q_min, q_max) = self.survival.bounds(&self.config.mac, lo, hi);
        (q_min > 0.0 && q_max < 1.0).then_some((q_min, q_max))
    }

    /// The size of the snapshot's core for a frame sent from `sender_pos`:
    /// the entries every one of its receivers counts (see
    /// [`Medium::survival_bracket`]).
    fn core_count(&self, sender_pos: Position) -> usize {
        let nominal = self.propagation.nominal_range();
        let core_radius = 2.0 * nominal * (1.0 - 1e-6) - self.propagation.max_range();
        count_within(&self.snapshot, sender_pos, core_radius)
    }

    /// [`Medium::deliver`] as it was before the survival bracket and the
    /// deferred distance, kept verbatim: every receiver of a fresh frame is
    /// counted against the whole snapshot, and every candidate's distance
    /// is computed and sampled. The reference the bracket is pinned against.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn deliver_counting_every_receiver(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        nodes: &[(NodeId, Position)],
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        let interference_range = self.propagation.nominal_range() * 2.0;
        // The snapshot always contains this frame's own entry; when it is
        // the only one, every interference count below is 0 after the
        // self-discount, so the scans can be skipped outright (the RNG draws
        // they feed still happen, so outcomes are identical).
        let snapshot_trivial = self.snapshot.len() <= 1;
        // 1 for every frame that starts from a fresh snapshot; from 2 on the
        // counts are carried instead of rescanned (see `Burst`).
        let frame = self.burst.frames;
        if frame == 2 {
            self.burst.receiver_counts.clear();
            self.burst.receiver_counts.resize(nodes.len(), (0, 0));
        }
        self.burst.sender_count = if frame > 1 {
            // The sender is within any range of itself.
            self.burst.sender_count + 1
        } else if snapshot_trivial {
            1
        } else {
            count_within(&self.snapshot, sender_pos, interference_range)
        };
        // `begin_transmission` has already pushed this frame into the window
        // (and the snapshot), so discount it when counting contenders.
        let contenders = self.burst.sender_count.saturating_sub(1);
        let backoff = self.config.mac.sample_backoff(contenders, rng);
        let tx_delay = self.config.mac.transmission_delay(packet.size_bytes());
        let processing = vanet_sim::SimDuration::from_secs(self.config.mac.processing_delay_s);
        let range_filter = WithinFilter::new(self.propagation.max_range());

        for (at, &(node, pos)) in nodes.iter().enumerate() {
            if node == sender {
                continue;
            }
            // The grid query has already applied this test, so on the
            // indexed path every candidate passes; the slice form hands in
            // arbitrary nodes and relies on it. A node that fails it has
            // touched no counter and no RNG draw.
            if !range_filter.check(sender_pos, pos) {
                continue;
            }
            let d = distance(sender_pos, pos);
            // Unicast frames are only *delivered* to the intended next hop
            // unless promiscuous overhearing is enabled.
            let intended = match packet.next_hop {
                None => true,
                Some(h) => h == node,
            };
            if !intended && !self.config.promiscuous {
                continue;
            }
            if !self.propagation.sample_reception(d, rng) {
                self.stats.propagation_losses.incr();
                continue;
            }
            let interferers = if snapshot_trivial {
                0
            } else if frame == 1 {
                count_within(&self.snapshot, pos, interference_range).saturating_sub(1)
            } else {
                // Counted lazily, here, so only receivers that passed
                // propagation pay a scan — once per burst.
                let (counted_at, count) = &mut self.burst.receiver_counts[at];
                if *counted_at == 0 {
                    *count = count_within(&self.snapshot, pos, interference_range);
                } else if within(sender_pos, pos, interference_range) {
                    *count += (frame - *counted_at) as usize;
                }
                *counted_at = frame;
                count.saturating_sub(1)
            };
            // `chance` draws nothing for a probability of 1, so a receiver
            // with no interferer consumes no randomness here.
            if !rng.chance(self.survival.get(&self.config.mac, interferers)) {
                self.stats.collision_losses.incr();
                continue;
            }
            // Fault overlay: one combined-survival draw per candidate that
            // stands inside at least one active zone. With no active zones
            // this is a single integer compare and zero RNG draws, keeping
            // fault-free runs byte-identical.
            if self.active_fault_zones > 0 {
                let mut survive = 1.0;
                for zone in &self.fault_zones {
                    if zone.active && zone.covers(pos) {
                        survive *= 1.0 - zone.loss;
                    }
                }
                if survive < 1.0 && rng.uniform() >= survive {
                    self.stats.fault_losses.incr();
                    continue;
                }
            }
            let arrival =
                now + processing + backoff + tx_delay + self.config.mac.propagation_delay(d);
            self.stats.deliveries.incr();
            out.push(Delivery {
                receiver: node,
                arrival,
                intended,
            });
        }
    }

    /// Whether two positions are within nominal communication range: the
    /// connectivity predicate used by protocols when they reason about links.
    #[must_use]
    pub fn in_range(&self, a: Position, b: Position) -> bool {
        within(a, b, self.propagation.nominal_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{FreeSpacePathLoss, LogNormalShadowing, UnitDisk};
    use crate::packet::{Packet, PacketKind};
    use vanet_mobility::Vec2;

    fn nodes_on_a_line(count: usize, spacing: f64) -> Vec<(NodeId, Position)> {
        (0..count)
            .map(|i| (NodeId(i as u32), Vec2::new(i as f64 * spacing, 0.0)))
            .collect()
    }

    fn medium_unit_disk(range: f64) -> Medium {
        Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: true,
            },
            Box::new(UnitDisk::new(range)),
        )
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let mut m = medium_unit_disk(250.0);
        let nodes = nodes_on_a_line(5, 200.0); // 0,200,400,600,800
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(1);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let receivers: Vec<u32> = deliveries.iter().map(|d| d.receiver.0).collect();
        assert_eq!(receivers, vec![1], "only the 200 m neighbour is in range");
        assert_eq!(m.stats().transmissions.value(), 1);
        assert_eq!(m.stats().deliveries.value(), 1);
    }

    #[test]
    fn sender_never_receives_its_own_frame() {
        let mut m = medium_unit_disk(1_000.0);
        let nodes = nodes_on_a_line(3, 100.0);
        let pkt = Packet::broadcast(NodeId(1), PacketKind::Hello, 0);
        let mut rng = SimRng::new(2);
        let deliveries = m.transmit(
            SimTime::ZERO,
            NodeId(1),
            Vec2::new(100.0, 0.0),
            &pkt,
            &nodes,
            &mut rng,
        );
        assert!(deliveries.iter().all(|d| d.receiver != NodeId(1)));
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn unicast_marks_intended_receiver() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(3, 100.0);
        let mut pkt = Packet::data(NodeId(0), NodeId(2), 100);
        pkt.next_hop = Some(NodeId(1));
        let mut rng = SimRng::new(3);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let intended: Vec<u32> = deliveries
            .iter()
            .filter(|d| d.intended)
            .map(|d| d.receiver.0)
            .collect();
        assert_eq!(intended, vec![1]);
        // Promiscuous mode: node 2 overhears.
        assert!(deliveries
            .iter()
            .any(|d| d.receiver == NodeId(2) && !d.intended));
    }

    #[test]
    fn non_promiscuous_unicast_reaches_only_next_hop() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: false,
            },
            Box::new(UnitDisk::new(500.0)),
        );
        let nodes = nodes_on_a_line(3, 100.0);
        let mut pkt = Packet::data(NodeId(0), NodeId(2), 100);
        pkt.next_hop = Some(NodeId(1));
        let mut rng = SimRng::new(4);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, NodeId(1));
    }

    #[test]
    fn arrival_time_is_after_transmission_time() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(2, 100.0);
        let pkt = Packet::data(NodeId(0), NodeId(1), 1_000);
        let mut rng = SimRng::new(5);
        let now = SimTime::from_secs(10.0);
        let deliveries = m.transmit(now, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert!(deliveries[0].arrival > now);
        assert!((deliveries[0].arrival - now).as_secs() < 0.01);
    }

    #[test]
    fn collisions_increase_with_simultaneous_transmissions() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams {
                    collision_probability: 0.2,
                    ..MacParams::default()
                },
                promiscuous: true,
            },
            Box::new(UnitDisk::new(500.0)),
        );
        let nodes = nodes_on_a_line(30, 20.0);
        let mut rng = SimRng::new(7);
        // Every node broadcasts at the same instant: heavy contention.
        for i in 0..30u32 {
            let pkt = Packet::broadcast(NodeId(i), PacketKind::Hello, 64);
            let pos = Vec2::new(i as f64 * 20.0, 0.0);
            m.transmit(SimTime::ZERO, NodeId(i), pos, &pkt, &nodes, &mut rng);
        }
        assert!(
            m.stats().collision_losses.value() > 0,
            "synchronous broadcasts should collide"
        );
        assert!(m.stats().collision_rate() > 0.0);
    }

    #[test]
    fn shadowing_medium_delivers_probabilistically() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: true,
            },
            Box::new(LogNormalShadowing::new(250.0, 2.7, 4.0)),
        );
        let nodes = vec![(NodeId(1), Vec2::new(250.0, 0.0))];
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(8);
        let mut received = 0;
        let n = 2_000;
        for _ in 0..n {
            received += m
                .transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng)
                .len();
        }
        let freq = received as f64 / n as f64;
        assert!(
            (freq - 0.5).abs() < 0.05,
            "delivery frequency at nominal range should be ~0.5, got {freq}"
        );
        assert!(m.stats().propagation_losses.value() > 0);
    }

    #[test]
    fn in_range_uses_nominal_range() {
        let m = medium_unit_disk(250.0);
        assert!(m.in_range(Vec2::ZERO, Vec2::new(200.0, 0.0)));
        assert!(!m.in_range(Vec2::ZERO, Vec2::new(300.0, 0.0)));
    }

    #[test]
    fn fault_zone_drops_receivers_inside_it() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(3, 100.0); // at 0, 100, 200
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        // Total-loss zone covering only the node at x=200.
        let slot = m.add_fault_zone(Vec2::new(150.0, -10.0), Vec2::new(250.0, 10.0), 1.0);
        let mut rng = SimRng::new(11);

        // Inactive zone: both neighbours receive.
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(m.stats().fault_losses.value(), 0);

        // Active zone: the covered receiver is lost, the other survives.
        m.set_fault_zone_active(slot, true);
        assert_eq!(m.active_fault_zone_count(), 1);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let receivers: Vec<u32> = deliveries.iter().map(|d| d.receiver.0).collect();
        assert_eq!(receivers, vec![1]);
        assert_eq!(m.stats().fault_losses.value(), 1);

        // Deactivated again: back to both.
        m.set_fault_zone_active(slot, false);
        assert_eq!(m.active_fault_zone_count(), 0);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn overlapping_fault_zones_compose_their_loss() {
        let mut m = medium_unit_disk(500.0);
        let nodes = vec![(NodeId(1), Vec2::new(100.0, 0.0))];
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let everywhere_min = Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        let everywhere_max = Vec2::new(f64::INFINITY, f64::INFINITY);
        let a = m.add_fault_zone(everywhere_min, everywhere_max, 0.5);
        let b = m.add_fault_zone(everywhere_min, everywhere_max, 0.5);
        m.set_fault_zone_active(a, true);
        m.set_fault_zone_active(b, true);
        let mut rng = SimRng::new(12);
        let n = 4_000;
        let mut received = 0;
        for _ in 0..n {
            received += m
                .transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng)
                .len();
        }
        // Two independent 50% zones compose to 25% survival.
        let freq = received as f64 / n as f64;
        assert!(
            (freq - 0.25).abs() < 0.05,
            "composed survival should be ~0.25, got {freq}"
        );
        assert_eq!(
            m.stats().fault_losses.value() + received as u64,
            n as u64,
            "every candidate is either delivered or counted as fault loss"
        );
    }

    #[test]
    fn inactive_zones_consume_no_rng() {
        // Identical RNG streams with and without registered-but-inactive
        // zones: the delivery sequence must match draw-for-draw.
        let nodes = nodes_on_a_line(5, 80.0);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut plain = medium_unit_disk(500.0);
        let mut with_zones = medium_unit_disk(500.0);
        with_zones.add_fault_zone(Vec2::ZERO, Vec2::new(1.0, 1.0), 1.0);
        let mut rng_a = SimRng::new(13);
        let mut rng_b = SimRng::new(13);
        for _ in 0..50 {
            let a = plain.transmit(
                SimTime::ZERO,
                NodeId(0),
                Vec2::ZERO,
                &pkt,
                &nodes,
                &mut rng_a,
            );
            let b = with_zones.transmit(
                SimTime::ZERO,
                NodeId(0),
                Vec2::ZERO,
                &pkt,
                &nodes,
                &mut rng_b,
            );
            assert_eq!(a, b);
        }
    }

    /// The order-insensitivity property behind the `RecentIndex` D1 allow:
    /// after a randomised stream of transmissions, the collected window
    /// positions equal, as a multiset, a brute-force scan over a flat,
    /// insertion-ordered log — so every count taken over them does too, and
    /// map order never reaches either.
    #[test]
    fn recent_index_counts_match_a_flat_scan() {
        let by_coordinates =
            |a: &Position, b: &Position| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y));
        let cell = 250.0;
        let keep = 2.0;
        let mut rng = SimRng::new(0x5eed);
        for case in 0..10 {
            let mut index = RecentIndex::default();
            index.reset(cell);
            let mut flat: Vec<(SimTime, Position)> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..400 {
                now += vanet_sim::SimDuration::from_secs(rng.uniform_range(0.0, 0.05));
                let pos = Vec2::new(
                    rng.uniform_range(-500.0, 1_500.0),
                    rng.uniform_range(-500.0, 1_500.0),
                );
                index.push(now, pos, keep);
                flat.push((now, pos));
            }
            for _ in 0..30 {
                let center = Vec2::new(
                    rng.uniform_range(-400.0, 1_400.0),
                    rng.uniform_range(-400.0, 1_400.0),
                );
                let window = rng.uniform_range(0.1, keep);
                let radius = rng.uniform_range(10.0, cell);
                let filter = WithinFilter::new(radius);
                let mut expected: Vec<Position> = flat
                    .iter()
                    .filter(|&&(t, p)| {
                        now.saturating_since(t).as_secs() <= window && filter.check(p, center)
                    })
                    .map(|&(_, p)| p)
                    .collect();
                let mut collected = Vec::new();
                index.collect_window(now, center, window, radius, &mut collected);
                expected.sort_by(by_coordinates);
                collected.sort_by(by_coordinates);
                assert_eq!(
                    collected, expected,
                    "case {case}: collected window diverged from the flat scan"
                );
            }
        }
    }

    /// A channel that reaches further than it interferes (`max_range` is
    /// 3× nominal, interference 2×): the one shape where a burst's sender is
    /// outside a receiver's interference range. No in-tree model has it; the
    /// trait allows it.
    #[derive(Debug)]
    struct LongReach;

    impl PropagationModel for LongReach {
        fn reception_probability(&self, distance_m: f64) -> f64 {
            if distance_m <= 180.0 {
                0.8
            } else {
                0.0
            }
        }

        fn nominal_range(&self) -> f64 {
            60.0
        }

        fn max_range(&self) -> f64 {
            180.0
        }
    }

    /// Property: carrying the snapshot, the candidate list and the integer
    /// interference counts across the frames of a burst changes nothing.
    /// Two media on the same seeds see the same randomized mix — bursts of
    /// 1–40 frames, unicast and broadcast, interleaved senders at distinct
    /// and at shared positions, an active fault zone, unit-disk, shadowing
    /// and long-reach channels, time standing still between bursts, and
    /// grid updates between frames of one instant. One forgets its burst
    /// state before every frame; deliveries, statistics and the next RNG
    /// draw must be identical.
    #[test]
    fn burst_continuation_matches_a_fresh_snapshot_per_frame() {
        let make = |channel: u64| {
            let propagation: Box<dyn PropagationModel + Send> = match channel {
                0 => Box::new(UnitDisk::new(120.0)),
                1 => Box::new(LogNormalShadowing::new(120.0, 2.7, 4.0)),
                _ => Box::new(LongReach),
            };
            let mut m = Medium::new(MediumConfig::default(), propagation);
            let zone = m.add_fault_zone(Vec2::new(300.0, -50.0), Vec2::new(700.0, 50.0), 0.3);
            m.set_fault_zone_active(zone, true);
            m
        };
        let mut continued = 0;
        for case in 0..24_u64 {
            let mut plan = SimRng::new(0xb0057 + case);
            let (mut carried, mut fresh) = (make(case % 3), make(case % 3));
            let cell = carried.propagation().max_range();
            // Forty nodes in clusters along a road; two share a position.
            let mut nodes: Vec<(NodeId, Position)> = (0..40)
                .map(|i| {
                    let x = (i / 4) as f64 * 90.0 + plan.uniform_range(0.0, 60.0);
                    (NodeId(i), Vec2::new(x, plan.uniform_range(-8.0, 8.0)))
                })
                .collect();
            nodes[7].1 = nodes[6].1;
            let mut grid = crate::SpatialGrid::build(cell, &nodes);
            let (mut rng_a, mut rng_b) = (SimRng::new(case), SimRng::new(case));
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for _ in 0..60 {
                if plan.chance(0.6) {
                    now += vanet_sim::SimDuration::from_secs(plan.uniform_range(0.0, 0.02));
                }
                let sender = (plan.next_u64() % 40) as usize;
                let frames = 1 + plan.next_u64() % 40;
                for _ in 0..frames {
                    // Now and then another sender cuts in, or a node moves
                    // (possibly the sender) without time advancing.
                    let from = if plan.chance(0.1) {
                        (plan.next_u64() % 40) as usize
                    } else {
                        sender
                    };
                    if plan.chance(0.05) {
                        let moved = (plan.next_u64() % 40) as usize;
                        let to = nodes[moved].1 + Vec2::new(plan.uniform_range(-40.0, 40.0), 0.0);
                        grid.update(nodes[moved].0, nodes[moved].1, to);
                        nodes[moved].1 = to;
                    }
                    let (id, pos) = nodes[from];
                    let packet = if plan.chance(0.5) {
                        Packet::broadcast(id, PacketKind::Hello, 32)
                    } else {
                        let mut data = Packet::data(id, NodeId(0), 200);
                        data.next_hop = Some(NodeId((plan.next_u64() % 40) as u32));
                        data
                    };
                    let frames_before = carried.burst.frames;
                    carried.transmit_indexed_into(
                        now, id, pos, &packet, &grid, &mut rng_a, &mut out_a,
                    );
                    continued += usize::from(carried.burst.frames > frames_before);
                    fresh.forget_burst();
                    fresh.transmit_indexed_into(
                        now, id, pos, &packet, &grid, &mut rng_b, &mut out_b,
                    );
                    assert_eq!(fresh.burst.frames, 1);
                    assert_eq!(out_a, out_b, "case {case}: deliveries diverged");
                }
            }
            assert_eq!(
                carried.stats(),
                fresh.stats(),
                "case {case}: stats diverged"
            );
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "case {case}: RNG diverged"
            );
            assert!(carried.stats().collision_losses.value() > 0);
            assert!(carried.stats().fault_losses.value() > 0);
        }
        assert!(continued > 10_000, "the burst path barely ran: {continued}");
    }

    /// The indexed path against the exhaustive scan its docs say it equals:
    /// one medium is handed every node, id-sorted, through the slice form;
    /// its twin asks the grid. Fleets of 60–400 nodes at highway (a 15 m
    /// strip) and city (a square) densities, unit-disk and shadowing
    /// channels, broadcast and unicast frames, short bursts, nodes moving
    /// between frames, an active fault zone, and frames packed tightly
    /// enough that the contention window holds 50 and more entries — the
    /// broadcast-storm regime. Deliveries, statistics and the next RNG draw
    /// must agree after every frame; a grid query that dropped an in-range
    /// node or kept one out of id order would show here first.
    #[test]
    fn indexed_transmit_matches_the_exhaustive_scan() {
        // (nodes, extent along x, extent along y) in metres.
        let fleets = [
            (60, 1_000.0, 15.0),
            (240, 2_000.0, 15.0),
            (400, 4_000.0, 15.0),
            (150, 700.0, 700.0),
            (400, 1_200.0, 1_200.0),
        ];
        let mut storm_frames = 0;
        for (case, &(count, width, height)) in fleets.iter().enumerate() {
            for shadowing in [false, true] {
                let make = || {
                    let propagation: Box<dyn PropagationModel + Send> = if shadowing {
                        Box::new(LogNormalShadowing::new(250.0, 2.7, 4.0))
                    } else {
                        Box::new(UnitDisk::new(250.0))
                    };
                    let mut m = Medium::new(MediumConfig::default(), propagation);
                    let zone =
                        m.add_fault_zone(Vec2::ZERO, Vec2::new(width / 2.0, height / 2.0), 0.3);
                    m.set_fault_zone_active(zone, true);
                    m
                };
                let (mut scanned, mut indexed) = (make(), make());
                let mut plan = SimRng::new(0x5ca9 + case as u64);
                let mut nodes: Vec<(NodeId, Position)> = (0..count)
                    .map(|i| {
                        let x = plan.uniform_range(0.0, width);
                        (NodeId(i), Vec2::new(x, plan.uniform_range(0.0, height)))
                    })
                    .collect();
                let mut grid = crate::SpatialGrid::build(indexed.propagation().max_range(), &nodes);
                let (mut rng_a, mut rng_b) = (SimRng::new(77), SimRng::new(77));
                let mut out = Vec::new();
                let mut now = SimTime::ZERO;
                for _ in 0..300 {
                    // ~20 µs apart: hundreds of frames per 10 ms window.
                    now += vanet_sim::SimDuration::from_secs(plan.uniform_range(0.0, 4e-5));
                    if plan.chance(0.1) {
                        let moved = plan.uniform_usize(nodes.len());
                        let to = Vec2::new(
                            plan.uniform_range(0.0, width),
                            plan.uniform_range(0.0, height),
                        );
                        grid.update(nodes[moved].0, nodes[moved].1, to);
                        nodes[moved].1 = to;
                    }
                    let (id, pos) = nodes[plan.uniform_usize(nodes.len())];
                    let packet = if plan.chance(0.7) {
                        Packet::broadcast(id, PacketKind::Hello, 32)
                    } else {
                        let mut data = Packet::data(id, NodeId(0), 200);
                        data.next_hop = Some(nodes[plan.uniform_usize(nodes.len())].0);
                        data
                    };
                    for _ in 0..1 + plan.uniform_usize(3) {
                        let expected = scanned.transmit(now, id, pos, &packet, &nodes, &mut rng_a);
                        indexed.transmit_indexed_into(
                            now, id, pos, &packet, &grid, &mut rng_b, &mut out,
                        );
                        assert_eq!(out, expected, "case {case}: deliveries diverged");
                        assert_eq!(indexed.stats(), scanned.stats(), "case {case}");
                        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "case {case}");
                        storm_frames += usize::from(indexed.snapshot.len() >= 50);
                    }
                }
                let stats = indexed.stats();
                assert!(stats.deliveries.value() > 0);
                assert!(stats.collision_losses.value() > 0);
                assert!(stats.fault_losses.value() > 0);
                assert_eq!(stats.propagation_losses.value() > 0, shadowing);
            }
        }
        assert!(
            storm_frames > 4_000,
            "too few storm-sized windows: {storm_frames}"
        );
    }

    /// [`Medium::transmit_indexed_into`] through the pre-bracket pipeline,
    /// [`Medium::deliver_counting_every_receiver`]: the twin the survival
    /// bracket and the deferred distance are pinned against.
    #[allow(clippy::too_many_arguments)]
    fn transmit_counting_every_receiver(
        m: &mut Medium,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        grid: &crate::SpatialGrid,
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        out.clear();
        let key = BurstKey {
            now,
            sender_pos,
            grid_generation: grid.generation(),
        };
        let continued = m.begin_transmission(now, sender_pos, packet, Some(key));
        let mut candidates = std::mem::take(&mut m.candidates);
        if !continued {
            grid.candidates_within_scratch(
                sender_pos,
                m.propagation.max_range(),
                &mut candidates,
                &mut m.candidate_scratch,
            );
        }
        m.deliver_counting_every_receiver(now, sender, sender_pos, packet, &candidates, rng, out);
        m.candidates = candidates;
    }

    /// One collision probability and channel of
    /// [`bracket_against_the_reference`]: the bracketed medium's counts and
    /// the widest contention window it saw.
    struct BracketRun {
        p: f64,
        channel: usize,
        counts: InterferenceCounts,
        widest: usize,
    }

    /// Drives a medium and its twin on the pre-bracket pipeline through
    /// randomised storms: for every collision probability in {0, 0.06, 0.5,
    /// 0.9999} and every channel (unit disk, shadowing, free space, long
    /// reach), `cases` fleets of 60–400 nodes on highway strips and city
    /// squares, each sending `frames` groups of one to three frames ~`gap_s`
    /// apart — broadcast and unicast, bursts, nodes moving between frames,
    /// an active fault zone. Deliveries, statistics and the next RNG draw
    /// must agree after every frame.
    fn bracket_against_the_reference(cases: usize, frames: usize, gap_s: f64) -> Vec<BracketRun> {
        // (nodes, extent along x, extent along y) in metres.
        let fleets = [
            (60, 1_000.0, 15.0),
            (240, 2_000.0, 15.0),
            (400, 3_000.0, 15.0),
            (150, 700.0, 700.0),
            (400, 1_200.0, 1_200.0),
        ];
        let mut runs = Vec::new();
        for (pi, p) in [0.0, 0.06, 0.5, 0.9999].into_iter().enumerate() {
            for channel in 0..4 {
                let make = || {
                    let propagation: Box<dyn PropagationModel + Send> = match channel {
                        0 => Box::new(UnitDisk::new(250.0)),
                        1 => Box::new(LogNormalShadowing::new(250.0, 2.7, 4.0)),
                        2 => Box::new(FreeSpacePathLoss::new(250.0, 2.7)),
                        _ => Box::new(LongReach),
                    };
                    let mac = MacParams {
                        collision_probability: p,
                        ..MacParams::default()
                    };
                    let mut m = Medium::new(
                        MediumConfig {
                            mac,
                            promiscuous: true,
                        },
                        propagation,
                    );
                    let zone = m.add_fault_zone(Vec2::ZERO, Vec2::new(400.0, 300.0), 0.3);
                    m.set_fault_zone_active(zone, true);
                    m
                };
                let (mut reference, mut bracketed) = (make(), make());
                let seed = (pi * 4 + channel) as u64;
                let (mut rng_a, mut rng_b) = (SimRng::new(seed), SimRng::new(seed));
                let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
                let mut now = SimTime::ZERO;
                let mut widest = 0;
                for case in 0..cases {
                    let (count, width, height) = fleets[(case + pi + channel) % fleets.len()];
                    let mut plan = SimRng::new(0xb4ac + 16 * case as u64 + seed);
                    let mut nodes: Vec<(NodeId, Position)> = (0..count)
                        .map(|i| {
                            let x = plan.uniform_range(0.0, width);
                            (NodeId(i), Vec2::new(x, plan.uniform_range(0.0, height)))
                        })
                        .collect();
                    let max_range = bracketed.propagation().max_range();
                    let mut grid = crate::SpatialGrid::build(max_range, &nodes);
                    // A fresh window for every fleet.
                    now += vanet_sim::SimDuration::from_secs(1.0);
                    for _ in 0..frames {
                        now +=
                            vanet_sim::SimDuration::from_secs(plan.uniform_range(0.0, 2.0 * gap_s));
                        if plan.chance(0.1) {
                            let moved = plan.uniform_usize(nodes.len());
                            let to = Vec2::new(
                                plan.uniform_range(0.0, width),
                                plan.uniform_range(0.0, height),
                            );
                            grid.update(nodes[moved].0, nodes[moved].1, to);
                            nodes[moved].1 = to;
                        }
                        let (id, pos) = nodes[plan.uniform_usize(nodes.len())];
                        let packet = if plan.chance(0.7) {
                            Packet::broadcast(id, PacketKind::Hello, 32)
                        } else {
                            let mut data = Packet::data(id, NodeId(0), 200);
                            data.next_hop = Some(nodes[plan.uniform_usize(nodes.len())].0);
                            data
                        };
                        for _ in 0..1 + plan.uniform_usize(3) {
                            transmit_counting_every_receiver(
                                &mut reference,
                                now,
                                id,
                                pos,
                                &packet,
                                &grid,
                                &mut rng_a,
                                &mut out_a,
                            );
                            bracketed.transmit_indexed_into(
                                now, id, pos, &packet, &grid, &mut rng_b, &mut out_b,
                            );
                            let what = format!("p = {p}, channel {channel}, case {case}");
                            assert_eq!(out_a, out_b, "{what}: deliveries diverged");
                            assert_eq!(reference.stats(), bracketed.stats(), "{what}");
                            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{what}");
                            widest = widest.max(bracketed.snapshot.len());
                        }
                    }
                }
                let stats = bracketed.stats();
                assert!(stats.deliveries.value() > 0 || p > 0.9);
                assert_eq!(stats.collision_losses.value() > 0, p > 0.0);
                runs.push(BracketRun {
                    p,
                    channel,
                    counts: bracketed.interference_counts(),
                    widest,
                });
            }
        }
        runs
    }

    /// The property, and that it was not vacuous: storm-sized windows
    /// everywhere; the bracket off wherever it cannot apply (an ideal MAC,
    /// shadowing and long reach, whose core radius is negative); and where
    /// it can, it decided receivers, fell back to a count and was switched
    /// off for frames with a non-trivial window (too few core entries, or
    /// `(1 − p)^k` underflowing to 0 at p = 0.9999).
    fn assert_bracket_coverage(runs: &[BracketRun], min_window: usize) {
        let (mut decided, mut fell_back, mut off) = (0, 0, 0);
        for run in runs {
            let c = run.counts;
            let what = format!("p = {}, channel {}: {c:?}", run.p, run.channel);
            assert!(run.widest >= min_window, "{what}, widest {}", run.widest);
            assert!(c.continued > 0, "{what}");
            let certain_core = run.channel == 0 || run.channel == 2;
            if run.p == 0.0 || !certain_core {
                assert_eq!(c.bracketed, 0, "{what}");
            } else {
                assert!(c.decided > 0, "{what}");
            }
            if run.p > 0.9 && certain_core {
                assert!(run.widest > 81, "no underflow at p = 0.9999: {what}");
            }
            decided += c.decided;
            fell_back += c.bracketed - c.decided;
            off += c.scanned - (c.bracketed - c.decided);
        }
        assert!(decided > 0 && fell_back > 0 && off > 0);
    }

    /// The survival bracket and the deferred distance against the verbatim
    /// pre-bracket pipeline on storms of 50 and more window entries.
    #[test]
    fn survival_bracket_matches_counting_every_receiver() {
        let runs = bracket_against_the_reference(2, 150, 2e-5);
        assert_bracket_coverage(&runs, 50);
    }

    /// The same property at ten times the cases and windows of 200 and more
    /// entries; run in release with `cargo test --release -p vanet-net --
    /// --ignored`.
    #[test]
    #[ignore = "heavy: ten times the cases; run in release"]
    fn survival_bracket_matches_counting_every_receiver_heavy() {
        let runs = bracket_against_the_reference(20, 400, 5e-6);
        assert_bracket_coverage(&runs, 200);
    }

    /// The bracket's lower end is geometry: receivers exactly at
    /// `max_range` and window entries exactly at the core radius on the
    /// far side of the sender are as far apart as the triangle inequality
    /// allows, and each receiver's exact count still holds the whole core.
    #[test]
    fn every_receiver_counts_the_whole_core() {
        let range = 250.0;
        let core_radius = 2.0 * range * (1.0 - 1e-6) - range;
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 32);
        for center in [Vec2::ZERO, Vec2::new(98_765.25, -43_210.5)] {
            let mut m = Medium::new(MediumConfig::default(), Box::new(UnitDisk::new(range)));
            let mut rng = SimRng::new(21);
            let mut receivers = Vec::new();
            for i in 0..24 {
                let angle = f64::from(i) * std::f64::consts::TAU / 24.0;
                let dir = Vec2::new(angle.cos(), angle.sin());
                receivers.push((NodeId(i + 1), center + dir * range));
                let opposite = center - dir * core_radius;
                m.transmit(
                    SimTime::ZERO,
                    NodeId(100 + i),
                    opposite,
                    &pkt,
                    &[],
                    &mut rng,
                );
            }
            m.transmit(SimTime::ZERO, NodeId(0), center, &pkt, &receivers, &mut rng);
            let core = m.core_count(center);
            assert!(core > 12, "too few entries in the core: {core}");
            let in_range = WithinFilter::new(range);
            let mut checked = 0;
            for &(node, pos) in &receivers {
                if in_range.check(center, pos) {
                    checked += 1;
                    let count = count_within(&m.snapshot, pos, 2.0 * range);
                    assert!(count >= core, "{node:?}: counts {count} of the {core} core");
                }
            }
            assert!(checked > 12, "too few receivers at max_range: {checked}");
        }
    }

    fn medium_with_collision_probability(p: f64) -> Medium {
        let mac = MacParams {
            collision_probability: p,
            ..MacParams::default()
        };
        Medium::new(
            MediumConfig {
                mac,
                promiscuous: true,
            },
            Box::new(UnitDisk::new(250.0)),
        )
    }

    #[test]
    #[should_panic(expected = "collision probability must be in [0, 1]")]
    fn medium_rejects_a_collision_probability_above_one() {
        let _ = medium_with_collision_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "collision probability must be in [0, 1]")]
    fn medium_rejects_a_negative_collision_probability() {
        let _ = medium_with_collision_probability(-0.1);
    }

    #[test]
    #[should_panic(expected = "collision probability must be in [0, 1]")]
    fn medium_rejects_a_nan_collision_probability() {
        let _ = medium_with_collision_probability(f64::NAN);
    }

    #[test]
    fn survival_table_holds_the_direct_results_bit_for_bit() {
        for mac in [MacParams::default(), MacParams::ideal()] {
            let mut table = SurvivalTable::default();
            // Out of order first, so the table fills past the asked entry.
            for k in [512, 0, 40].into_iter().chain(0..=512) {
                assert_eq!(
                    table.get(&mac, k).to_bits(),
                    mac.survival_probability(k).to_bits(),
                    "k = {k}"
                );
            }
            assert_eq!(table.by_interferers.len(), 513);
        }
    }

    /// `bounds` is the least and the greatest direct result over its range,
    /// and fills the table to the range's end.
    #[test]
    fn survival_bounds_span_the_direct_results() {
        for p in [0.0, 0.06, 0.5, 0.9999, 1.0] {
            let mac = MacParams {
                collision_probability: p,
                ..MacParams::default()
            };
            let mut table = SurvivalTable::default();
            for (lo, hi) in [(0, 0), (3, 40), (1, 120), (60, 90)] {
                let direct: Vec<f64> = (lo..=hi).map(|k| mac.survival_probability(k)).collect();
                let min = direct.iter().copied().fold(f64::INFINITY, f64::min);
                let max = direct.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(
                    table.bounds(&mac, lo, hi),
                    (min, max),
                    "p = {p}, {lo}..={hi}"
                );
                assert!(table.by_interferers.len() > hi);
            }
        }
    }

    /// The slice form takes arbitrary receivers, so nothing carries over it:
    /// a frame after it starts fresh even at the same instant and position.
    #[test]
    fn slice_transmit_resets_the_burst() {
        let mut m = medium_unit_disk(250.0);
        let nodes = nodes_on_a_line(4, 100.0);
        let grid = crate::SpatialGrid::build(250.0, &nodes);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(14);
        let mut out = Vec::new();
        m.transmit_indexed_into(
            SimTime::ZERO,
            NodeId(0),
            Vec2::ZERO,
            &pkt,
            &grid,
            &mut rng,
            &mut out,
        );
        m.transmit_indexed_into(
            SimTime::ZERO,
            NodeId(0),
            Vec2::ZERO,
            &pkt,
            &grid,
            &mut rng,
            &mut out,
        );
        assert_eq!(m.burst.frames, 2);
        m.transmit(
            SimTime::ZERO,
            NodeId(0),
            Vec2::ZERO,
            &pkt,
            &nodes[..2],
            &mut rng,
        );
        m.transmit_indexed_into(
            SimTime::ZERO,
            NodeId(0),
            Vec2::ZERO,
            &pkt,
            &grid,
            &mut rng,
            &mut out,
        );
        assert_eq!(m.burst.frames, 1);
        assert_eq!(out.len(), 2, "the full candidate list, not the slice");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = medium_unit_disk(250.0);
        let nodes = nodes_on_a_line(2, 100.0);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(9);
        m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert!(m.stats().transmissions.value() > 0);
        m.reset_stats();
        assert_eq!(m.stats().transmissions.value(), 0);
    }
}
