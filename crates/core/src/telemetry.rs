//! Streaming telemetry taps: time-resolved observability for a run.
//!
//! A [`Report`](crate::Report) is one end-of-run aggregate; it answers "how
//! did the protocol do" but not "when did it degrade". The [`Telemetry`]
//! trait threads time-resolved hooks through the simulation driver's
//! dispatch path — originations, transmissions, receptions, deliveries,
//! drops by reason, neighbour churn and medium load — without costing the
//! zero-allocation hot path anything when disabled: the driver is generic
//! over its tap ([`Simulation<T: Telemetry>`](crate::Simulation)), every
//! hook has an empty inline default, and the [`NoTelemetry`] instantiation
//! monomorphises to exactly the pre-telemetry code. The golden reports for
//! all 21 protocols pin that down.
//!
//! [`WindowedTap`] is the shipped implementation: it accumulates the hooks
//! into preallocated fixed-interval [`WindowRecord`] counters (sealed by a
//! [`WindowClock`] as simulated time passes each boundary) plus per-region
//! [`RegionRecord`] aggregates over an R×R bucketing of the scenario area
//! — the spatial-grid view of where traffic and drops concentrate. All
//! counters are integers (plus deterministic serial `f64` sums), so two
//! runs of the same seeded scenario produce byte-identical telemetry;
//! [`WindowedTap::content_hash`] is the stable fingerprint tests pin.

use vanet_mobility::Position;
use vanet_net::MediumStats;
use vanet_routing::{BundleOp, DropReason};
use vanet_sim::{SimDuration, SimTime, StableHasher, WindowClock};

/// Number of distinct [`DropReason`] variants a tap tracks.
pub const DROP_REASON_COUNT: usize = 8;

/// Column names for the per-reason drop counters, in
/// [`drop_reason_index`] order.
pub const DROP_REASON_NAMES: [&str; DROP_REASON_COUNT] = [
    "ttl_expired",
    "no_route",
    "local_maximum",
    "duplicate",
    "buffer_overflow",
    "expired",
    "out_of_zone",
    "not_for_me",
];

/// The fixed index of a drop reason in [`WindowRecord::drops`] (matches
/// [`DROP_REASON_NAMES`]).
#[must_use]
pub fn drop_reason_index(reason: DropReason) -> usize {
    match reason {
        DropReason::TtlExpired => 0,
        DropReason::NoRoute => 1,
        DropReason::LocalMaximum => 2,
        DropReason::Duplicate => 3,
        DropReason::BufferOverflow => 4,
        DropReason::Expired => 5,
        DropReason::OutOfZone => 6,
        DropReason::NotForMe => 7,
    }
}

/// Time-resolved observation hooks the simulation driver calls as it runs.
///
/// Every method has an empty `#[inline]` default, and the driver is generic
/// over its tap, so the disabled instantiation ([`NoTelemetry`])
/// monomorphises each call site to nothing — telemetry is strictly
/// zero-cost unless a real tap is attached.
///
/// A tap sees every reception as if it were an event of its own: the hooks
/// of a frame's receptions come in key order, each after its `on_event`,
/// even when the driver delivered them in one pass and replays them
/// afterwards.
pub trait Telemetry {
    /// Whether the tap observes anything. When `false`, the driver skips
    /// the work that only feeds hooks: the key-order replay of a frame it
    /// delivered in one pass. Only [`NoTelemetry`] sets it.
    const ENABLED: bool = true;

    /// Called once before the first event: the scenario's spatial bounds
    /// (for region bucketing) and simulated duration (for preallocation).
    #[inline]
    fn on_start(&mut self, bounds_min: Position, bounds_max: Position, duration: SimDuration) {
        let _ = (bounds_min, bounds_max, duration);
    }

    /// Called before each event is handled, with the event clock and the
    /// medium's cumulative statistics (window advancement hook).
    #[inline]
    fn on_event(&mut self, now: SimTime, medium: &MediumStats) {
        let _ = (now, medium);
    }

    /// A data packet was originated by an application flow.
    #[inline]
    fn on_origination(&mut self, now: SimTime) {
        let _ = now;
    }

    /// A frame was handed to the medium at `pos`.
    #[inline]
    fn on_transmit(&mut self, now: SimTime, pos: Position, bytes: usize, is_control: bool) {
        let _ = (now, pos, bytes, is_control);
    }

    /// A frame arrived at a node located at `pos`.
    #[inline]
    fn on_receive(&mut self, now: SimTime, pos: Position) {
        let _ = (now, pos);
    }

    /// A data packet reached its destination, `delay_s` after origination.
    #[inline]
    fn on_delivery(&mut self, now: SimTime, delay_s: f64) {
        let _ = (now, delay_s);
    }

    /// A packet was dropped at a node located at `pos`.
    #[inline]
    fn on_drop(&mut self, now: SimTime, pos: Position, reason: DropReason) {
        let _ = (now, pos, reason);
    }

    /// A frame or backbone message was discarded because a scheduled fault
    /// (node/RSU outage) made its sender or receiver unavailable; `pos` is
    /// where the discard happened.
    #[inline]
    fn on_fault_drop(&mut self, now: SimTime, pos: Position) {
        let _ = (now, pos);
    }

    /// A scheduled fault transition fired: a node went down (`down = true`)
    /// or recovered (`down = false`), or a jam/burst overlay toggled.
    #[inline]
    fn on_outage(&mut self, now: SimTime, down: bool) {
        let _ = (now, down);
    }

    /// `count` neighbour leases expired at a node's maintenance deadline.
    #[inline]
    fn on_neighbor_lost(&mut self, now: SimTime, count: usize) {
        let _ = (now, count);
    }

    /// A store-carry-forward protocol reported a bundle-buffer lifecycle
    /// event; `occupancy` is the reporting node's buffer fill afterwards.
    #[inline]
    fn on_bundle(&mut self, now: SimTime, op: BundleOp, occupancy: usize) {
        let _ = (now, op, occupancy);
    }

    /// A node inserted a previously unknown neighbour (a link came up).
    #[inline]
    fn on_neighbor_gained(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Called once after the last event with the scenario end time and the
    /// final medium statistics; seals any still-open windows.
    #[inline]
    fn on_finish(&mut self, end: SimTime, medium: &MediumStats) {
        let _ = (end, medium);
    }
}

/// The disabled tap: every hook is an inline no-op, so
/// `Simulation<NoTelemetry>` compiles to exactly the pre-telemetry driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Telemetry for NoTelemetry {
    const ENABLED: bool = false;
}

/// One sealed fixed-interval window of counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRecord {
    /// Data packets originated by flows in this window.
    pub originations: u64,
    /// `Deliver` actions executed (unique and duplicate deliveries).
    pub deliveries: u64,
    /// Sum of end-to-end delays of this window's deliveries, seconds
    /// (serial accumulation — deterministic).
    pub delay_sum_s: f64,
    /// Data frames handed to the medium.
    pub sent_data: u64,
    /// Control frames handed to the medium.
    pub sent_control: u64,
    /// Bytes handed to the medium (control + data).
    pub bytes_sent: u64,
    /// Frames that arrived at some node (every receiver counts).
    pub received: u64,
    /// Drops by reason, indexed by [`drop_reason_index`].
    pub drops: [u64; DROP_REASON_COUNT],
    /// Neighbour leases expired (links down).
    pub neighbors_lost: u64,
    /// Neighbours newly inserted (links up).
    pub neighbors_gained: u64,
    /// Frames/messages discarded because a scheduled fault disabled an
    /// endpoint (node or RSU outage).
    pub fault_drops: u64,
    /// Scheduled fault transitions into the failed state (outage onsets,
    /// jam/burst activations) in this window.
    pub outages: u64,
    /// Bundles stored into DTN buffers in this window.
    pub bundles_stored: u64,
    /// Bundle copies forwarded on neighbour contact.
    pub bundles_forwarded: u64,
    /// Bundles whose TTL ran out in a buffer.
    pub bundles_expired: u64,
    /// Bundles evicted under buffer pressure.
    pub bundles_evicted: u64,
    /// Custody hand-overs acknowledged.
    pub custody_transfers: u64,
    /// Peak bundle-buffer occupancy observed at any node in this window.
    pub buffer_peak: u64,
    /// Medium activity attributed to this window (stats delta between the
    /// window's boundary snapshots): the channel-load record.
    pub medium: MediumStats,
}

impl WindowRecord {
    /// Delivery ratio of the traffic originated in this window's span
    /// (deliveries over originations; 0 when nothing was originated).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.originations == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.originations as f64
        }
    }
}

/// Whole-run aggregates for one spatial region (an R×R bucket of the
/// scenario area).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionRecord {
    /// Frames transmitted from inside the region.
    pub sent: u64,
    /// Frames received by nodes inside the region.
    pub received: u64,
    /// Packets dropped by nodes inside the region.
    pub drops: u64,
}

/// A [`Telemetry`] implementation accumulating fixed-interval windows and
/// per-region aggregates into preallocated counters.
#[derive(Debug, Clone)]
pub struct WindowedTap {
    clock: WindowClock,
    regions_per_axis: usize,
    origin: Position,
    inv_cell_w: f64,
    inv_cell_h: f64,
    /// Sealed windows, index = window number (preallocated at `on_start`).
    windows: Vec<WindowRecord>,
    /// Counters for the currently open window.
    current: WindowRecord,
    /// Region aggregates, row-major (`y * R + x`), preallocated.
    regions: Vec<RegionRecord>,
    /// Medium snapshot at the last sealed boundary.
    last_medium: MediumStats,
}

impl WindowedTap {
    /// A tap with the given window width and `regions_per_axis`² spatial
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `regions_per_axis` is zero.
    #[must_use]
    pub fn new(window: SimDuration, regions_per_axis: usize) -> Self {
        assert!(regions_per_axis > 0, "need at least one region per axis");
        WindowedTap {
            clock: WindowClock::new(window),
            regions_per_axis,
            origin: Position::new(0.0, 0.0),
            inv_cell_w: 0.0,
            inv_cell_h: 0.0,
            windows: Vec::new(),
            current: WindowRecord::default(),
            regions: Vec::new(),
            last_medium: MediumStats::default(),
        }
    }

    /// The window width in seconds.
    #[must_use]
    pub fn window_secs(&self) -> f64 {
        self.clock.width().as_secs()
    }

    /// Regions per axis (the tap tracks this² buckets).
    #[must_use]
    pub fn regions_per_axis(&self) -> usize {
        self.regions_per_axis
    }

    /// The sealed windows, in time order.
    #[must_use]
    pub fn windows(&self) -> &[WindowRecord] {
        &self.windows
    }

    /// The per-region aggregates, row-major (`y * regions_per_axis + x`).
    #[must_use]
    pub fn regions(&self) -> &[RegionRecord] {
        &self.regions
    }

    fn region_of(&self, pos: Position) -> usize {
        let r = self.regions_per_axis;
        let clamp = |v: f64| -> usize { (v.max(0.0) as usize).min(r - 1) };
        let x = clamp((pos.x - self.origin.x) * self.inv_cell_w);
        let y = clamp((pos.y - self.origin.y) * self.inv_cell_h);
        y * r + x
    }

    /// Seals the windows in `range`: the first receives the open counters
    /// and the medium delta since the previous boundary; any further ones
    /// (a gap with no events) are empty.
    fn seal(&mut self, range: std::ops::Range<usize>, medium: &MediumStats) {
        for index in range {
            debug_assert_eq!(index, self.windows.len(), "windows seal in order");
            let mut record = std::mem::take(&mut self.current);
            record.medium = medium.since(&self.last_medium);
            self.last_medium = medium.clone();
            self.windows.push(record);
        }
    }

    /// A stable fingerprint over every counter the tap accumulated — equal
    /// exactly when two runs produced identical telemetry.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut hasher = StableHasher::new();
        hasher.write_str("telemetry/v1");
        hasher.write_u64(self.window_secs().to_bits());
        hasher.write_u64(self.regions_per_axis as u64);
        hasher.write_u64(self.windows.len() as u64);
        for w in &self.windows {
            hasher.write_u64(w.originations);
            hasher.write_u64(w.deliveries);
            hasher.write_u64(w.delay_sum_s.to_bits());
            hasher.write_u64(w.sent_data);
            hasher.write_u64(w.sent_control);
            hasher.write_u64(w.bytes_sent);
            hasher.write_u64(w.received);
            for &d in &w.drops {
                hasher.write_u64(d);
            }
            hasher.write_u64(w.neighbors_lost);
            hasher.write_u64(w.neighbors_gained);
            hasher.write_u64(w.fault_drops);
            hasher.write_u64(w.outages);
            hasher.write_u64(w.bundles_stored);
            hasher.write_u64(w.bundles_forwarded);
            hasher.write_u64(w.bundles_expired);
            hasher.write_u64(w.bundles_evicted);
            hasher.write_u64(w.custody_transfers);
            hasher.write_u64(w.buffer_peak);
            hasher.write_u64(w.medium.transmissions.value());
            hasher.write_u64(w.medium.deliveries.value());
            hasher.write_u64(w.medium.propagation_losses.value());
            hasher.write_u64(w.medium.collision_losses.value());
            hasher.write_u64(w.medium.fault_losses.value());
            hasher.write_u64(w.medium.bytes_transmitted.value());
        }
        for region in &self.regions {
            hasher.write_u64(region.sent);
            hasher.write_u64(region.received);
            hasher.write_u64(region.drops);
        }
        hasher.finish()
    }
}

impl Telemetry for WindowedTap {
    fn on_start(&mut self, bounds_min: Position, bounds_max: Position, duration: SimDuration) {
        let r = self.regions_per_axis as f64;
        let width = (bounds_max.x - bounds_min.x).max(f64::EPSILON);
        let height = (bounds_max.y - bounds_min.y).max(f64::EPSILON);
        self.origin = bounds_min;
        self.inv_cell_w = r / width;
        self.inv_cell_h = r / height;
        let expected = (duration.as_secs() / self.window_secs()).ceil() as usize + 1;
        self.windows.reserve(expected);
        self.regions = vec![RegionRecord::default(); self.regions_per_axis * self.regions_per_axis];
    }

    fn on_event(&mut self, now: SimTime, medium: &MediumStats) {
        let closed = self.clock.advance(now);
        if !closed.is_empty() {
            self.seal(closed, medium);
        }
    }

    fn on_origination(&mut self, now: SimTime) {
        let _ = now;
        self.current.originations += 1;
    }

    fn on_transmit(&mut self, now: SimTime, pos: Position, bytes: usize, is_control: bool) {
        let _ = now;
        if is_control {
            self.current.sent_control += 1;
        } else {
            self.current.sent_data += 1;
        }
        self.current.bytes_sent += bytes as u64;
        let region = self.region_of(pos);
        self.regions[region].sent += 1;
    }

    fn on_receive(&mut self, now: SimTime, pos: Position) {
        let _ = now;
        self.current.received += 1;
        let region = self.region_of(pos);
        self.regions[region].received += 1;
    }

    fn on_delivery(&mut self, now: SimTime, delay_s: f64) {
        let _ = now;
        self.current.deliveries += 1;
        self.current.delay_sum_s += delay_s;
    }

    fn on_drop(&mut self, now: SimTime, pos: Position, reason: DropReason) {
        let _ = now;
        self.current.drops[drop_reason_index(reason)] += 1;
        let region = self.region_of(pos);
        self.regions[region].drops += 1;
    }

    fn on_fault_drop(&mut self, now: SimTime, pos: Position) {
        let _ = now;
        self.current.fault_drops += 1;
        let region = self.region_of(pos);
        self.regions[region].drops += 1;
    }

    fn on_outage(&mut self, now: SimTime, down: bool) {
        let _ = now;
        if down {
            self.current.outages += 1;
        }
    }

    fn on_neighbor_lost(&mut self, now: SimTime, count: usize) {
        let _ = now;
        self.current.neighbors_lost += count as u64;
    }

    fn on_neighbor_gained(&mut self, now: SimTime) {
        let _ = now;
        self.current.neighbors_gained += 1;
    }

    fn on_bundle(&mut self, now: SimTime, op: BundleOp, occupancy: usize) {
        let _ = now;
        match op {
            BundleOp::Stored => self.current.bundles_stored += 1,
            BundleOp::Forwarded => self.current.bundles_forwarded += 1,
            BundleOp::Expired => self.current.bundles_expired += 1,
            BundleOp::Evicted => self.current.bundles_evicted += 1,
            BundleOp::Custody => self.current.custody_transfers += 1,
        }
        self.current.buffer_peak = self.current.buffer_peak.max(occupancy as u64);
    }

    fn on_finish(&mut self, end: SimTime, medium: &MediumStats) {
        let closed = self.clock.finish(end);
        if !closed.is_empty() {
            self.seal(closed, medium);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_routing::DropReason;

    #[test]
    fn drop_reason_indices_cover_every_variant_once() {
        let all = [
            DropReason::TtlExpired,
            DropReason::NoRoute,
            DropReason::LocalMaximum,
            DropReason::Duplicate,
            DropReason::BufferOverflow,
            DropReason::Expired,
            DropReason::OutOfZone,
            DropReason::NotForMe,
        ];
        let mut seen = [false; DROP_REASON_COUNT];
        for reason in all {
            let index = drop_reason_index(reason);
            assert!(!seen[index], "index {index} assigned twice");
            seen[index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn windows_seal_in_order_with_medium_deltas() {
        let mut tap = WindowedTap::new(SimDuration::from_secs(1.0), 2);
        tap.on_start(
            Position::new(0.0, 0.0),
            Position::new(100.0, 100.0),
            SimDuration::from_secs(3.0),
        );
        let mut medium = MediumStats::default();
        tap.on_event(SimTime::from_secs(0.1), &medium);
        tap.on_origination(SimTime::from_secs(0.1));
        tap.on_transmit(
            SimTime::from_secs(0.1),
            Position::new(10.0, 10.0),
            64,
            false,
        );
        medium.transmissions.incr();
        medium.bytes_transmitted.add(64);
        // Crossing into window 2 seals windows 0 and 1 — all activity and
        // the whole medium delta land in window 0, window 1 is empty.
        tap.on_event(SimTime::from_secs(2.5), &medium);
        tap.on_drop(
            SimTime::from_secs(2.5),
            Position::new(90.0, 90.0),
            DropReason::NoRoute,
        );
        tap.on_finish(SimTime::from_secs(3.0), &medium);

        assert_eq!(tap.windows().len(), 4);
        assert_eq!(tap.windows()[0].originations, 1);
        assert_eq!(tap.windows()[0].sent_data, 1);
        assert_eq!(tap.windows()[0].medium.transmissions.value(), 1);
        assert_eq!(tap.windows()[1], WindowRecord::default());
        assert_eq!(
            tap.windows()[2].drops[drop_reason_index(DropReason::NoRoute)],
            1
        );
        // Region attribution: the transmit was in the lower-left bucket,
        // the drop in the upper-right.
        assert_eq!(tap.regions()[0].sent, 1);
        assert_eq!(tap.regions()[3].drops, 1);
    }

    #[test]
    fn bundle_hooks_accumulate_into_the_open_window() {
        let mut tap = WindowedTap::new(SimDuration::from_secs(1.0), 1);
        tap.on_start(
            Position::new(0.0, 0.0),
            Position::new(10.0, 10.0),
            SimDuration::from_secs(1.0),
        );
        tap.on_bundle(SimTime::ZERO, BundleOp::Stored, 3);
        tap.on_bundle(SimTime::ZERO, BundleOp::Forwarded, 3);
        tap.on_bundle(SimTime::ZERO, BundleOp::Custody, 2);
        tap.on_bundle(SimTime::ZERO, BundleOp::Expired, 1);
        tap.on_bundle(SimTime::ZERO, BundleOp::Evicted, 1);
        tap.on_finish(SimTime::from_secs(1.0), &MediumStats::default());
        let w = &tap.windows()[0];
        assert_eq!(w.bundles_stored, 1);
        assert_eq!(w.bundles_forwarded, 1);
        assert_eq!(w.custody_transfers, 1);
        assert_eq!(w.bundles_expired, 1);
        assert_eq!(w.bundles_evicted, 1);
        assert_eq!(w.buffer_peak, 3);
    }

    #[test]
    fn content_hash_tracks_counters() {
        let build = |drops: u64| {
            let mut tap = WindowedTap::new(SimDuration::from_secs(1.0), 2);
            tap.on_start(
                Position::new(0.0, 0.0),
                Position::new(10.0, 10.0),
                SimDuration::from_secs(2.0),
            );
            let medium = MediumStats::default();
            for _ in 0..drops {
                tap.on_drop(
                    SimTime::ZERO,
                    Position::new(1.0, 1.0),
                    DropReason::Duplicate,
                );
            }
            tap.on_finish(SimTime::from_secs(2.0), &medium);
            tap
        };
        assert_eq!(build(2).content_hash(), build(2).content_hash());
        assert_ne!(build(2).content_hash(), build(3).content_hash());
    }

    #[test]
    fn positions_outside_bounds_clamp_to_edge_regions() {
        let mut tap = WindowedTap::new(SimDuration::from_secs(1.0), 4);
        tap.on_start(
            Position::new(0.0, 0.0),
            Position::new(100.0, 100.0),
            SimDuration::from_secs(1.0),
        );
        tap.on_receive(SimTime::ZERO, Position::new(-50.0, -50.0));
        tap.on_receive(SimTime::ZERO, Position::new(500.0, 500.0));
        assert_eq!(tap.regions()[0].received, 1);
        assert_eq!(tap.regions()[15].received, 1);
    }
}
