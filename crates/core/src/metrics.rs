//! Metrics collected by a simulation run and the report derived from them.

use std::collections::{BTreeMap, HashMap, HashSet};
use vanet_routing::{BundleOp, DropReason};
use vanet_sim::{Counter, NodeId, PacketId, RunningStats, SimTime};

/// Raw per-run metric accumulators (filled in by the simulation driver).
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Data packets handed to the routing layer by the application.
    pub data_originated: Counter,
    /// Unique data packets delivered to their destination.
    pub data_delivered: Counter,
    /// Additional (duplicate) deliveries of already-delivered packets.
    pub duplicate_deliveries: Counter,
    /// Control packets transmitted, by packet-kind name. A `BTreeMap` so
    /// every iteration (totals, exports, renders) is in kind-name order by
    /// type, not by caller discipline.
    pub control_packets: BTreeMap<&'static str, u64>,
    /// Total control bytes transmitted.
    pub control_bytes: Counter,
    /// Data-packet transmissions (including every forwarding hop).
    pub data_transmissions: Counter,
    /// Data bytes transmitted.
    pub data_bytes: Counter,
    /// Route-error packets transmitted (a proxy for route breaks).
    pub route_errors: Counter,
    /// Packet drops by reason. A `BTreeMap` so any breakdown iterates in
    /// [`DropReason`] declaration order deterministically.
    pub drops: BTreeMap<DropReason, u64>,
    /// End-to-end delay of delivered packets, seconds.
    pub delays: RunningStats,
    /// Hop counts of delivered packets.
    pub hops: RunningStats,
    /// Number of neighbours sampled over time and nodes.
    pub neighbor_counts: RunningStats,
    /// Bundles stored into DTN buffers (store-carry-forward protocols).
    pub bundles_stored: Counter,
    /// Bundle copies forwarded to contacted neighbours.
    pub bundles_forwarded: Counter,
    /// Bundles discarded because their TTL ran out.
    pub bundles_expired: Counter,
    /// Bundles evicted under buffer pressure.
    pub bundles_evicted: Counter,
    /// Custody hand-overs (custody released at the acknowledged node).
    pub custody_transfers: Counter,
    /// Highest bundle-buffer occupancy observed at any node.
    pub buffer_peak: usize,
    /// Send time and source of every originated packet (for delay/PDR).
    // lint: allow(D1) — lookup-only (`insert`/`get` by PacketId); never
    // iterated, so map order cannot reach a Report (metrics tests pin every
    // derived value).
    pub(crate) outstanding: HashMap<PacketId, (SimTime, NodeId)>,
    /// Packets already counted as delivered.
    // lint: allow(D1) — membership-only (`insert`/`contains`); never
    // iterated, so set order cannot reach a Report.
    pub(crate) delivered_ids: HashSet<PacketId>,
}

impl Metrics {
    /// Creates an empty metric set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the origination of a data packet.
    pub fn record_origination(&mut self, id: PacketId, source: NodeId, now: SimTime) {
        self.data_originated.incr();
        self.outstanding.insert(id, (now, source));
    }

    /// Records a delivery; duplicates are counted separately.
    pub fn record_delivery(&mut self, id: PacketId, hops: u32, now: SimTime) {
        if self.delivered_ids.contains(&id) {
            self.duplicate_deliveries.incr();
            return;
        }
        self.delivered_ids.insert(id);
        self.data_delivered.incr();
        self.hops.record(f64::from(hops));
        if let Some((sent, _)) = self.outstanding.get(&id) {
            self.delays.record(now.saturating_since(*sent).as_secs());
        }
    }

    /// Records the transmission of a packet (control or data).
    pub fn record_transmission(&mut self, kind_name: &'static str, bytes: usize, is_control: bool) {
        if is_control {
            *self.control_packets.entry(kind_name).or_insert(0) += 1;
            self.control_bytes.add(bytes as u64);
            if kind_name == "RERR" {
                self.route_errors.incr();
            }
        } else {
            self.data_transmissions.incr();
            self.data_bytes.add(bytes as u64);
        }
    }

    /// Records a drop.
    pub fn record_drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Records a neighbour-count sample.
    pub fn record_neighbor_count(&mut self, count: usize) {
        self.neighbor_counts.record(count as f64);
    }

    /// Records a bundle-buffer lifecycle event (store-carry-forward
    /// protocols); `occupancy` is the reporting node's buffer fill after
    /// the event and feeds the fleet-wide occupancy peak.
    pub fn record_bundle(&mut self, op: BundleOp, occupancy: usize) {
        match op {
            BundleOp::Stored => self.bundles_stored.incr(),
            BundleOp::Forwarded => self.bundles_forwarded.incr(),
            BundleOp::Expired => self.bundles_expired.incr(),
            BundleOp::Evicted => self.bundles_evicted.incr(),
            BundleOp::Custody => self.custody_transfers.incr(),
        }
        self.buffer_peak = self.buffer_peak.max(occupancy);
    }

    /// Total control packets of all kinds.
    #[must_use]
    pub fn total_control_packets(&self) -> u64 {
        self.control_packets.values().sum()
    }

    /// Packet delivery ratio in `[0, 1]`.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_originated.value() == 0 {
            0.0
        } else {
            self.data_delivered.value() as f64 / self.data_originated.value() as f64
        }
    }

    /// Produces the final report for a run of `protocol` on `scenario`.
    #[must_use]
    pub fn report(&self, protocol: impl Into<String>, scenario: impl Into<String>) -> Report {
        let delivered = self.data_delivered.value().max(1);
        Report {
            protocol: protocol.into(),
            scenario: scenario.into(),
            data_sent: self.data_originated.value(),
            data_delivered: self.data_delivered.value(),
            duplicate_deliveries: self.duplicate_deliveries.value(),
            delivery_ratio: self.delivery_ratio(),
            avg_delay_s: self.delays.mean(),
            max_delay_s: self.delays.max(),
            avg_hops: self.hops.mean(),
            control_packets: self.total_control_packets(),
            control_bytes: self.control_bytes.value(),
            data_transmissions: self.data_transmissions.value(),
            control_per_delivered: self.total_control_packets() as f64 / delivered as f64,
            transmissions_per_delivered: (self.total_control_packets()
                + self.data_transmissions.value()) as f64
                / delivered as f64,
            route_errors: self.route_errors.value(),
            drops: self.drops.values().sum(),
            avg_neighbors: self.neighbor_counts.mean(),
            bundles_stored: self.bundles_stored.value(),
            bundles_forwarded: self.bundles_forwarded.value(),
            bundles_expired: self.bundles_expired.value(),
            bundles_evicted: self.bundles_evicted.value(),
            custody_transfers: self.custody_transfers.value(),
            buffer_peak: self.buffer_peak as u64,
        }
    }
}

/// The summary report of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Protocol name.
    pub protocol: String,
    /// Scenario name.
    pub scenario: String,
    /// Data packets originated.
    pub data_sent: u64,
    /// Unique data packets delivered.
    pub data_delivered: u64,
    /// Duplicate deliveries (flooding redundancy).
    pub duplicate_deliveries: u64,
    /// Packet delivery ratio.
    pub delivery_ratio: f64,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub avg_delay_s: f64,
    /// Maximum end-to-end delay, seconds.
    pub max_delay_s: f64,
    /// Mean hop count of delivered packets.
    pub avg_hops: f64,
    /// Control packets transmitted.
    pub control_packets: u64,
    /// Control bytes transmitted.
    pub control_bytes: u64,
    /// Data-packet transmissions (every hop).
    pub data_transmissions: u64,
    /// Control packets per delivered data packet (normalised overhead).
    pub control_per_delivered: f64,
    /// Total transmissions per delivered data packet.
    pub transmissions_per_delivered: f64,
    /// Route-error packets (route breaks observed).
    pub route_errors: u64,
    /// Total packet drops at the routing layer.
    pub drops: u64,
    /// Average neighbour count over nodes and time.
    pub avg_neighbors: f64,
    /// Bundles stored into DTN buffers (0 for connected-path protocols).
    pub bundles_stored: u64,
    /// Bundle copies forwarded on neighbour contact.
    pub bundles_forwarded: u64,
    /// Bundles whose TTL ran out in a buffer.
    pub bundles_expired: u64,
    /// Bundles evicted under buffer pressure.
    pub bundles_evicted: u64,
    /// Custody hand-overs observed.
    pub custody_transfers: u64,
    /// Peak bundle-buffer occupancy at any node.
    pub buffer_peak: u64,
}

/// One metric of a [`Report`] — its name in every export, journal line and
/// CLI flag, a getter and a setter — by kind, so an exact event count is
/// never read or written through `f64`.
#[derive(Debug, Clone, Copy)]
pub enum ReportField {
    /// An exact event count.
    Count(&'static str, fn(&Report) -> u64, fn(&mut Report, u64)),
    /// A real-valued statistic.
    Real(&'static str, fn(&Report) -> f64, fn(&mut Report, f64)),
}

impl ReportField {
    /// The metric's name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            ReportField::Count(name, ..) | ReportField::Real(name, ..) => name,
        }
    }

    /// The metric's value on `report` as a sample for statistics (counts
    /// widen to `f64`).
    #[must_use]
    pub fn value(&self, report: &Report) -> f64 {
        match self {
            ReportField::Count(_, get, _) => get(report) as f64,
            ReportField::Real(_, get, _) => get(report),
        }
    }
}

macro_rules! report_fields {
    ($($kind:ident $field:ident),* $(,)?) => {
        [$(ReportField::$kind(stringify!($field), |r| r.$field, |r, value| r.$field = value)),*]
    };
}

impl Report {
    /// Every metric of a report, in export order — the one list the journal
    /// codec, the campaign summaries and the analysis pass are driven from.
    /// A new metric is a struct field plus one row here.
    pub const FIELDS: [ReportField; 21] = report_fields![
        Count data_sent,
        Count data_delivered,
        Count duplicate_deliveries,
        Real delivery_ratio,
        Real avg_delay_s,
        Real max_delay_s,
        Real avg_hops,
        Count control_packets,
        Count control_bytes,
        Count data_transmissions,
        Real control_per_delivered,
        Real transmissions_per_delivered,
        Count route_errors,
        Count drops,
        Real avg_neighbors,
        Count bundles_stored,
        Count bundles_forwarded,
        Count bundles_expired,
        Count bundles_evicted,
        Count custody_transfers,
        Count buffer_peak,
    ];

    /// Header for a fixed-width table of reports.
    #[must_use]
    pub fn table_header() -> String {
        format!(
            "{:<12} {:<18} {:>6} {:>6} {:>6} {:>8} {:>9} {:>8} {:>10} {:>8}",
            "protocol",
            "scenario",
            "sent",
            "dlvd",
            "pdr",
            "delay_ms",
            "hops",
            "ctrl",
            "ctrl/dlvd",
            "rerr"
        )
    }

    /// One fixed-width table row.
    #[must_use]
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} {:<18} {:>6} {:>6} {:>6.3} {:>8.1} {:>9.2} {:>8} {:>10.1} {:>8}",
            self.protocol,
            self.scenario,
            self.data_sent,
            self.data_delivered,
            self.delivery_ratio,
            self.avg_delay_s * 1_000.0,
            self.avg_hops,
            self.control_packets,
            self.control_per_delivered,
            self.route_errors
        )
    }

    /// CSV header matching [`Report::csv_row`].
    #[must_use]
    pub fn csv_header() -> String {
        "protocol,scenario,sent,delivered,duplicates,pdr,avg_delay_s,avg_hops,control_packets,control_bytes,data_transmissions,control_per_delivered,route_errors,drops,avg_neighbors,bundles_stored,bundles_forwarded,bundles_expired,bundles_evicted,custody_transfers,buffer_peak".to_owned()
    }

    /// One CSV row.
    #[must_use]
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.4},{:.4},{:.2},{},{},{},{:.2},{},{},{:.2},{},{},{},{},{},{}",
            self.protocol,
            self.scenario,
            self.data_sent,
            self.data_delivered,
            self.duplicate_deliveries,
            self.delivery_ratio,
            self.avg_delay_s,
            self.avg_hops,
            self.control_packets,
            self.control_bytes,
            self.data_transmissions,
            self.control_per_delivered,
            self.route_errors,
            self.drops,
            self.avg_neighbors,
            self.bundles_stored,
            self.bundles_forwarded,
            self.bundles_expired,
            self.bundles_evicted,
            self.custody_transfers,
            self.buffer_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_and_duplicates() {
        let mut m = Metrics::new();
        m.record_origination(PacketId(1), NodeId(0), SimTime::ZERO);
        m.record_origination(PacketId(2), NodeId(0), SimTime::ZERO);
        m.record_delivery(PacketId(1), 3, SimTime::from_secs(0.5));
        m.record_delivery(PacketId(1), 3, SimTime::from_secs(0.6));
        assert_eq!(m.data_delivered.value(), 1);
        assert_eq!(m.duplicate_deliveries.value(), 1);
        assert!((m.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((m.delays.mean() - 0.5).abs() < 1e-12);
        assert_eq!(m.hops.mean(), 3.0);
    }

    #[test]
    fn transmissions_split_control_and_data() {
        let mut m = Metrics::new();
        m.record_transmission("RREQ", 24, true);
        m.record_transmission("RREQ", 24, true);
        m.record_transmission("RERR", 12, true);
        m.record_transmission("DATA", 532, false);
        assert_eq!(m.total_control_packets(), 3);
        assert_eq!(m.control_bytes.value(), 60);
        assert_eq!(m.data_transmissions.value(), 1);
        assert_eq!(m.route_errors.value(), 1);
    }

    #[test]
    fn report_normalisations() {
        let mut m = Metrics::new();
        for i in 0..10 {
            m.record_origination(PacketId(i), NodeId(0), SimTime::ZERO);
        }
        for i in 0..5 {
            m.record_delivery(PacketId(i), 2, SimTime::from_secs(0.2));
        }
        for _ in 0..20 {
            m.record_transmission("RREQ", 24, true);
        }
        m.record_drop(DropReason::NoRoute);
        m.record_neighbor_count(7);
        let r = m.report("AODV", "highway");
        assert_eq!(r.data_sent, 10);
        assert_eq!(r.data_delivered, 5);
        assert!((r.delivery_ratio - 0.5).abs() < 1e-12);
        assert!((r.control_per_delivered - 4.0).abs() < 1e-12);
        assert_eq!(r.drops, 1);
        assert_eq!(r.avg_neighbors, 7.0);
        // Rendering helpers produce non-empty, aligned output.
        assert!(!Report::table_header().is_empty());
        assert!(r.table_row().contains("AODV"));
        assert!(Report::csv_header().split(',').count() == r.csv_row().split(',').count());
    }

    #[test]
    fn bundle_events_accumulate_and_track_the_occupancy_peak() {
        let mut m = Metrics::new();
        m.record_bundle(BundleOp::Stored, 1);
        m.record_bundle(BundleOp::Stored, 2);
        m.record_bundle(BundleOp::Forwarded, 2);
        m.record_bundle(BundleOp::Evicted, 1);
        m.record_bundle(BundleOp::Expired, 0);
        m.record_bundle(BundleOp::Custody, 1);
        let r = m.report("Epidemic", "sparse");
        assert_eq!(r.bundles_stored, 2);
        assert_eq!(r.bundles_forwarded, 1);
        assert_eq!(r.bundles_evicted, 1);
        assert_eq!(r.bundles_expired, 1);
        assert_eq!(r.custody_transfers, 1);
        assert_eq!(r.buffer_peak, 2, "peak is the max occupancy, not the last");
    }

    #[test]
    fn report_fields_name_and_address_every_metric_once() {
        assert_eq!(Report::FIELDS.len(), 21);
        let mut report = Report::default();
        for (i, field) in Report::FIELDS.iter().enumerate() {
            assert!(
                Report::FIELDS[..i].iter().all(|f| f.name() != field.name()),
                "{} listed twice",
                field.name()
            );
            // Each setter writes a marker that its own getter, and no other
            // field's, reads back.
            match field {
                ReportField::Count(_, get, set) => {
                    set(&mut report, 1 + i as u64);
                    assert_eq!(get(&report), 1 + i as u64);
                }
                ReportField::Real(_, get, set) => {
                    set(&mut report, 1.0 + i as f64);
                    assert_eq!(get(&report), 1.0 + i as f64);
                }
            }
            for (j, other) in Report::FIELDS.iter().enumerate() {
                let expected = if j <= i { 1.0 + j as f64 } else { 0.0 };
                assert_eq!(other.value(&report), expected, "{}", other.name());
            }
        }
        // The table's names and kinds are the struct's.
        assert_eq!((report.data_sent, report.buffer_peak), (1, 21));
        assert_eq!(report.delivery_ratio, 4.0);
    }

    #[test]
    fn empty_metrics_report_is_sane() {
        let m = Metrics::new();
        let r = m.report("X", "Y");
        assert_eq!(r.delivery_ratio, 0.0);
        assert_eq!(r.data_sent, 0);
        assert!(r.avg_delay_s.abs() < 1e-12);
    }
}
