//! Metrics collected by a simulation run and the report derived from them.

use std::collections::BTreeMap;
use vanet_routing::BundleOp;
use vanet_sim::{PacketId, RunningStats, SimTime};

/// Raw per-run metric accumulators (filled in by the simulation driver).
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// The report's counts, tallied as they happen; [`Metrics::report`]
    /// fills in the derived fields.
    totals: Report,
    /// End-to-end delay of delivered packets, seconds.
    delays: RunningStats,
    /// Hop counts of delivered packets.
    hops: RunningStats,
    /// Number of neighbours sampled over time and nodes.
    neighbor_counts: RunningStats,
    /// Send time of every originated packet, and whether it has been
    /// delivered yet (for delay, PDR and duplicates).
    outstanding: BTreeMap<PacketId, (SimTime, bool)>,
}

impl Metrics {
    /// Creates an empty metric set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the origination of a data packet.
    pub fn record_origination(&mut self, id: PacketId, now: SimTime) {
        self.totals.data_sent += 1;
        self.outstanding.insert(id, (now, false));
    }

    /// Records a delivery; duplicates are counted separately. A delivery
    /// must name a packet [`Metrics::record_origination`] saw: debug builds
    /// panic on any other, release builds ignore it, so `data_delivered`
    /// never passes `data_sent`.
    pub fn record_delivery(&mut self, id: PacketId, hops: u32, now: SimTime) {
        let entry = self.outstanding.get_mut(&id);
        debug_assert!(
            entry.is_some(),
            "delivery of {id:?}, which was never originated"
        );
        let Some((sent, delivered)) = entry else {
            return;
        };
        if *delivered {
            self.totals.duplicate_deliveries += 1;
            return;
        }
        *delivered = true;
        self.totals.data_delivered += 1;
        self.hops.record(f64::from(hops));
        self.delays.record(now.saturating_since(*sent).as_secs());
    }

    /// Records one transmission: a control packet of `bytes` (a route error
    /// when `is_route_error`) or one hop of a data packet.
    pub fn record_transmission(&mut self, bytes: usize, is_control: bool, is_route_error: bool) {
        let t = &mut self.totals;
        if is_control {
            t.control_packets += 1;
            t.control_bytes += bytes as u64;
            t.route_errors += u64::from(is_route_error);
        } else {
            t.data_transmissions += 1;
        }
    }

    /// Records a drop.
    pub fn record_drop(&mut self) {
        self.totals.drops += 1;
    }

    /// Records a neighbour-count sample.
    pub fn record_neighbor_count(&mut self, count: usize) {
        self.neighbor_counts.record(count as f64);
    }

    /// Records a bundle-buffer lifecycle event (store-carry-forward
    /// protocols); `occupancy` is the reporting node's buffer fill after
    /// the event and feeds the fleet-wide occupancy peak.
    pub fn record_bundle(&mut self, op: BundleOp, occupancy: usize) {
        let t = &mut self.totals;
        *match op {
            BundleOp::Stored => &mut t.bundles_stored,
            BundleOp::Forwarded => &mut t.bundles_forwarded,
            BundleOp::Expired => &mut t.bundles_expired,
            BundleOp::Evicted => &mut t.bundles_evicted,
            BundleOp::Custody => &mut t.custody_transfers,
        } += 1;
        t.buffer_peak = t.buffer_peak.max(occupancy as u64);
    }

    /// Produces the final report for a run of `protocol` on `scenario`.
    #[must_use]
    pub fn report(&self, protocol: impl Into<String>, scenario: impl Into<String>) -> Report {
        let t = &self.totals;
        let per_delivered = |n: u64| n as f64 / t.data_delivered.max(1) as f64;
        Report {
            protocol: protocol.into(),
            scenario: scenario.into(),
            delivery_ratio: if t.data_sent == 0 {
                0.0
            } else {
                t.data_delivered as f64 / t.data_sent as f64
            },
            avg_delay_s: self.delays.mean(),
            max_delay_s: self.delays.max(),
            avg_hops: self.hops.mean(),
            control_per_delivered: per_delivered(t.control_packets),
            transmissions_per_delivered: per_delivered(t.control_packets + t.data_transmissions),
            avg_neighbors: self.neighbor_counts.mean(),
            ..t.clone()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_and_duplicates() {
        let mut m = Metrics::new();
        m.record_origination(PacketId(1), SimTime::ZERO);
        m.record_origination(PacketId(2), SimTime::ZERO);
        m.record_delivery(PacketId(1), 3, SimTime::from_secs(0.5));
        m.record_delivery(PacketId(1), 3, SimTime::from_secs(0.6));
        assert_eq!(m.totals.data_delivered, 1);
        assert_eq!(m.totals.duplicate_deliveries, 1);
        assert!((m.report("X", "Y").delivery_ratio - 0.5).abs() < 1e-12);
        assert!((m.delays.mean() - 0.5).abs() < 1e-12);
        assert_eq!(m.hops.mean(), 3.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "never originated")]
    fn delivering_a_packet_never_originated_panics() {
        let mut m = Metrics::new();
        m.record_origination(PacketId(1), SimTime::ZERO);
        m.record_delivery(PacketId(2), 1, SimTime::from_secs(0.5));
    }

    #[test]
    fn transmissions_split_control_and_data() {
        let mut m = Metrics::new();
        m.record_transmission(24, true, false);
        m.record_transmission(24, true, false);
        m.record_transmission(12, true, true);
        m.record_transmission(532, false, false);
        assert_eq!(m.totals.control_packets, 3);
        assert_eq!(m.totals.control_bytes, 60);
        assert_eq!(m.totals.data_transmissions, 1);
        assert_eq!(m.totals.route_errors, 1);
    }

    #[test]
    fn report_normalisations() {
        let mut m = Metrics::new();
        for i in 0..10 {
            m.record_origination(PacketId(i), SimTime::ZERO);
        }
        for i in 0..5 {
            m.record_delivery(PacketId(i), 2, SimTime::from_secs(0.2));
        }
        for _ in 0..20 {
            m.record_transmission(24, true, false);
        }
        m.record_drop();
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
