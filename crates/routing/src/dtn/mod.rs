//! Delay-tolerant store-carry-forward routing (the sixth family).
//!
//! The five connected-path families of the paper's taxonomy all assume a
//! contemporaneous route exists when a packet is sent. In sparse or
//! disrupted VANETs — night-time highways, rural roads, fault-injected
//! outages — that assumption fails and their delivery ratios collapse. The
//! protocols in this module instead *buffer* data as bundles, *carry* them
//! through partitions and *forward* opportunistically on neighbour contact:
//!
//! | # | Protocol | Replication strategy |
//! |---|----------|----------------------|
//! | 18 | [`Epidemic`] | summary-vector anti-entropy: copy everything the peer lacks |
//! | 19 | [`Prophet`] | delivery predictabilities with aging + transitive decay |
//! | 20 | [`SprayAndWait`] | binary copy-ticket splitting, then direct-only wait |
//! | 21 | [`ProbFlood`] | hop-gated probabilistic rebroadcast, plus carry |
//!
//! All four are built on the same substrate: a bounded [`BundleBuffer`]
//! whose slots materialise on demand, with a pluggable [`DropPolicy`], lazy
//! TTL expiry checked
//! from the per-node maintenance deadline already riding the batched
//! timer wheel, and a custody handshake ([`vanet_net::PacketKind::CustodyAck`])
//! that lets a node release responsibility for a bundle once a downstream
//! node has taken it — releasing it for `NoCustodyFirst` eviction.
//!
//! ## Determinism contract
//!
//! Contact discovery rides the deterministic beacon/neighbour machinery
//! (all four protocols request HELLO beacons); summary vectors are sorted
//! before transmission; eviction and expiry decide by total orders over
//! `(SimTime, hops, custody, BundleKey)` — never by float comparison or
//! iteration over unordered containers. Given the same `(time, seq)` event
//! sequence every buffer ends every run in the same state, byte for byte.

pub mod buffer;

mod epidemic;
mod probflood;
mod prophet;
mod spray;

pub use buffer::{Bundle, BundleBuffer, BundleKey, DropPolicy, InsertOutcome};
pub use epidemic::Epidemic;
pub use probflood::ProbFlood;
pub use prophet::Prophet;
pub use spray::SprayAndWait;

use crate::protocol::{BundleOp, DropReason, ProtocolContext};
use std::collections::BTreeSet;
use vanet_net::{Packet, PacketKind};
use vanet_sim::{NodeId, SimDuration};

/// Tunable knobs of the store-carry-forward layer, carried by the scenario
/// (`buffer=` / `ttl=` / `copies=` in a scenario spec).
///
/// The default values leave the 17 connected-path protocols untouched: a
/// protocol that never buffers a bundle never reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtnParams {
    /// Per-node bundle-buffer capacity: a bound, not a reservation. A
    /// buffer holds ≈264 B per slot it has ever occupied at once and scans
    /// only those, so a generous capacity costs nothing until it is used.
    pub buffer_capacity: usize,
    /// Bundle lifetime, measured from the bundle's creation time.
    pub bundle_ttl: SimDuration,
    /// Initial copy-ticket budget for spray-and-wait.
    pub copies: u32,
}

impl Default for DtnParams {
    fn default() -> Self {
        DtnParams {
            buffer_capacity: 32,
            bundle_ttl: SimDuration::from_secs(30.0),
            copies: 8,
        }
    }
}

impl DtnParams {
    /// Whether these are exactly the default parameters (used by the
    /// scenario's `Debug`/content-hash rendering to omit the field, keeping
    /// every pre-DTN scenario hash stable).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == DtnParams::default()
    }
}

/// The buffer-and-custody machinery shared by [`Epidemic`], [`Prophet`] and
/// [`SprayAndWait`] (and, minus the custody handshake, [`ProbFlood`]).
#[derive(Debug)]
pub(crate) struct DtnCore {
    /// The bounded bundle store.
    pub buffer: BundleBuffer,
    /// Bundle lifetime from creation.
    ttl: SimDuration,
    /// Keys of bundles this node has seen to their final destination
    /// (delivered here, or confirmed delivered by a destination custody
    /// ack). Advertised in summary vectors so peers stop offering them.
    delivered: BTreeSet<BundleKey>,
    /// Scratch for TTL expiry; reused so steady-state expiry keeps its
    /// capacity.
    expiry_scratch: Vec<Bundle>,
}

impl DtnCore {
    /// Creates the core with the given scenario knobs and eviction policy.
    #[must_use]
    pub fn new(params: DtnParams, policy: DropPolicy) -> Self {
        DtnCore {
            buffer: BundleBuffer::new(params.buffer_capacity, policy),
            ttl: params.bundle_ttl,
            delivered: BTreeSet::new(),
            expiry_scratch: Vec::new(),
        }
    }

    /// Buffers `packet` as a bundle, resolving capacity pressure through the
    /// drop policy and reporting every lifecycle event. Returns `true` when
    /// the packet is now buffered.
    pub fn store(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        packet: Packet,
        custody: bool,
        copies: u32,
    ) -> bool {
        let expires_at = packet.created_at + self.ttl;
        if expires_at <= ctx.now {
            ctx.drop_packet(&packet, DropReason::Expired);
            return false;
        }
        let bundle = Bundle {
            packet,
            stored_at: ctx.now,
            expires_at,
            custody,
            copies,
        };
        match self.buffer.insert(bundle) {
            InsertOutcome::Stored => {
                ctx.bundle_event(BundleOp::Stored, self.buffer.len());
                true
            }
            InsertOutcome::Evicted(evicted) => {
                ctx.drop_packet(&evicted.packet, DropReason::BufferOverflow);
                ctx.bundle_event(BundleOp::Evicted, self.buffer.len());
                ctx.bundle_event(BundleOp::Stored, self.buffer.len());
                true
            }
            InsertOutcome::Rejected(rejected) => {
                ctx.drop_packet(&rejected.packet, DropReason::BufferOverflow);
                false
            }
            InsertOutcome::Duplicate(duplicate) => {
                ctx.drop_packet(&duplicate.packet, DropReason::Duplicate);
                false
            }
        }
    }

    /// Discards every bundle whose TTL has run out (called from the
    /// maintenance tick, i.e. lazily at the deadlines the timer wheel
    /// already schedules).
    pub fn expire(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.expiry_scratch.clear();
        self.buffer.expire_due(ctx.now, &mut self.expiry_scratch);
        let occupancy = self.buffer.len();
        for bundle in self.expiry_scratch.drain(..) {
            ctx.drop_packet(&bundle.packet, DropReason::Expired);
            ctx.bundle_event(BundleOp::Expired, occupancy);
        }
    }

    /// Broadcasts this node's summary vector: the sorted `(origin, id)` keys
    /// of every bundle it holds or knows delivered, plus the caller's
    /// delivery predictabilities (PRoPHET; empty otherwise). Peers answer by
    /// transferring only the difference.
    pub fn broadcast_summary(
        &self,
        ctx: &mut ProtocolContext<'_>,
        predictabilities: Vec<(NodeId, f64)>,
    ) {
        let mut have: Vec<(NodeId, u64)> = self
            .buffer
            .iter()
            .map(|bundle| {
                let key = bundle.key();
                (key.origin, key.id)
            })
            .collect();
        have.extend(self.delivered.iter().map(|key| (key.origin, key.id)));
        have.sort_unstable();
        have.dedup();
        let packet = ctx.new_control_packet(PacketKind::SummaryVector {
            have,
            predictabilities,
        });
        ctx.transmit(packet);
    }

    /// Handles an incoming data packet for the custody-based protocols:
    /// delivers it at the destination (acking so the sender learns of the
    /// delivery), otherwise takes custody by storing it and acking the
    /// previous hop.
    pub fn receive_data(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, copies: u32) {
        let key = BundleKey::of(packet);
        if packet.destination == Some(ctx.node) {
            if self.delivered.insert(key) {
                ctx.deliver(packet);
            } else {
                ctx.drop_packet(packet, DropReason::Duplicate);
            }
            // Ack in both cases: the sender either releases custody or
            // learns (again) that the bundle is done.
            self.send_custody_ack(ctx, key, packet.prev_hop);
        } else if self.delivered.contains(&key) || self.buffer.contains(key) {
            ctx.drop_packet(packet, DropReason::Duplicate);
        } else if self.store(ctx, packet.clone(), true, copies) {
            self.send_custody_ack(ctx, key, packet.prev_hop);
        }
    }

    /// Unicasts a custody acknowledgement for `key` to `to`.
    fn send_custody_ack(&self, ctx: &mut ProtocolContext<'_>, key: BundleKey, to: NodeId) {
        let mut ack = ctx.new_control_packet(PacketKind::CustodyAck {
            origin: key.origin,
            bundle_id: key.id,
        });
        ack.next_hop = Some(to);
        ctx.transmit(ack);
    }

    /// Handles a custody ack from `from`: releases this node's custody of
    /// the bundle (one [`BundleOp::Custody`] per hand-over, at the releasing
    /// node), and if the ack came from the bundle's *destination* the bundle
    /// is done — record it delivered and free the slot.
    pub fn handle_custody_ack(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        from: NodeId,
        origin: NodeId,
        bundle_id: u64,
    ) {
        let key = BundleKey {
            origin,
            id: bundle_id,
        };
        let occupancy = self.buffer.len();
        let mut custody_released = false;
        let mut reached_destination = false;
        if let Some(bundle) = self.buffer.get_mut(key) {
            if bundle.custody {
                bundle.custody = false;
                custody_released = true;
            }
            reached_destination = bundle.packet.destination == Some(from);
        }
        if custody_released {
            ctx.bundle_event(BundleOp::Custody, occupancy);
        }
        if reached_destination {
            self.delivered.insert(key);
            self.buffer.remove(key);
        }
    }
}

/// Whether a sorted summary vector contains `key`.
///
/// Summary vectors are sorted by [`DtnCore::broadcast_summary`] before
/// transmission, so membership is a binary search.
#[must_use]
pub(crate) fn summary_contains(have: &[(NodeId, u64)], key: BundleKey) -> bool {
    have.binary_search(&(key.origin, key.id)).is_ok()
}
