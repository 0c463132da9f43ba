//! Mobility-based routing protocols (Sec. IV): PBR, Taleb and Abedi.
//!
//! All three reuse the on-demand discovery skeleton; what changes is the path
//! metric and the forwarding filter:
//!
//! * **PBR** (Namboodiri & Gao): each link is scored by its *predicted
//!   lifetime* (the paper's Eq. 1–4 model evaluated on the piggybacked
//!   position/velocity of the transmitter); the path metric is the minimum
//!   link lifetime; the route's validity period equals its predicted lifetime
//!   and the source preemptively re-discovers shortly before expiry.
//! * **Taleb** et al.: vehicles are grouped by their velocity vectors; route
//!   requests are only relayed over links whose endpoints belong to the same
//!   velocity group (links between groups are assumed short-lived), and the
//!   most stable (longest-minimum-lifetime) path is selected.
//! * **Abedi** et al.: AODV enhanced with mobility parameters — next hops are
//!   scored by direction first, position second and speed third.

use crate::aodv::AodvPolicy;
use crate::ondemand::{DiscoveryPolicy, OnDemandRouting};
use crate::protocol::{Category, ProtocolContext};
use vanet_links::direction::DirectionGroup;
use vanet_links::lifetime::link_lifetime_planar;
use vanet_mobility::geometry::distance;
use vanet_net::Packet;
use vanet_sim::SimDuration;

/// Predicted lifetime (seconds) of the link from the node that transmitted
/// `packet` to the node described by `ctx`, using the constant-velocity
/// planar model. Falls back to a pessimistic 1 s when the packet carries no
/// mobility information.
fn predicted_link_lifetime(ctx: &ProtocolContext<'_>, packet: &Packet) -> f64 {
    match (packet.sender_position, packet.sender_velocity) {
        (Some(pos), Some(vel)) => {
            let lt = link_lifetime_planar(ctx.position(), ctx.velocity(), pos, vel, ctx.range_m);
            if lt.is_finite() {
                lt.duration_s
            } else {
                3_600.0
            }
        }
        _ => 1.0,
    }
}

/// PBR: prediction-based routing on predicted link lifetimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbrPolicy;

/// Cap applied to predicted PBR route lifetimes, seconds (routes are
/// refreshed at least this often even if the prediction says "forever").
const PBR_MAX_ROUTE_LIFETIME_S: f64 = 60.0;

impl DiscoveryPolicy for PbrPolicy {
    fn name(&self) -> &'static str {
        "PBR"
    }

    fn category(&self) -> Category {
        Category::Mobility
    }

    fn link_metric(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> f64 {
        predicted_link_lifetime(ctx, packet)
    }

    fn route_lifetime(&self, metric: f64) -> SimDuration {
        // The route is valid for its predicted path lifetime (bounded).
        SimDuration::from_secs_saturating(metric)
            .min(SimDuration::from_secs(PBR_MAX_ROUTE_LIFETIME_S))
    }

    fn preemptive_rebuild(&self) -> bool {
        true
    }
}

/// The PBR protocol type.
pub type Pbr = OnDemandRouting<PbrPolicy>;

/// Creates a PBR instance.
#[must_use]
pub fn pbr() -> Pbr {
    Pbr::new(PbrPolicy)
}

/// Taleb et al.: velocity-vector grouping.
///
/// Cross-group relaying is never permitted: the strict grouping of the
/// original proposal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TalebPolicy;

/// Taleb route lifetime cap, seconds.
const TALEB_MAX_ROUTE_LIFETIME_S: f64 = 30.0;

impl DiscoveryPolicy for TalebPolicy {
    fn name(&self) -> &'static str {
        "Taleb"
    }

    fn category(&self) -> Category {
        Category::Mobility
    }

    fn link_metric(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> f64 {
        let lifetime = predicted_link_lifetime(ctx, packet);
        let same_group = packet
            .sender_velocity
            .map(|v| DirectionGroup::same_group(v, ctx.velocity()))
            .unwrap_or(false);
        // Links within the same velocity group are trusted at face value;
        // cross-group links are heavily discounted (they are the ones that
        // break when traffic motions diverge).
        if same_group {
            lifetime
        } else {
            lifetime * 0.2
        }
    }

    fn should_forward_request(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> bool {
        match packet.sender_velocity {
            Some(v) => DirectionGroup::same_group(v, ctx.velocity()),
            None => true,
        }
    }

    fn route_lifetime(&self, metric: f64) -> SimDuration {
        SimDuration::from_secs_saturating(metric)
            .min(SimDuration::from_secs(TALEB_MAX_ROUTE_LIFETIME_S))
    }

    fn preemptive_rebuild(&self) -> bool {
        true
    }
}

/// The Taleb protocol type.
pub type Taleb = OnDemandRouting<TalebPolicy>;

/// Creates a Taleb instance.
#[must_use]
pub fn taleb() -> Taleb {
    Taleb::new(TalebPolicy)
}

/// Abedi et al.: AODV with mobility-parameter next-hop scoring
/// (direction > position > speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbediPolicy;

/// Weight of Abedi's direction term.
const ABEDI_DIRECTION_WEIGHT: f64 = 100.0;
/// Weight of Abedi's position (progress) term.
const ABEDI_POSITION_WEIGHT: f64 = 10.0;
/// Weight of Abedi's speed-similarity term.
const ABEDI_SPEED_WEIGHT: f64 = 1.0;

impl DiscoveryPolicy for AbediPolicy {
    fn name(&self) -> &'static str {
        "Abedi"
    }

    fn category(&self) -> Category {
        Category::Mobility
    }

    fn link_metric(&self, ctx: &ProtocolContext<'_>, packet: &Packet) -> f64 {
        let mut score = 0.0;
        if let Some(v) = packet.sender_velocity {
            // Direction: most important — same direction as this node.
            if v.dot(ctx.velocity()) > 0.0 || v.norm() == 0.0 || ctx.state().speed() == 0.0 {
                score += ABEDI_DIRECTION_WEIGHT;
            }
            // Speed similarity: small relative speed is better.
            let rel = (v - ctx.velocity()).norm();
            score += ABEDI_SPEED_WEIGHT * (30.0 - rel).max(0.0) / 30.0;
        }
        // Position: progress towards the destination zone if known.
        if let (Some(sender_pos), Some(geo)) = (packet.sender_position, packet.geo) {
            let before = distance(sender_pos, geo.position);
            let after = distance(ctx.position(), geo.position);
            if after < before {
                score += ABEDI_POSITION_WEIGHT * ((before - after) / ctx.range_m).clamp(0.0, 1.0);
            }
        }
        score
    }

    fn route_lifetime(&self, metric: f64) -> SimDuration {
        AodvPolicy.route_lifetime(metric)
    }
}

/// The Abedi protocol type.
pub type Abedi = OnDemandRouting<AbediPolicy>;

/// Creates an Abedi instance.
#[must_use]
pub fn abedi() -> Abedi {
    Abedi::new(AbediPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RoutingProtocol;
    use crate::testkit::Harness;
    use vanet_mobility::{Vec2, VehicleKind};
    use vanet_net::{GeoAddress, PacketKind};
    use vanet_sim::NodeId;

    /// Car 1 at x = 100 m, driving east at 30 m/s.
    fn eastbound() -> Harness {
        let mut h = Harness::new(1);
        h.place(
            1,
            VehicleKind::Car,
            Vec2::new(100.0, 0.0),
            Vec2::new(30.0, 0.0),
        );
        h
    }

    fn rreq_with_mobility(from: u32, pos: Vec2, vel: Vec2) -> Packet {
        let mut p = Packet::broadcast(
            NodeId(from),
            PacketKind::RouteRequest {
                target: NodeId(99),
                request_id: 1,
                hop_count: 0,
                path: vec![NodeId(from)],
                metric: f64::INFINITY,
            },
            0,
        );
        p.sender_position = Some(pos);
        p.sender_velocity = Some(vel);
        p
    }

    #[test]
    fn pbr_scores_stable_links_higher() {
        let policy = PbrPolicy;
        let mut h = eastbound();
        let ctx = h.ctx(1.0);
        // Same-direction neighbour just behind: long lifetime.
        let same = rreq_with_mobility(2, Vec2::new(50.0, 0.0), Vec2::new(29.0, 0.0));
        // Opposite-direction neighbour: short lifetime.
        let opposite = rreq_with_mobility(3, Vec2::new(50.0, 4.0), Vec2::new(-30.0, 0.0));
        let m_same = policy.link_metric(&ctx, &same);
        let m_opp = policy.link_metric(&ctx, &opposite);
        assert!(
            m_same > 10.0 * m_opp,
            "same-direction link must score much higher"
        );
        // Route lifetime follows the metric but is capped.
        assert_eq!(policy.route_lifetime(1_000.0), SimDuration::from_secs(60.0));
        assert!(policy.route_lifetime(5.0) < SimDuration::from_secs(6.0));
        assert!(policy.preemptive_rebuild());
    }

    #[test]
    fn pbr_without_mobility_information_is_pessimistic() {
        let policy = PbrPolicy;
        let mut h = eastbound();
        let ctx = h.ctx(1.0);
        let mut bare = rreq_with_mobility(2, Vec2::ZERO, Vec2::ZERO);
        bare.sender_position = None;
        bare.sender_velocity = None;
        assert_eq!(policy.link_metric(&ctx, &bare), 1.0);
    }

    #[test]
    fn taleb_filters_cross_group_forwarding() {
        let policy = TalebPolicy;
        let mut h = eastbound();
        let ctx = h.ctx(1.0);
        let same_group = rreq_with_mobility(2, Vec2::new(50.0, 0.0), Vec2::new(25.0, 0.0));
        let other_group = rreq_with_mobility(3, Vec2::new(50.0, 4.0), Vec2::new(-25.0, 0.0));
        assert!(policy.should_forward_request(&ctx, &same_group));
        assert!(!policy.should_forward_request(&ctx, &other_group));
        // Cross-group links are discounted even when relayed.
        assert!(policy.link_metric(&ctx, &same_group) > policy.link_metric(&ctx, &other_group));
    }

    #[test]
    fn abedi_weights_direction_over_position_over_speed() {
        let policy = AbediPolicy;
        let mut h = eastbound();
        let ctx = h.ctx(1.0);

        let mut same_dir = rreq_with_mobility(2, Vec2::new(200.0, 0.0), Vec2::new(28.0, 0.0));
        same_dir.geo = Some(GeoAddress {
            position: Vec2::new(1_000.0, 0.0),
            zone_radius: 250.0,
        });
        let mut opposite = rreq_with_mobility(3, Vec2::new(200.0, 0.0), Vec2::new(-28.0, 0.0));
        opposite.geo = same_dir.geo;

        let s_same = policy.link_metric(&ctx, &same_dir);
        let s_opp = policy.link_metric(&ctx, &opposite);
        assert!(
            s_same - s_opp >= ABEDI_DIRECTION_WEIGHT * 0.9,
            "direction term must dominate: {s_same} vs {s_opp}"
        );
    }

    #[test]
    fn protocol_identities() {
        assert_eq!(pbr().name(), "PBR");
        assert_eq!(pbr().category(), Category::Mobility);
        assert_eq!(taleb().name(), "Taleb");
        assert_eq!(taleb().category(), Category::Mobility);
        assert_eq!(abedi().name(), "Abedi");
        assert_eq!(abedi().category(), Category::Mobility);
    }
}
