//! AODV: Ad hoc On-demand Distance Vector routing (Perkins et al., RFC 3561),
//! the canonical connectivity-based protocol the paper uses as the baseline
//! that Abedi and DisjLi extend.
//!
//! Implemented as an [`OnDemandRouting`] instance whose policy ranks paths by
//! hop count alone and grants every discovered route a fixed active-route
//! timeout.

use crate::ondemand::{DiscoveryPolicy, OnDemandRouting};
use crate::protocol::{Category, ProtocolContext};
use vanet_net::Packet;
use vanet_sim::SimDuration;

/// The AODV discovery policy: shortest path (fewest hops), fixed route
/// lifetime, HELLO-based link sensing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AodvPolicy;

/// Active-route timeout, seconds.
const ROUTE_LIFETIME_S: f64 = 10.0;

impl DiscoveryPolicy for AodvPolicy {
    fn name(&self) -> &'static str {
        "AODV"
    }

    fn category(&self) -> Category {
        Category::Connectivity
    }

    fn link_metric(&self, _ctx: &ProtocolContext<'_>, _packet: &Packet) -> f64 {
        // Every link costs one hop; the path metric is the negated hop count
        // so that "higher is better" holds.
        -1.0
    }

    fn combine(&self, path_metric: f64, link_metric: f64) -> f64 {
        path_metric + link_metric
    }

    fn initial_metric(&self) -> f64 {
        0.0
    }

    fn route_lifetime(&self, _metric: f64) -> SimDuration {
        SimDuration::from_secs(ROUTE_LIFETIME_S)
    }
}

/// The AODV protocol type.
pub type Aodv = OnDemandRouting<AodvPolicy>;

/// Creates an AODV instance.
#[must_use]
pub fn aodv() -> Aodv {
    Aodv::new(AodvPolicy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RoutingProtocol;

    #[test]
    fn policy_prefers_fewer_hops() {
        let p = AodvPolicy;
        let two_hops = p.combine(p.combine(p.initial_metric(), -1.0), -1.0);
        let three_hops = p.combine(two_hops, -1.0);
        assert!(two_hops > three_hops);
    }

    #[test]
    fn protocol_identity() {
        let proto = aodv();
        assert_eq!(proto.name(), "AODV");
        assert_eq!(proto.category(), Category::Connectivity);
    }

    #[test]
    fn route_lifetime_is_fixed() {
        let p = AodvPolicy;
        assert_eq!(p.route_lifetime(-3.0), SimDuration::from_secs(10.0));
        assert_eq!(p.route_lifetime(-30.0), SimDuration::from_secs(10.0));
        assert!(!p.preemptive_rebuild());
    }
}
