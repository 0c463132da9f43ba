//! # vanet — Reliable Routing in Vehicular Ad hoc Networks
//!
//! A Rust reproduction of *"Reliable Routing in Vehicular Ad hoc Networks"*
//! (Gongjun Yan, Nathalie Mitton, Xu Li; 2010): a VANET discrete-event
//! simulator, the paper's analytic link-lifetime and probability models, and
//! working implementations of representative routing protocols from all five
//! families of its taxonomy (connectivity-, mobility-, infrastructure-,
//! geographic-location- and probability-model-based).
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event kernel (time, events, RNG, stats);
//! * [`mobility`] — vehicles, roads, highway and urban scenario generators;
//! * [`net`] — packets, propagation models, MAC, medium, neighbour discovery;
//! * [`links`] — link lifetime (Eq. 1–4), direction decomposition and the
//!   probability models of Sec. VII;
//! * [`routing`] — the seventeen protocol implementations;
//! * [`core`] — scenarios, the simulation driver, metrics and campaign plans.
//!
//! # Quickstart
//!
//! ```
//! use vanet::core::{run_scenario, ProtocolKind, Scenario};
//! use vanet::sim::SimDuration;
//!
//! let scenario = Scenario::highway(30)
//!     .with_flows(2)
//!     .with_duration(SimDuration::from_secs(20.0));
//! let report = run_scenario(scenario, ProtocolKind::Pbr);
//! println!("PBR delivered {:.0}% of packets", report.delivery_ratio * 100.0);
//! ```

#![warn(missing_docs)]

pub use vanet_core as core;
pub use vanet_links as links;
pub use vanet_mobility as mobility;
pub use vanet_net as net;
pub use vanet_routing as routing;
pub use vanet_sim as sim;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use vanet_core::{
        run_scenario, CampaignPlan, ChannelModel, ProtocolKind, ReplicationPolicy, Report,
        Scenario, Simulation, TrafficRegime,
    };
    pub use vanet_links::{
        link_lifetime_constant_speed, link_lifetime_planar, path_lifetime, LinkLifetime,
    };
    pub use vanet_mobility::{HighwayBuilder, MobilityModel, UrbanGridBuilder};
    pub use vanet_routing::{Category, RoutingProtocol};
    pub use vanet_sim::{NodeId, SimDuration, SimRng, SimTime};
}
