//! # vanet-routing — the five routing families, plus store-carry-forward
//!
//! Implementations of representative protocols from every category of the
//! paper's taxonomy (Fig. 1), extended with the delay-tolerant
//! store-carry-forward family that takes over where connected-path routing
//! breaks down:
//!
//! | Category | Protocols |
//! |---|---|
//! | Connectivity-based | [`Flooding`], [`Biswas`], [`Aodv`], [`Dsdv`] |
//! | Mobility-based | [`Pbr`], [`Taleb`], [`Abedi`] |
//! | Infrastructure-based | [`Drr`], [`BusFerry`] |
//! | Geographic-location-based | [`Greedy`], [`Zone`], [`Rover`] |
//! | Probability-model-based | [`Yan`], [`Car`], [`Rear`], [`GvGrid`] |
//! | Store-carry-forward (DTN) | [`Epidemic`], [`Prophet`], [`SprayAndWait`], [`ProbFlood`] |
//!
//! Every protocol implements the event-driven [`RoutingProtocol`] trait and is
//! driven by the simulation layer in `vanet-core`.
//!
//! # Example
//!
//! ```
//! use vanet_routing::{aodv, RoutingProtocol, Category};
//!
//! let protocol = aodv();
//! assert_eq!(protocol.name(), "AODV");
//! assert_eq!(protocol.category(), Category::Connectivity);
//! ```

#![warn(missing_docs)]

pub mod aodv;
pub mod common;
pub mod dsdv;
pub mod dtn;
pub mod flooding;
pub mod geographic;
pub mod infrastructure;
pub mod mobility_protocols;
pub mod ondemand;
pub mod protocol;
#[cfg(test)]
pub(crate) mod testkit;
pub mod yan;
pub mod zone;

pub use aodv::{aodv, Aodv, AodvPolicy};
pub use common::{PendingBuffer, RouteEntry, RoutingTable, SeenCache};
pub use dsdv::Dsdv;
pub use dtn::{
    Bundle, BundleBuffer, BundleKey, DropPolicy, DtnParams, Epidemic, InsertOutcome, ProbFlood,
    Prophet, SprayAndWait,
};
pub use flooding::{Biswas, Flooding};
pub use geographic::{
    car, greedy, gvgrid, rear, Car, CarScorer, GeoRouting, Greedy, GreedyScorer, GvGrid,
    GvGridScorer, NextHopScorer, Rear, RearScorer,
};
pub use infrastructure::{BusFerry, Drr};
pub use mobility_protocols::{
    abedi, pbr, taleb, Abedi, AbediPolicy, Pbr, PbrPolicy, Taleb, TalebPolicy,
};
pub use ondemand::{DiscoveryPolicy, OnDemandConfig, OnDemandRouting};
pub use protocol::{
    Action, ActionSink, BundleOp, Category, DropReason, ProtocolContext, RoutingProtocol,
};
pub use yan::{TicketMetric, Yan, YanConfig};
pub use zone::{rover, Rover, RoverPolicy, Zone};
