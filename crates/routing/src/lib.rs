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

mod aodv;
mod common;
mod dsdv;
pub mod dtn;
mod flooding;
mod geographic;
mod infrastructure;
mod mobility_protocols;
mod ondemand;
mod protocol;
#[cfg(test)]
pub(crate) mod testkit;
mod yan;
mod zone;

pub use aodv::{aodv, Aodv, AodvPolicy};
pub use common::{RouteEntry, RoutingTable};
pub use dsdv::Dsdv;
pub use dtn::{DtnParams, Epidemic, ProbFlood, Prophet, SprayAndWait};
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
