//! # vanet-mobility — vehicle mobility substrate
//!
//! Vehicular ad hoc networks differ from other MANET instances chiefly in
//! their mobility: vehicles move fast, follow roads, obey speed limits and
//! interact with one another (car-following, lane changes). This crate
//! provides the mobility substrate the paper's routing analysis rests on:
//!
//! * 2-D geometry primitives ([`Position`], [`Velocity`], [`Vec2`]);
//! * in-house probability distributions (normal, truncated normal,
//!   exponential, Poisson) used for speeds, headways and arrivals;
//! * vehicle state and kinds ([`VehicleState`], [`VehicleKind`]);
//! * scenario generators: a multi-lane bidirectional [`highway`] and a
//!   Manhattan-grid [`urban`] network, with IDM-style car-following so that
//!   congestion emerges from density rather than being scripted.
//!
//! # Example
//!
//! ```
//! use vanet_mobility::{HighwayBuilder, MobilityModel};
//! use vanet_sim::{SimDuration, SimRng};
//!
//! let mut rng = SimRng::new(1);
//! let mut highway = HighwayBuilder::new()
//!     .length_m(2_000.0)
//!     .vehicles(40)
//!     .build(&mut rng);
//! highway.step(SimDuration::from_secs(1.0), &mut rng);
//! assert_eq!(highway.len(), 40);
//! // The model keeps no snapshot: a vehicle's state is computed when asked.
//! let first = highway.state(0);
//! assert!(highway.bounds().contains(first.position));
//! ```

#![warn(missing_docs)]

pub mod car_following;
pub mod distributions;
pub mod geometry;
pub mod highway;
pub mod model;
pub mod urban;
pub mod vehicle;

pub use car_following::IdmParams;
pub use distributions::{Exponential, Normal, Poisson, TruncatedNormal};
pub use geometry::{Heading, Position, Vec2, Velocity};
pub use highway::{HighwayBuilder, HighwayModel};
pub use model::{MobilityModel, RegionBounds};
pub use urban::{UrbanGridBuilder, UrbanGridModel};
pub use vehicle::{VehicleKind, VehicleState};
