//! # vanet-net — wireless network substrate
//!
//! Packets, propagation models, a simplified contention-based MAC, the shared
//! wireless medium and neighbour discovery. This crate models the two radio
//! effects the paper's reliability argument rests on:
//!
//! 1. **Bounded communication range** (FCC-mandated short range): links break
//!    when the inter-vehicle distance exceeds the range `r` — this is Eq. (4)
//!    of the paper and the root cause of route breakage.
//! 2. **Broadcast congestion**: rebroadcast-based discovery floods the channel
//!    and collides (the *broadcast storm problem*), which is what makes pure
//!    connectivity-based routing degrade at high density (Table I).
//!
//! # Example
//!
//! ```
//! use vanet_net::{Medium, MediumConfig, Packet, PacketKind, SpatialGrid, UnitDisk};
//! use vanet_mobility::Vec2;
//! use vanet_sim::{NodeId, SimRng, SimTime};
//!
//! let mut medium = Medium::new(MediumConfig::default(), Box::new(UnitDisk::new(250.0)));
//! let packet = Packet::broadcast(NodeId(0), PacketKind::Hello, 64);
//! let nodes = [
//!     (NodeId(0), Vec2::ZERO),
//!     (NodeId(1), Vec2::new(100.0, 0.0)),
//!     (NodeId(2), Vec2::new(500.0, 0.0)),
//! ];
//! // The grid's cell size must cover the channel's maximum range.
//! let grid = SpatialGrid::build(250.0, &nodes);
//! let (mut rng, mut deliveries) = (SimRng::new(7), Vec::new());
//! medium.transmit_indexed_into(
//!     SimTime::ZERO, NodeId(0), Vec2::ZERO, &packet, &grid, &mut rng, &mut deliveries,
//! );
//! assert_eq!(deliveries.len(), 1, "only the node within 250 m receives the frame");
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod channel;
pub mod grid;
pub mod mac;
pub mod medium;
pub mod neighbor;
pub mod packet;

pub use arena::{ArenaOccupancy, ArenaTable, NeighborArena, NeighborView, Reception};
pub use channel::{LogNormalShadowing, PropagationModel, UnitDisk};
pub use grid::{GridOccupancy, SpatialGrid};
pub use mac::MacParams;
pub use medium::{Delivery, InterferenceCounts, Medium, MediumConfig, MediumStats, WindowCounts};
pub use neighbor::{BeaconConfig, NeighborInfo, NeighborTable};
pub use packet::{GeoAddress, Packet, PacketKind, RouteRecord};
