//! # vanet-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by every other crate in
//! the `vanet` workspace: simulation time, a deterministic event scheduler,
//! seeded random-number streams and a small statistics toolkit.
//!
//! The kernel is intentionally independent of any networking or mobility
//! concept so that it can be unit-tested in isolation and reused for both the
//! packet-level simulation (`vanet-net`) and the mobility updates
//! (`vanet-mobility`).
//!
//! # Example
//!
//! ```
//! use vanet_sim::{Scheduler, SimTime};
//!
//! let mut scheduler = Scheduler::new();
//! scheduler.schedule_at(SimTime::from_secs(2.0), "world").unwrap();
//! scheduler.schedule_at(SimTime::from_secs(1.0), "hello").unwrap();
//! let (t, msg) = scheduler.next_event().unwrap();
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(msg, "hello");
//! ```

#![warn(missing_docs)]

mod error;
mod event;
mod floor;
mod hash;
mod ids;
pub mod pool;
mod rng;
mod scheduler;
mod stats;
mod time;
mod wheel;
mod window;

pub use error::SimError;
pub use event::EventKey;
pub use floor::floor_i64;
pub use hash::{stable_hash_str, StableHasher};
pub use ids::{FlowId, NodeId, PacketId, PacketIdAllocator, SeqNo};

pub use rng::SimRng;
pub use scheduler::Scheduler;
pub use stats::{Counter, RunningStats};
pub use time::{SimDuration, SimTime};
pub use window::WindowClock;
