//! # vanet-links — analytic link models
//!
//! This crate implements the analytical core of *Reliable Routing in Vehicular
//! Ad hoc Networks* (Yan, Mitton & Li, 2010):
//!
//! * **Link lifetime** (Sec. IV-A.1, Eqns. 1–4, Fig. 3): how long two vehicles
//!   stay within communication range `r` given their speeds, accelerations and
//!   initial separation — with closed forms for the constant-speed and
//!   constant-acceleration cases and a numeric integrator for arbitrary speed
//!   profiles and speed-limit clamping.
//! * **Direction of mobility** (Sec. IV-A.2, Fig. 4): decomposing the two
//!   velocity vectors along the inter-vehicle axis and its normal, the
//!   same-direction predicate and Taleb-style velocity-vector grouping.
//! * **Probability models** (Sec. VII): expected and mean link duration under
//!   normally distributed relative speed (Yan), link availability prediction
//!   (Jiang/Rao style, used by NiuDe and GVGrid), per-road-segment
//!   connectivity probability (CAR) and receipt probability from log-normal
//!   shadowing (REAR).
//! * **Path metrics**: the paper's rule that *the lifetime of a routing path
//!   is the minimum lifetime of all links involved*, plus reliability products
//!   and stability-constrained selection helpers.
//!
//! # Example
//!
//! ```
//! use vanet_links::lifetime::{link_lifetime_constant_speed, LinkBreakSide};
//!
//! // Vehicle i is 50 m behind j and closing at 5 m/s with a 250 m radio range:
//! // it first has to cover 250 − (−50)... in fact the link breaks when i is
//! // 250 m *ahead*, i.e. after travelling 300 m relative: 60 s.
//! let lt = link_lifetime_constant_speed(-50.0, 30.0, 25.0, 250.0);
//! assert!((lt.duration_s - 60.0).abs() < 1e-9);
//! assert_eq!(lt.side, LinkBreakSide::Ahead);
//! ```

#![warn(missing_docs)]

pub mod direction;
pub mod lifetime;
pub mod path;
pub mod probability;

pub use direction::{same_direction, velocity_projection, DirectionGroup};
pub use lifetime::{
    link_lifetime_constant_acceleration, link_lifetime_constant_speed, link_lifetime_planar,
    LinkLifetime,
};
pub use path::{path_lifetime, path_reliability, PathMetrics};
pub use probability::expected_link_duration;
