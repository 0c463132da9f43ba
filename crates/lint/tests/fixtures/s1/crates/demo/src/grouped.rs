//! Reached as `grouped::Marker` in a `use vanet_demo::{…}` group from
//! `benchmark/src/main.rs`.

/// A type another crate names through this module.
pub struct Marker;
