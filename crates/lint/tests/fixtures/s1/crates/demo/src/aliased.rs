//! Reached as `vanet::demo::aliased::Marker` from `examples/ex.rs`.

/// A type another crate names through this module.
pub struct Marker;
