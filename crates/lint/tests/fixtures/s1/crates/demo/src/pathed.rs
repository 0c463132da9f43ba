//! Reached as `vanet_demo::pathed::Marker` from `tests/it.rs`.

/// A type another crate names through this module.
pub struct Marker;
