//! Named by no path outside this crate: `crate::unreached::Marker` is the
//! crate's own.

/// A type only this crate names.
pub struct Marker;
