//! Tricky negative: a binary's items are no library surface.

pub fn in_a_binary() {}

fn main() {}
