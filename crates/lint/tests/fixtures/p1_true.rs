// lint: hot-path
//! P1 true positives: unaudited allocations in a hot-path file.

pub fn step(ids: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    out.extend_from_slice(ids);
    out
}

pub fn index(n: usize) -> Map {
    Map::with_capacity_and_hasher(n, Default::default())
}
