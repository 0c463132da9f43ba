//! A uniform-grid spatial index over node positions.
//!
//! [`Medium::transmit`](crate::Medium::transmit) scans *every* node it is
//! handed for each frame, so its per-transmission cost grows with total
//! fleet size even though a frame can only reach nodes within the
//! propagation model's maximum range. [`SpatialGrid`] hashes nodes into square
//! cells sized to that range; a range query then inspects only the 3×3 block
//! of cells around the transmitter, making the cost proportional to the local
//! node density instead of the global population.
//!
//! A query returns exactly the nodes within the radius — the banded range
//! test of [`WithinFilter`] is applied while the block is gathered — sorted
//! by [`NodeId`], which is the set the exhaustive scan keeps and the order it
//! visits it in. That is what lets the indexed transmit path consume the RNG
//! identically to the exhaustive scan and reproduce its results bit for bit.
//!
//! The grid is maintained *incrementally*: [`SpatialGrid::update`] moves one
//! node between cells (or adjusts its stored position in place when the cell
//! is unchanged), so a mobility step costs one O(cell-occupancy) operation
//! per node that actually moved instead of a full rebuild plus a collected
//! position `Vec`. Buckets are kept sorted by [`NodeId`] — ordered inserts
//! and removes cost a few-hundred-byte `memmove` on a cell's occupants, and
//! in exchange a range query is a merge of at most nine already-sorted runs,
//! each holding only its bucket's in-range nodes (a third to two thirds of
//! the 3×3 block), instead of a copy-then-sort of the whole block.
//! A full [`SpatialGrid::build`] is only needed when the cell size changes —
//! in the simulation the cell size is the propagation model's maximum range,
//! fixed for the lifetime of a run.

// lint: hot-path

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use vanet_mobility::geometry::WithinFilter;
use vanet_mobility::Position;
use vanet_sim::NodeId;

/// The cell of a `cell_m`-sized uniform grid that `pos` falls in.
pub(crate) fn cell_of(cell_m: f64, pos: Position) -> (i64, i64) {
    (
        (pos.x / cell_m).floor() as i64,
        (pos.y / cell_m).floor() as i64,
    )
}

/// A map keyed by grid cell: the storage behind [`SpatialGrid`] and the
/// medium's recent-transmission index. Every transmission looks up the nine
/// cells around its sender in each, so the hash is a measurable part of the
/// frame: [`CellHasher`] is two multiplies per key where the standard
/// library's SipHash is a keyed, DoS-resistant construction — protection
/// that buys nothing for keys the simulator computes itself from node
/// positions. It is also fixed, so map layout does not vary from one process
/// to the next (the maps' users still let no iteration order reach a result:
/// see the allows at each use).
pub(crate) type CellMap<V> = HashMap<(i64, i64), V, BuildHasherDefault<CellHasher>>;

/// An Fx-style multiplicative hasher for [`CellMap`] keys: per 64-bit word
/// (an `i64` coordinate arrives through `write_u64`), rotate, xor, multiply
/// by an odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A uniform grid of square cells indexing node positions.
#[derive(Debug, Clone, Default)]
pub struct SpatialGrid {
    cell_m: f64,
    // lint: allow(D1) — buckets are read only by keyed 3×3-block lookup and
    // each bucket is kept NodeId-sorted, so map order never reaches a query
    // result; pinned by `candidates_are_sorted_by_node_id` and
    // `incremental_updates_match_a_fresh_build`.
    buckets: CellMap<Vec<(NodeId, Position)>>,
    len: usize,
    /// Bumped by every [`SpatialGrid::update`]: equal generations of one
    /// grid answer every query identically.
    generation: u64,
}

impl SpatialGrid {
    /// Builds a grid with `cell_m`-sized cells over `nodes`.
    ///
    /// Pick `cell_m` equal to the largest query radius you intend to use:
    /// [`SpatialGrid::candidates_within`] only inspects the 3×3 cell block
    /// around the query point, which covers every point within one cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not strictly positive and finite.
    #[must_use]
    pub fn build(cell_m: f64, nodes: &[(NodeId, Position)]) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell size must be positive and finite"
        );
        // Two passes: count cell occupancy first, then place. At megacity
        // scale the counting pass lets every bucket (and the map itself) be
        // allocated exactly once instead of growing organically through
        // ~log(occupancy) reallocations per cell.
        // lint: allow(D1) — build-time scratch; only per-cell counts leave
        // it (below), never an ordering.
        let mut occupancy: CellMap<usize> =
            // lint: allow(P1) — build() runs once per run (cell size is
            // fixed); the steady state goes through `update`.
            CellMap::with_capacity_and_hasher(nodes.len(), Default::default());
        for &(_, pos) in nodes {
            *occupancy.entry(cell_of(cell_m, pos)).or_insert(0) += 1;
        }
        // lint: allow(D1) — see the field declaration: keyed lookup only,
        // buckets individually sorted before any query can observe them.
        let mut buckets: CellMap<Vec<(NodeId, Position)>> =
            // lint: allow(P1) — build-time, exact size.
            CellMap::with_capacity_and_hasher(occupancy.len(), Default::default());

        // lint: allow(D1) — insertion order into a map is unobservable; each
        // (cell, count) lands at its own key.
        for (cell, count) in occupancy {
            // lint: allow(P1) — build-time, exact-size bucket allocation.
            buckets.insert(cell, Vec::with_capacity(count));
        }
        for &(id, pos) in nodes {
            buckets
                .entry(cell_of(cell_m, pos))
                .or_default()
                .push((id, pos));
        }
        // lint: allow(D1) — each bucket is sorted independently; visit order
        // cannot affect the per-bucket result (pinned by
        // `candidates_are_sorted_by_node_id`).
        for bucket in buckets.values_mut() {
            bucket.sort_unstable_by_key(|&(id, _)| id);
        }
        SpatialGrid {
            cell_m,
            buckets,
            len: nodes.len(),
            generation: 0,
        }
    }

    /// Moves one indexed node from `old_pos` to `new_pos`.
    ///
    /// When both positions hash to the same cell the stored position is
    /// updated in place; otherwise the node is removed from its old bucket
    /// and spliced into id-order in the new one (each a small `memmove` over
    /// a cell's occupants). Steady state allocates nothing: bucket capacity
    /// is retained, and a fresh cell's bucket is the only occasional
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the node is not indexed at `old_pos` — callers must pass
    /// exactly the position the node was last built or updated with.
    pub fn update(&mut self, id: NodeId, old_pos: Position, new_pos: Position) {
        self.generation += 1;
        let old_cell = cell_of(self.cell_m, old_pos);
        let new_cell = cell_of(self.cell_m, new_pos);
        if old_cell == new_cell {
            let bucket = self
                .buckets
                .get_mut(&old_cell)
                .unwrap_or_else(|| panic!("node {id:?} not indexed in cell {old_cell:?}"));
            let at = bucket
                .binary_search_by_key(&id, |&(i, _)| i)
                .unwrap_or_else(|_| panic!("node {id:?} not indexed in cell {old_cell:?}"));
            bucket[at].1 = new_pos;
            return;
        }
        let old_bucket = self
            .buckets
            .get_mut(&old_cell)
            .unwrap_or_else(|| panic!("node {id:?} not indexed in cell {old_cell:?}"));
        let at = old_bucket
            .binary_search_by_key(&id, |&(i, _)| i)
            .unwrap_or_else(|_| panic!("node {id:?} not indexed in cell {old_cell:?}"));
        old_bucket.remove(at);
        let new_bucket = self.buckets.entry(new_cell).or_default();
        let at = new_bucket
            .binary_search_by_key(&id, |&(i, _)| i)
            .unwrap_or_else(|i| i);
        new_bucket.insert(at, (id, new_pos));
    }

    /// How many [`SpatialGrid::update`]s this grid has absorbed: the medium
    /// reuses a candidate query while this is unchanged.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of indexed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell size the grid was built with, metres.
    #[must_use]
    pub fn cell_size_m(&self) -> f64 {
        self.cell_m
    }

    /// Exactly the indexed nodes `within(center, position, radius_m)`, sorted
    /// by node id. Allocates its buffers: the form for tests and one-off
    /// queries.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` exceeds the grid's cell size: the 3×3 block scan
    /// would miss nodes further than one cell away.
    #[must_use]
    pub fn candidates_within(&self, center: Position, radius_m: f64) -> Vec<(NodeId, Position)> {
        // lint: allow(P1) — convenience form; the transmit path owns both
        // buffers and calls `candidates_within_scratch`.
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        self.candidates_within_scratch(center, radius_m, &mut out, &mut scratch);
        out
    }

    /// Clears `out` and fills it with exactly the indexed nodes
    /// `within(center, position, radius_m)`, in ascending id order. Both
    /// buffers are the caller's, so nothing is allocated once they have
    /// warmed up — the form the transmit hot path uses.
    ///
    /// The buckets of the 3×3 block are individually id-sorted. Each is
    /// gathered through the banded range test, so only in-range nodes — a
    /// third to two thirds of the block — enter the merge; the surviving
    /// runs are then merged bottom-up, pairs at a time, ping-ponging between
    /// `out` and `scratch`. Ids are unique across buckets, so the result is
    /// exactly the ascending sequence a filter-copy-sort would produce, at a
    /// fraction of the comparisons.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` exceeds the grid's cell size.
    pub fn candidates_within_scratch(
        &self,
        center: Position,
        radius_m: f64,
        out: &mut Vec<(NodeId, Position)>,
        scratch: &mut Vec<(NodeId, Position)>,
    ) {
        assert!(
            radius_m <= self.cell_m,
            "query radius {radius_m} exceeds grid cell size {}",
            self.cell_m
        );
        out.clear();
        let (cx, cy) = cell_of(self.cell_m, center);
        // Gather: concatenate the in-range part of each bucket, recording
        // the bounds of the non-empty runs.
        let in_range = WithinFilter::new(radius_m);
        let mut bounds = [0usize; 10];
        let mut runs = 0;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) {
                    let start = out.len();
                    out.extend(
                        bucket
                            .iter()
                            .filter(|&&(_, pos)| in_range.check(center, pos)),
                    );
                    if out.len() > start {
                        runs += 1;
                        bounds[runs] = out.len();
                    }
                }
            }
        }
        // Merge passes: halve the run count until one ascending run remains.
        while runs > 1 {
            scratch.clear();
            let mut new_bounds = [0usize; 10];
            let mut new_runs = 0;
            let mut r = 0;
            while r + 1 < runs {
                let (mut i, iend) = (bounds[r], bounds[r + 1]);
                let (mut j, jend) = (bounds[r + 1], bounds[r + 2]);
                while i < iend && j < jend {
                    if out[i].0 < out[j].0 {
                        scratch.push(out[i]);
                        i += 1;
                    } else {
                        scratch.push(out[j]);
                        j += 1;
                    }
                }
                scratch.extend_from_slice(&out[i..iend]);
                scratch.extend_from_slice(&out[j..jend]);
                new_runs += 1;
                new_bounds[new_runs] = scratch.len();
                r += 2;
            }
            if r < runs {
                scratch.extend_from_slice(&out[bounds[r]..bounds[r + 1]]);
                new_runs += 1;
                new_bounds[new_runs] = scratch.len();
            }
            std::mem::swap(out, scratch);
            bounds = new_bounds;
            runs = new_runs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mobility::geometry::distance;
    use vanet_mobility::Vec2;
    use vanet_sim::SimRng;

    fn random_nodes(n: usize, extent: f64, seed: u64) -> Vec<(NodeId, Position)> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|i| {
                (
                    NodeId(i as u32),
                    Vec2::new(
                        rng.uniform_range(0.0, extent),
                        rng.uniform_range(0.0, extent),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn query_finds_every_node_in_range() {
        let nodes = random_nodes(300, 3_000.0, 1);
        let grid = SpatialGrid::build(250.0, &nodes);
        assert_eq!(grid.len(), 300);
        for &(_, center) in nodes.iter().step_by(17) {
            // Exactly those, and in the node list's (ascending id) order;
            // also at a radius smaller than the cell.
            for radius in [250.0, 90.0] {
                let expect: Vec<(NodeId, Position)> = nodes
                    .iter()
                    .copied()
                    .filter(|&(_, p)| distance(center, p) <= radius)
                    .collect();
                assert_eq!(grid.candidates_within(center, radius), expect);
            }
        }
    }

    #[test]
    fn candidates_are_sorted_by_node_id() {
        let nodes = random_nodes(120, 400.0, 2);
        let grid = SpatialGrid::build(250.0, &nodes);
        let candidates = grid.candidates_within(Vec2::new(200.0, 200.0), 250.0);
        assert!(candidates.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(!candidates.is_empty());
    }

    #[test]
    fn negative_coordinates_are_indexed() {
        let nodes = vec![
            (NodeId(0), Vec2::new(-10.0, -10.0)),
            (NodeId(1), Vec2::new(-240.0, 0.0)),
            (NodeId(2), Vec2::new(300.0, 300.0)),
        ];
        let grid = SpatialGrid::build(250.0, &nodes);
        let near_origin = grid.candidates_within(Vec2::ZERO, 250.0);
        assert!(near_origin.iter().any(|&(id, _)| id == NodeId(0)));
        assert!(near_origin.iter().any(|&(id, _)| id == NodeId(1)));
    }

    #[test]
    fn empty_grid_queries_are_empty() {
        let grid = SpatialGrid::build(100.0, &[]);
        assert!(grid.is_empty());
        assert!(grid.candidates_within(Vec2::ZERO, 100.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds grid cell size")]
    fn oversized_radius_panics() {
        let grid = SpatialGrid::build(100.0, &[]);
        let _ = grid.candidates_within(Vec2::ZERO, 150.0);
    }

    #[test]
    fn update_moves_nodes_between_cells() {
        let mut grid = SpatialGrid::build(
            100.0,
            &[
                (NodeId(0), Vec2::new(10.0, 10.0)),
                (NodeId(1), Vec2::new(50.0, 50.0)),
            ],
        );
        // Same-cell move: position updates in place.
        grid.update(NodeId(0), Vec2::new(10.0, 10.0), Vec2::new(20.0, 20.0));
        // Cross-cell move far away: node leaves the origin neighbourhood.
        grid.update(NodeId(1), Vec2::new(50.0, 50.0), Vec2::new(950.0, 950.0));
        assert_eq!(grid.len(), 2);
        let near = grid.candidates_within(Vec2::ZERO, 100.0);
        assert_eq!(near, vec![(NodeId(0), Vec2::new(20.0, 20.0))]);
        let far = grid.candidates_within(Vec2::new(940.0, 940.0), 100.0);
        assert_eq!(far, vec![(NodeId(1), Vec2::new(950.0, 950.0))]);
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn update_with_a_wrong_old_position_panics() {
        let mut grid = SpatialGrid::build(100.0, &[(NodeId(0), Vec2::new(10.0, 10.0))]);
        grid.update(NodeId(0), Vec2::new(500.0, 500.0), Vec2::ZERO);
    }

    /// The satellite property: after a randomised sequence of incremental
    /// moves, queries against the updated grid equal queries against a grid
    /// freshly built from the final positions — same ids, same order (the
    /// NodeId-sorted order deterministic RNG consumption depends on).
    #[test]
    fn incremental_updates_match_a_fresh_build() {
        let mut rng = SimRng::new(0x9a1d);
        for case in 0..20 {
            let extent = 2_000.0;
            let cell = 250.0;
            let mut nodes = random_nodes(150, extent, 1_000 + case);
            let mut grid = SpatialGrid::build(cell, &nodes);
            for _ in 0..600 {
                let at = rng.uniform_usize(nodes.len());
                let (id, old_pos) = nodes[at];
                // Mix of small jitters (usually same cell) and long jumps.
                let new_pos = if rng.chance(0.2) {
                    Vec2::new(
                        rng.uniform_range(-300.0, extent + 300.0),
                        rng.uniform_range(-300.0, extent + 300.0),
                    )
                } else {
                    old_pos
                        + Vec2::new(
                            rng.uniform_range(-40.0, 40.0),
                            rng.uniform_range(-40.0, 40.0),
                        )
                };
                grid.update(id, old_pos, new_pos);
                nodes[at] = (id, new_pos);
            }
            let fresh = SpatialGrid::build(cell, &nodes);
            assert_eq!(grid.len(), fresh.len());
            for _ in 0..40 {
                let center = Vec2::new(
                    rng.uniform_range(-100.0, extent + 100.0),
                    rng.uniform_range(-100.0, extent + 100.0),
                );
                assert_eq!(
                    grid.candidates_within(center, cell),
                    fresh.candidates_within(center, cell),
                    "case {case}: incremental grid diverged from fresh build at {center:?}"
                );
            }
        }
    }
}
