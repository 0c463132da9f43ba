//! A uniform-grid spatial index over node positions.
//!
//! A frame can only reach nodes within the propagation model's maximum
//! range, but a scan of *every* node per frame costs in proportion to the
//! total fleet size. [`SpatialGrid`] answers "every node within `r` of this
//! point, in ascending id order" from one precomputed list, so
//! [`Medium::transmit_indexed_into`](crate::Medium::transmit_indexed_into)
//! pays in proportion to the local node density instead of the global
//! population.
//!
//! The grid's square cells have a side a little over twice the largest
//! query radius `cell_m` (`SIDE_PER_CELL`). Each *vertex* of the grid
//! keeps one list, sorted by [`NodeId`], of the nodes in the four cells
//! around it, so every node sits in exactly four lists. A query of radius
//! `r ≤ cell_m` takes the vertex nearest its center: along each axis that
//! vertex is less than half a side away, and `r` is less than
//! `0.4998 · side`, so the whole disk lies inside the vertex's four cells
//! with about `2·10⁻⁴` of a side to spare — far more than any rounding in
//! `cell_of`. The query is then one pass over that list through the
//! banded range test of [`WithinFilter`]: the nodes it keeps are exactly the
//! set the exhaustive scan keeps, already in the order it visits them. That
//! is what lets the indexed transmit path consume the RNG identically to
//! the exhaustive scan and reproduce its results bit for bit.
//!
//! Positions live in one dense table indexed by [`NodeId::index`], so the
//! lists hold bare ids and a mobility step that keeps a node in its cell is
//! one table write ([`SpatialGrid::update`]). A move to another cell takes
//! the id out of four lists and splices it into four others, each a
//! binary search and a small `memmove`. A full [`SpatialGrid::build`] is
//! only needed when the cell size changes — in the simulation the cell size
//! is the propagation model's maximum range, fixed for the lifetime of a
//! run.

// lint: hot-path

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use vanet_mobility::geometry::WithinFilter;
use vanet_mobility::Position;
use vanet_sim::{floor_i64, NodeId};

/// The cell of a `cell_m`-sized uniform grid that `pos` falls in.
pub(crate) fn cell_of(cell_m: f64, pos: Position) -> (i64, i64) {
    (floor_i64(pos.x / cell_m), floor_i64(pos.y / cell_m))
}

/// A map keyed by grid cell: the storage behind [`SpatialGrid`] and the
/// medium's recent-transmission index. Every transmission looks up one grid
/// vertex and the nine recent-index cells around its sender, so the hash is
/// a measurable part of the frame: [`CellHasher`] is two multiplies per key
/// where the standard library's SipHash is a keyed, DoS-resistant
/// construction — protection that buys nothing for keys the simulator
/// computes itself from node positions. It is also fixed, so map layout does not vary from one process
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

/// The side of a grid cell per metre of the largest query radius: a little
/// over 2, so a radius-`cell_m` disk around any point fits inside the four
/// cells around the grid vertex nearest that point, with a margin.
const SIDE_PER_CELL: f64 = 2.001;

/// The table entry of an id no node holds: no position equals it, so an
/// [`SpatialGrid::update`] naming that id panics.
const ABSENT: Position = Position {
    x: f64::NAN,
    y: f64::NAN,
};

/// How full a [`SpatialGrid`]'s vertex lists are
/// ([`SpatialGrid::occupancy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridOccupancy {
    /// Vertex lists the grid holds, emptied ones included.
    pub lists: usize,
    /// Ids across all lists: four per indexed node while the books balance.
    pub entries: usize,
    /// The longest list — the most a query can scan.
    pub longest: usize,
}

/// A uniform grid of square cells indexing node positions, with one
/// id-sorted list per grid vertex (see the module documentation).
#[derive(Debug, Clone, Default)]
pub struct SpatialGrid {
    cell_m: f64,
    /// `SIDE_PER_CELL · cell_m`.
    side: f64,
    /// Every indexed node's position by `NodeId::index`, `ABSENT` for the
    /// ids in between. It costs 16 bytes per id up to the largest
    /// indexed one.
    positions: Vec<Position>,
    // lint: allow(D1) — read only by keyed lookup (`cell_index`), never
    // iterated; pinned by `grid_matches_an_all_pairs_scan`.
    cells: CellMap<u32>,
    /// The four vertex lists around each cell, indexed by `cells`' values.
    corners: Vec<[u32; 4]>,
    // lint: allow(D1) — read only by keyed lookup (one per query and one
    // per new cell corner), never iterated; pinned by
    // `grid_matches_an_all_pairs_scan`.
    vertices: CellMap<u32>,
    /// The vertex lists, indexed by `vertices`' values.
    lists: Vec<Vec<NodeId>>,
    len: usize,
    /// Bumped by every [`SpatialGrid::update`]: equal generations of one
    /// grid answer every query identically.
    generation: u64,
}

impl SpatialGrid {
    /// Builds a grid over `nodes` that answers queries of any radius up to
    /// `cell_m`. The nodes may come in any order; each id at most once.
    ///
    /// Pick `cell_m` equal to the largest query radius you intend to use:
    /// cells are a little over twice as wide, and a larger radius would
    /// reach past the four cells one query looks at.
    ///
    /// The first pass makes one hash probe per node, for its cell, and four
    /// per occupied cell, for the cell's vertex lists. Then every list is
    /// allocated at its exact length and filled in node order, so ids that
    /// arrive ascending — the simulator's fleet — come out sorted without a
    /// sort; the lists of any other order are sorted afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not strictly positive and finite, or if an id
    /// appears twice.
    #[must_use]
    pub fn build(cell_m: f64, nodes: &[(NodeId, Position)]) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell size must be positive and finite"
        );
        let ids = nodes.iter().map(|&(id, _)| id.index() + 1).max();
        let mut grid = SpatialGrid {
            cell_m,
            side: SIDE_PER_CELL * cell_m,
            // lint: allow(P1) — build() runs once per run (cell size is
            // fixed); `update` rewrites the table in place.
            positions: vec![ABSENT; ids.unwrap_or(0)],
            len: nodes.len(),
            ..SpatialGrid::default()
        };
        // Room for every cell and vertex up front, so a small fleet's build
        // is not a chain of regrowths: no more cells are occupied than there
        // are nodes or than the nodes' bounding box reaches, and a vertex
        // row and column more than that.
        let mut lo = Position::new(f64::INFINITY, f64::INFINITY);
        let mut hi = -lo;
        for &(_, p) in nodes {
            lo = Position::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Position::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let across = |extent: f64| (extent / grid.side).min(1e9) as usize + 2;
        let (columns, rows) = (across(hi.x - lo.x), across(hi.y - lo.y));
        let cells = nodes.len().min(columns * rows);
        let vertices = (4 * nodes.len()).min((columns + 1) * (rows + 1));
        grid.cells.reserve(cells);
        grid.corners.reserve(cells);
        grid.vertices.reserve(vertices);
        grid.lists.reserve(vertices);
        // lint: allow(P1) — build-time scratch: each node's cell, so the
        // passes below probe no map.
        let mut node_cells = Vec::with_capacity(nodes.len());
        for &(id, pos) in nodes {
            let slot = &mut grid.positions[id.index()];
            assert!(slot.x.is_nan(), "node {id:?} indexed twice");
            *slot = pos;
            node_cells.push(grid.cell_index(cell_of(grid.side, pos)));
        }
        // lint: allow(P1) — build-time scratch: every list's exact length.
        let mut lengths = vec![0; grid.lists.len()];
        for &cell in &node_cells {
            for list in grid.corners[cell] {
                lengths[list as usize] += 1;
            }
        }
        // Last list first: the lists a dropped grid frees first then lie
        // highest on the heap, and glibc keeps the first few small chunks
        // it is handed of each size apart instead of merging them into the
        // free top of the heap. So a dropped simulation's heap stays mapped
        // for the next one to build in. In list order, every rebuild of a
        // 100 000-node simulation faulted its ~47 MB back in (12 000 page
        // faults, set-up ~1.8× as long).
        for (list, &length) in grid.lists.iter_mut().zip(&lengths).rev() {
            list.reserve_exact(length);
        }
        for (&(id, _), &cell) in nodes.iter().zip(&node_cells) {
            for list in grid.corners[cell] {
                grid.lists[list as usize].push(id);
            }
        }
        if !nodes.windows(2).all(|w| w[0].0 < w[1].0) {
            for list in &mut grid.lists {
                list.sort_unstable();
            }
        }
        grid
    }

    /// Moves one indexed node from `old_pos` to `new_pos`.
    ///
    /// Within one cell this is a single table write. Across cells the id
    /// also leaves the four vertex lists of its old cell and is spliced
    /// into id order in the four of the new one, each a binary search and a
    /// small `memmove`. Steady state allocates nothing: list capacity is
    /// retained, and a list for a vertex no node has touched before is the
    /// only occasional allocation.
    ///
    /// # Panics
    ///
    /// Panics unless the node is indexed at exactly `old_pos` — the
    /// position it was last built or updated with.
    pub fn update(&mut self, id: NodeId, old_pos: Position, new_pos: Position) {
        let slot = self
            .positions
            .get_mut(id.index())
            .filter(|stored| **stored == old_pos)
            .unwrap_or_else(|| panic!("node {id:?} not indexed at {old_pos:?}"));
        *slot = new_pos;
        self.generation += 1;
        let old_cell = cell_of(self.side, old_pos);
        let new_cell = cell_of(self.side, new_pos);
        if old_cell == new_cell {
            return;
        }
        let old_index = self.cell_index(old_cell);
        for list in self.corners[old_index] {
            let list = &mut self.lists[list as usize];
            let at = list
                .binary_search(&id)
                .unwrap_or_else(|_| panic!("node {id:?} not listed around cell {old_cell:?}"));
            list.remove(at);
        }
        let new_index = self.cell_index(new_cell);
        for list in self.corners[new_index] {
            let list = &mut self.lists[list as usize];
            let at = list.binary_search(&id).expect_err("a node listed twice");
            list.insert(at, id);
        }
    }

    /// The index into `corners` of `cell`, whose four vertex lists are made
    /// on first use.
    fn cell_index(&mut self, cell: (i64, i64)) -> usize {
        let (corners, vertices, lists) = (&mut self.corners, &mut self.vertices, &mut self.lists);
        let index = *self.cells.entry(cell).or_insert_with(|| {
            let (cx, cy) = cell;
            let around = [(cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)];
            corners.push(around.map(|vertex| {
                *vertices.entry(vertex).or_insert_with(|| {
                    // lint: allow(P1) — once per vertex for the life of the
                    // grid: a list, once made, is never dropped.
                    lists.push(Vec::new());
                    (lists.len() - 1) as u32
                })
            }));
            (corners.len() - 1) as u32
        });
        index as usize
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

    /// How many vertex lists the grid holds, how many ids they hold between
    /// them — `4 × len()` while the books balance — and the longest.
    #[must_use]
    pub fn occupancy(&self) -> GridOccupancy {
        GridOccupancy {
            lists: self.lists.len(),
            entries: self.lists.iter().map(Vec::len).sum(),
            longest: self.lists.iter().map(Vec::len).max().unwrap_or(0),
        }
    }

    /// Exactly the indexed nodes `within(center, position, radius_m)`, sorted
    /// by node id, in a fresh buffer: the form the tests compare.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` exceeds the grid's cell size.
    #[cfg(test)]
    fn candidates_within(&self, center: Position, radius_m: f64) -> Vec<(NodeId, Position)> {
        let (mut out, mut unused) = (Vec::new(), Vec::new());
        self.candidates_within_scratch(center, radius_m, &mut out, &mut unused);
        out
    }

    /// Clears `out` and fills it with exactly the indexed nodes
    /// `within(center, position, radius_m)`, in ascending id order. The
    /// buffer is the caller's, so nothing is allocated once it has warmed
    /// up — the form the transmit hot path uses.
    ///
    /// One hash probe finds the list of the vertex nearest `center`, and one
    /// pass over it keeps the ids that pass the banded range test: each is
    /// written to the next free slot, which advances only when the test
    /// passes, so there is no data-dependent branch outside the test's
    /// ±1e-9 band. The list is id-sorted, so the result is too.
    ///
    /// `scratch` is not used. It is kept only because the repository
    /// benchmark calls this signature, and it goes with that call when the
    /// benchmark is next revised.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` exceeds the grid's cell size.
    pub fn candidates_within_scratch(
        &self,
        center: Position,
        radius_m: f64,
        out: &mut Vec<(NodeId, Position)>,
        _scratch: &mut Vec<(NodeId, Position)>,
    ) {
        assert!(
            radius_m <= self.cell_m,
            "query radius {radius_m} exceeds grid cell size {}",
            self.cell_m
        );
        out.clear();
        let vertex = (
            floor_i64(center.x / self.side + 0.5),
            floor_i64(center.y / self.side + 0.5),
        );
        let Some(&list) = self.vertices.get(&vertex) else {
            return;
        };
        let list = &self.lists[list as usize];
        let in_range = WithinFilter::new(radius_m);
        out.resize(list.len(), (NodeId(0), Position::ZERO));
        let mut kept = 0;
        for &id in list {
            let pos = self.positions[id.index()];
            out[kept] = (id, pos);
            kept += usize::from(in_range.check(center, pos));
        }
        out.truncate(kept);
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

    /// A caller that replays an old position is refused even when the stale
    /// and the stored position share a cell.
    #[test]
    #[should_panic(expected = "not indexed")]
    fn update_with_a_stale_old_position_panics() {
        let mut grid = SpatialGrid::build(100.0, &[(NodeId(0), Vec2::new(10.0, 10.0))]);
        grid.update(NodeId(0), Vec2::new(10.0, 10.0), Vec2::new(12.0, 10.0));
        grid.update(NodeId(0), Vec2::new(10.0, 10.0), Vec2::new(14.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "indexed twice")]
    fn a_repeated_id_panics() {
        let _ = SpatialGrid::build(
            100.0,
            &[
                (NodeId(3), Vec2::new(10.0, 10.0)),
                (NodeId(3), Vec2::new(900.0, 10.0)),
            ],
        );
    }

    /// Every node within `radius` of `center` by the exact comparison, in
    /// ascending id order: the all-pairs scan a query must equal.
    fn scan(
        nodes: &[(NodeId, Position)],
        center: Position,
        radius: f64,
    ) -> Vec<(NodeId, Position)> {
        let mut found: Vec<(NodeId, Position)> = nodes
            .iter()
            .copied()
            .filter(|&(_, p)| distance(center, p) <= radius)
            .collect();
        found.sort_unstable_by_key(|&(id, _)| id);
        found
    }

    /// The grid's books: every list strictly ascending, every node stored at
    /// its position and listed at the four vertices around its cell, and
    /// nothing else listed — so every node sits in exactly four lists.
    fn assert_books(grid: &SpatialGrid, nodes: &[(NodeId, Position)]) {
        assert!(grid.lists.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
        let occupancy = grid.occupancy();
        assert_eq!(occupancy.entries, 4 * nodes.len());
        assert_eq!(occupancy.entries, 4 * grid.len());
        for &(id, pos) in nodes {
            assert_eq!(grid.positions[id.index()], pos);
            let (cx, cy) = cell_of(grid.side, pos);
            for vertex in [(cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)] {
                let list = &grid.lists[grid.vertices[&vertex] as usize];
                assert!(list.binary_search(&id).is_ok(), "{id:?} not at {vertex:?}");
            }
        }
    }

    /// `x` moved by `ulps` units in the last place (`x` must not be 0).
    fn nudge(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// Seeded fleets of 160 nodes against [`scan`]: ids with gaps, handed
    /// to `build` shuffled; coordinates on both sides of zero; nodes placed
    /// on cell edges and vertex midlines; 600 moves per fleet, a fifth of
    /// them long jumps. Queries use the full radius and smaller ones, with
    /// centers anywhere, on a vertex midline or one ulp either side of it,
    /// on a cell edge, and exactly `radius` from a node — inside the ±1e-9
    /// band where only the exact comparison decides. Every query must
    /// equal the scan, and the books must balance before and after the
    /// moves. Returns the midline centers and in-band pairs it checked.
    fn grid_against_the_scan(cases: u64) -> (usize, usize) {
        let (mut midlines, mut in_band) = (0, 0);
        for case in 0..cases {
            let mut rng = SimRng::new(0x6a1d + case);
            let cell = if case % 2 == 0 { 250.0 } else { 97.5 };
            let side = SIDE_PER_CELL * cell;
            let extent = 6.0 * side;
            let line = |rng: &mut SimRng, offset: f64| {
                (rng.uniform_usize(12) as f64 - 6.0 + offset) * side
            };
            let mut next_id = 0;
            let mut nodes: Vec<(NodeId, Position)> = (0..160)
                .map(|_| {
                    next_id += 1 + rng.uniform_usize(3) as u32;
                    let x = rng.uniform_range(-extent, extent);
                    (
                        NodeId(next_id),
                        Vec2::new(x, rng.uniform_range(-extent, extent)),
                    )
                })
                .collect();
            for at in (0..nodes.len()).step_by(7) {
                nodes[at].1.x = line(&mut rng, 0.0);
                nodes[at + 1].1.y = line(&mut rng, 0.5);
            }
            for at in (1..nodes.len()).rev() {
                nodes.swap(at, rng.uniform_usize(at + 1));
            }
            let mut grid = SpatialGrid::build(cell, &nodes);
            assert_books(&grid, &nodes);
            for step in 0..780 {
                if step < 600 {
                    let at = rng.uniform_usize(nodes.len());
                    let (id, old) = nodes[at];
                    let new = match rng.uniform_usize(10) {
                        0 | 1 => Vec2::new(
                            rng.uniform_range(-1.5 * extent, 1.5 * extent),
                            rng.uniform_range(-1.5 * extent, 1.5 * extent),
                        ),
                        2 => Vec2::new(line(&mut rng, 0.0), line(&mut rng, 0.5)),
                        _ => {
                            old + Vec2::new(
                                rng.uniform_range(-40.0, 40.0),
                                rng.uniform_range(-40.0, 40.0),
                            )
                        }
                    };
                    grid.update(id, old, new);
                    nodes[at].1 = new;
                    if step % 4 != 0 {
                        continue;
                    }
                }
                let radius = if rng.chance(0.5) {
                    cell
                } else {
                    rng.uniform_range(0.0, cell)
                };
                let anchor = nodes[rng.uniform_usize(nodes.len())].1;
                let center = match rng.uniform_usize(4) {
                    0 => Vec2::new(
                        rng.uniform_range(-extent, extent),
                        rng.uniform_range(-extent, extent),
                    ),
                    1 => {
                        midlines += 1;
                        let m = nudge(line(&mut rng, 0.5), rng.uniform_usize(3) as i64 - 1);
                        Vec2::new(m, anchor.y + rng.uniform_range(-cell, cell))
                    }
                    2 => Vec2::new(
                        anchor.x + rng.uniform_range(-cell, cell),
                        line(&mut rng, 0.0),
                    ),
                    _ => anchor - Vec2::new(0.6 * radius, -0.8 * radius),
                };
                let expect = scan(&nodes, center, radius);
                let band = radius * radius * 1e-9;
                in_band += nodes
                    .iter()
                    .filter(|&&(_, p)| ((p - center).norm_sq() - radius * radius).abs() < band)
                    .count();
                assert_eq!(
                    grid.candidates_within(center, radius),
                    expect,
                    "case {case}, step {step}: radius {radius} around {center:?}"
                );
            }
            assert_books(&grid, &nodes);
        }
        (midlines, in_band)
    }

    #[test]
    fn grid_matches_an_all_pairs_scan() {
        let (midlines, in_band) = grid_against_the_scan(24);
        assert!(
            midlines > 1_000 && in_band > 1_000,
            "{midlines} midline centers, {in_band} in-band pairs"
        );
    }

    /// The same property over ten times the fleets; run in release with
    /// `cargo test --release -p vanet-net -- --ignored`.
    #[test]
    #[ignore = "heavy: ten times the fleets; run in release"]
    fn grid_matches_an_all_pairs_scan_heavy() {
        let (midlines, in_band) = grid_against_the_scan(240);
        assert!(
            midlines > 10_000 && in_band > 10_000,
            "{midlines} midline centers, {in_band} in-band pairs"
        );
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
