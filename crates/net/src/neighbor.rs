//! Neighbour discovery: HELLO beaconing and the neighbour table.
//!
//! Mobility-based and probability-based protocols need "neighbouring
//! awareness" — each vehicle periodically broadcasts its position and velocity
//! so its neighbours can predict link lifetimes. This is exactly the extra
//! communication overhead Table I charges to those categories; the beacon
//! packets are counted by the metrics layer like any other control packet.
//!
//! The table itself is [`NeighborArena`]: one slab for the whole fleet, a
//! handle per node, lazily expired (see `arena.rs`). This module holds what
//! a table entry is ([`NeighborInfo`]), how often it is refreshed
//! ([`BeaconConfig`]) and [`NeighborTable`], the owning one-node form for
//! code that has no fleet.

use crate::arena::{ArenaTable, NeighborArena, NeighborView};
use vanet_mobility::{Position, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Beaconing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconConfig {
    /// Interval between HELLO beacons.
    pub interval: SimDuration,
    /// How long a neighbour entry stays valid without a fresh beacon.
    pub lifetime: SimDuration,
    /// Random jitter applied to each beacon (fraction of the interval) so
    /// that beacons from different vehicles do not synchronise.
    pub jitter_fraction: f64,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            interval: SimDuration::from_secs(1.0),
            lifetime: SimDuration::from_secs(3.0),
            jitter_fraction: 0.1,
        }
    }
}

/// What a node knows about one of its neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborInfo {
    /// The neighbour's id.
    pub id: NodeId,
    /// Last advertised position.
    pub position: Position,
    /// Last advertised velocity.
    pub velocity: Velocity,
    /// When the last beacon (or overheard packet) from it arrived.
    pub last_heard: SimTime,
    /// When the entry expires if no further beacon arrives.
    pub expires_at: SimTime,
}

impl NeighborInfo {
    /// Predicted position of the neighbour at `time`, extrapolating its last
    /// advertised velocity (dead reckoning).
    #[must_use]
    pub fn predicted_position(&self, time: SimTime) -> Position {
        let dt = time.saturating_since(self.last_heard).as_secs();
        self.position + self.velocity * dt
    }
}

/// One node's neighbour table with a slab of its own: what a protocol unit
/// test or an example builds where a simulation would hand out handles into
/// the fleet's shared [`NeighborArena`]. It stores nothing itself.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    arena: NeighborArena,
    table: ArenaTable,
}

impl NeighborTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes a neighbour ([`NeighborArena::observe`]).
    pub fn observe(
        &mut self,
        id: NodeId,
        position: Position,
        velocity: Velocity,
        now: SimTime,
        lifetime: SimDuration,
    ) -> bool {
        self.arena
            .observe(&mut self.table, id, position, velocity, now, lifetime)
    }

    /// Lazily drops expired neighbours ([`NeighborArena::purge_due`]).
    pub fn purge_due(&mut self, now: SimTime, out: &mut Vec<NodeId>) {
        self.arena.purge_due(&mut self.table, now, out);
    }

    /// The read side, as protocols see it.
    #[must_use]
    pub fn view(&self) -> NeighborView<'_> {
        self.arena.view(&self.table)
    }
}

impl<'a> From<&'a NeighborTable> for NeighborView<'a> {
    fn from(table: &'a NeighborTable) -> Self {
        table.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::naive::NaiveTable;
    use vanet_mobility::Vec2;
    use vanet_sim::SimRng;

    fn table_with_three() -> NeighborTable {
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        t.observe(
            NodeId(1),
            Vec2::new(100.0, 0.0),
            Vec2::new(10.0, 0.0),
            SimTime::ZERO,
            life,
        );
        t.observe(
            NodeId(2),
            Vec2::new(200.0, 0.0),
            Vec2::new(-10.0, 0.0),
            SimTime::ZERO,
            life,
        );
        t.observe(
            NodeId(3),
            Vec2::new(50.0, 50.0),
            Vec2::ZERO,
            SimTime::ZERO,
            life,
        );
        t
    }

    fn ids(t: &NeighborTable) -> Vec<u32> {
        t.view().iter().map(|n| n.id.0).collect()
    }

    #[test]
    fn purge_removes_stale_entries() {
        let mut t = table_with_three();
        t.observe(
            NodeId(1),
            Vec2::new(100.0, 0.0),
            Vec2::ZERO,
            SimTime::from_secs(5.0),
            SimDuration::from_secs(3.0),
        );
        let mut dropped = Vec::new();
        t.purge_due(SimTime::from_secs(6.0), &mut dropped);
        assert_eq!(dropped, vec![NodeId(2), NodeId(3)]);
        assert_eq!(ids(&t), vec![1]);
    }

    #[test]
    fn purge_due_is_a_noop_before_the_deadline() {
        let mut t = table_with_three();
        // All entries expire at 3.0; the bound must hold off any scan first.
        assert_eq!(t.table.next_deadline(), SimTime::from_secs(3.0));
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(2.0), &mut lost);
        assert!(lost.is_empty());
        assert_eq!(t.view().len(), 3);
        // Exactly at the deadline nothing has *strictly* expired yet.
        t.purge_due(SimTime::from_secs(3.0), &mut lost);
        assert!(lost.is_empty());
        // Past it, everything goes, ascending by id.
        t.purge_due(SimTime::from_secs(3.5), &mut lost);
        assert_eq!(lost, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(t.view().is_empty());
        assert_eq!(t.table.next_deadline(), SimTime::MAX);
    }

    #[test]
    fn refreshes_leave_the_deadline_conservative_but_correct() {
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        t.observe(NodeId(1), Vec2::ZERO, Vec2::ZERO, SimTime::ZERO, life);
        t.observe(
            NodeId(1),
            Vec2::ZERO,
            Vec2::ZERO,
            SimTime::from_secs(2.0),
            life,
        );
        // The bound is stale-low (3.0) while the real deadline is 5.0: a due
        // check scans, loses nothing, and tightens the bound.
        assert_eq!(t.table.next_deadline(), SimTime::from_secs(3.0));
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(4.0), &mut lost);
        assert!(lost.is_empty());
        assert_eq!(t.view().len(), 1);
        assert_eq!(t.table.next_deadline(), SimTime::from_secs(5.0));
    }

    /// On a randomised beacon schedule, the lazy `purge_due` path observes
    /// exactly the same (neighbour, tick) loss events as the naive model's
    /// eager per-tick sweep.
    #[test]
    fn lazy_and_eager_purges_observe_identical_losses() {
        let mut rng = SimRng::new(0xbeac0);
        for case in 0..50 {
            let mut lazy = NeighborTable::new();
            let mut eager = NaiveTable::new();
            let mut lazy_losses: Vec<(NodeId, u32)> = Vec::new();
            let mut eager_losses: Vec<(NodeId, u32)> = Vec::new();
            let lifetime = SimDuration::from_secs(1.0 + rng.uniform_range(0.0, 3.0));
            let neighbors = 1 + rng.uniform_usize(12) as u32;
            let mut scratch = Vec::new();
            for tick in 1..=40u32 {
                let tick_time = SimTime::from_secs(f64::from(tick));
                // Random beacon arrivals within the previous tick interval.
                for _ in 0..rng.uniform_usize(2 * neighbors as usize) {
                    let id = NodeId(rng.uniform_usize(neighbors as usize) as u32);
                    let at = SimTime::from_secs(f64::from(tick) - rng.uniform_range(0.0, 1.0));
                    lazy.observe(id, Vec2::ZERO, Vec2::ZERO, at, lifetime);
                    eager.observe(id, Vec2::ZERO, Vec2::ZERO, at, lifetime);
                }
                scratch.clear();
                lazy.purge_due(tick_time, &mut scratch);
                lazy_losses.extend(scratch.iter().map(|&id| (id, tick)));
                eager_losses.extend(
                    eager
                        .purge_expired(tick_time)
                        .into_iter()
                        .map(|id| (id, tick)),
                );
                assert!(
                    lazy.view().iter().eq(eager.entries.values()),
                    "case {case} diverged at tick {tick}"
                );
            }
            assert_eq!(
                lazy_losses, eager_losses,
                "case {case}: loss events diverged"
            );
        }
    }

    #[test]
    fn multi_block_tables_shrink_and_regrow_in_ascending_order() {
        // Enough for a chain of at least three blocks, inserted descending.
        let mut t = NeighborTable::new();
        let life = SimDuration::from_secs(3.0);
        let count = 100u32;
        for i in (0..count).rev() {
            t.observe(
                NodeId(i),
                Vec2::new(f64::from(i), 0.0),
                Vec2::ZERO,
                SimTime::ZERO,
                life,
            );
        }
        let grown = t.arena.occupancy();
        assert!(grown.blocks_live >= 3);
        assert_eq!(grown.slots_live, count as usize);
        assert_eq!(ids(&t), (0..count).collect::<Vec<_>>());
        assert_eq!(t.view().get(NodeId(70)).unwrap().position.x, 70.0);
        // Refresh one entry past the purge horizon, purge the rest.
        t.observe(
            NodeId(7),
            Vec2::ZERO,
            Vec2::ZERO,
            SimTime::from_secs(2.0),
            life,
        );
        let mut lost = Vec::new();
        t.purge_due(SimTime::from_secs(4.0), &mut lost);
        assert_eq!(lost.len(), count as usize - 1);
        assert_eq!(ids(&t), vec![7], "only the refreshed entry survives");
        let shrunk = t.arena.occupancy();
        assert_eq!((shrunk.blocks_live, shrunk.slots_live), (1, 1));
        assert_eq!(shrunk.slots_free, count as usize - 1);
        // Back down to one block: inserts on either side still land in
        // order, in recycled payload slots.
        for id in [3, 90] {
            t.observe(
                NodeId(id),
                Vec2::new(f64::from(id), 0.0),
                Vec2::ZERO,
                SimTime::from_secs(4.0),
                life,
            );
        }
        assert_eq!(ids(&t), vec![3, 7, 90], "ascending after shrink");
        assert_eq!(t.view().get(NodeId(90)).unwrap().position.x, 90.0);
        let regrown = t.arena.occupancy();
        assert_eq!((regrown.blocks_live, regrown.slots_live), (1, 3));
        assert_eq!(
            regrown.slots_live + regrown.slots_free,
            count as usize,
            "regrowth must reuse freed slots"
        );
    }

    #[test]
    fn closest_and_greedy_next_hop() {
        let t = table_with_three();
        let view = t.view();
        let target = Vec2::new(300.0, 0.0);
        assert_eq!(view.closest_to(target).unwrap().id, NodeId(2));
        // Own distance 120 m: node 2 at 100 m qualifies, others do not.
        assert_eq!(view.greedy_next_hop(target, 120.0).unwrap().id, NodeId(2));
        // Own distance 50 m: nobody is closer — local maximum.
        assert!(view.greedy_next_hop(target, 50.0).is_none());
        let empty = NeighborTable::new();
        assert!(empty.view().closest_to(target).is_none());
        assert!(empty.view().greedy_next_hop(target, 120.0).is_none());
    }

    #[test]
    fn dead_reckoning_prediction() {
        let t = table_with_three();
        let n = t.view().get(NodeId(1)).unwrap();
        let predicted = n.predicted_position(SimTime::from_secs(2.0));
        assert_eq!(predicted, Vec2::new(120.0, 0.0));
    }

    #[test]
    fn beacon_config_defaults_are_sane() {
        let c = BeaconConfig::default();
        assert!(c.lifetime.as_secs() > c.interval.as_secs());
        assert!(c.jitter_fraction < 1.0);
    }
}
