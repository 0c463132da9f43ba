//! Yan et al.'s ticket-based probing (the probability-model representative
//! the survey's last author co-proposed, Sec. VII-B).
//!
//! Instead of flooding route requests, the source issues a small number of
//! *tickets*. Each ticket is forwarded unicast to the most promising
//! neighbours — ranked by the probabilistic *expected link duration* (or, in
//! the TBP-SS variant, the *mean link duration*, called stability) — and the
//! ticket budget is split among them, bounding the probing cost. Tickets that
//! reach the destination return the discovered path; the source picks the
//! path whose bottleneck stability is highest and source-routes data along it.

use crate::common::{PendingBuffer, SeenCache};
use crate::protocol::{Category, DropReason, ProtocolContext, RoutingProtocol};
use std::collections::BTreeMap;
use vanet_links::probability::{
    expected_link_duration, expected_link_duration_bracket, mean_link_duration,
};
use vanet_mobility::geometry::distance;
use vanet_net::{NeighborInfo, Packet, PacketKind, RouteRecord};
use vanet_sim::{NodeId, SeqNo, SimDuration, SimTime};

/// Which stability metric the tickets optimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketMetric {
    /// Expected link duration (full probabilistic expectation).
    ExpectedDuration,
    /// Mean link duration — the "stability" metric of TBP-SS.
    MeanDuration,
}

/// Configuration of the ticket-based probing protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YanConfig {
    /// Number of tickets issued per probing round.
    pub tickets: u32,
    /// Maximum number of neighbours a ticket is split across at each hop.
    pub max_branches: u32,
    /// Which stability metric is optimised.
    pub metric: TicketMetric,
    /// Standard deviation assumed for the relative-speed distribution (only
    /// used by the expected-duration metric).
    pub relative_speed_std: f64,
    /// How long a discovered source route stays valid.
    pub route_lifetime: SimDuration,
    /// Beacon interval (mobility awareness is required).
    pub beacon_interval: SimDuration,
    /// Minimum spacing between probing rounds for the same destination.
    pub probe_retry_interval: SimDuration,
}

impl Default for YanConfig {
    fn default() -> Self {
        YanConfig {
            tickets: 3,
            max_branches: 2,
            metric: TicketMetric::ExpectedDuration,
            relative_speed_std: 3.0,
            route_lifetime: SimDuration::from_secs(30.0),
            beacon_interval: SimDuration::from_secs(1.0),
            probe_retry_interval: SimDuration::from_secs(2.0),
        }
    }
}

impl YanConfig {
    /// The TBP-SS variant: stability (mean link duration) as the metric.
    #[must_use]
    pub fn stability_constrained() -> Self {
        YanConfig {
            metric: TicketMetric::MeanDuration,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone)]
struct CachedRoute {
    route: RouteRecord,
    metric: f64,
    expires_at: SimTime,
}

/// Yan's ticket-based probing protocol.
#[derive(Debug)]
pub struct Yan {
    config: YanConfig,
    routes: BTreeMap<NodeId, CachedRoute>,
    pending: PendingBuffer,
    probes_seen: SeenCache,
    next_probe_id: u64,
    last_probe: BTreeMap<NodeId, SimTime>,
    my_seq: SeqNo,
    /// The next hops [`Yan::rank_candidates`] last selected, best first;
    /// holds at most `max_branches` entries and is reused across tickets.
    best: Vec<(NodeId, f64)>,
    /// Candidates ranked so far, and those of them whose stability was
    /// computed rather than ruled out by its bracket.
    scored: u64,
    integrated: u64,
}

impl Yan {
    /// Creates a ticket-probing instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(YanConfig::default())
    }

    /// Creates a ticket-probing instance with explicit configuration.
    #[must_use]
    pub fn with_config(config: YanConfig) -> Self {
        Yan {
            config,
            routes: BTreeMap::new(),
            pending: PendingBuffer::new(16, SimDuration::from_secs(8.0)),
            probes_seen: SeenCache::new(30.0),
            next_probe_id: 0,
            last_probe: BTreeMap::new(),
            my_seq: SeqNo(0),
            best: Vec::new(),
            scored: 0,
            integrated: 0,
        }
    }

    /// The number of cached source routes.
    #[must_use]
    pub fn cached_routes(&self) -> usize {
        self.routes.len()
    }

    /// `(scored, integrated)`: how many eligible next hops the ticket
    /// rankings have compared so far, and for how many of them the stability
    /// itself was computed — the rest were ruled out by a bracket that could
    /// not reach the `max_branches` best.
    #[must_use]
    pub fn scoring_counts(&self) -> (u64, u64) {
        (self.scored, self.integrated)
    }

    /// What the stability of the link to a neighbour is computed from: the
    /// separation (the current distance, at most the range) and the relative
    /// speed. Both are unsigned — the speed is the magnitude of the relative
    /// velocity — so every neighbour is scored as if it were separating at
    /// that speed towards the range boundary, whether or not it is in fact
    /// closing in (ROADMAP item 3(b)).
    fn link_kinematics(ctx: &ProtocolContext<'_>, neighbor: &NeighborInfo) -> (f64, f64) {
        let separation = distance(ctx.position(), neighbor.position).min(ctx.range_m);
        let relative = (ctx.velocity() - neighbor.velocity).norm();
        (separation, relative)
    }

    /// Stability of the link between this node and a neighbour, under the
    /// configured metric.
    fn link_stability(
        config: &YanConfig,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
    ) -> f64 {
        let (separation, relative) = Self::link_kinematics(ctx, neighbor);
        match config.metric {
            TicketMetric::ExpectedDuration => {
                expected_link_duration(separation, relative, config.relative_speed_std, ctx.range_m)
            }
            TicketMetric::MeanDuration => mean_link_duration(separation, relative, ctx.range_m),
        }
    }

    /// A bracket `(lo, hi)` around [`Yan::link_stability`] of the same
    /// arguments, far cheaper than the expectation it bounds; the mean
    /// duration is cheap already and is its own bracket.
    fn link_stability_bracket(
        config: &YanConfig,
        ctx: &ProtocolContext<'_>,
        neighbor: &NeighborInfo,
    ) -> (f64, f64) {
        let (separation, relative) = Self::link_kinematics(ctx, neighbor);
        match config.metric {
            TicketMetric::ExpectedDuration => expected_link_duration_bracket(
                separation,
                relative,
                config.relative_speed_std,
                ctx.range_m,
            ),
            TicketMetric::MeanDuration => {
                let stability = mean_link_duration(separation, relative, ctx.range_m);
                (stability, stability)
            }
        }
    }

    /// Puts `(id, value)` into `best` — at most `limit ≥ 1` entries, largest
    /// value first — behind every kept entry whose value is at least as
    /// large, so of two equal ones the earlier stays ahead.
    fn keep_best(best: &mut Vec<(NodeId, f64)>, limit: usize, id: NodeId, value: f64) {
        let rank = best.partition_point(|kept| kept.1.total_cmp(&value).is_ge());
        if rank < limit {
            best.truncate(limit - 1);
            best.insert(rank, (id, value));
        }
    }

    /// Fills `self.best` with up to `max_branches` candidate next hops for a
    /// ticket heading to `dest`, most stable link first (of two equally
    /// stable ones, the earlier neighbour), excluding nodes already on the
    /// path. Candidates must make geographic progress when the destination's
    /// position is known (terminates the probe).
    ///
    /// With more eligible neighbours than places, a first pass brackets every
    /// one's stability and takes the `max_branches`-th largest lower bound as
    /// the floor; a neighbour whose upper bound is below the floor has that
    /// many others strictly above it and is passed over without computing
    /// its stability. Everyone else is scored and ranked in neighbour order,
    /// so ids, order, tie rule and stabilities are those of scoring everyone.
    fn rank_candidates(&mut self, ctx: &ProtocolContext<'_>, dest: NodeId, path: &[NodeId]) {
        let Yan {
            config,
            best,
            scored,
            integrated,
            ..
        } = self;
        let limit = config.max_branches as usize;
        best.clear();
        if limit == 0 {
            return;
        }
        let goal = ctx.location.position_of(dest);
        let own_progress = goal.map(|p| distance(ctx.position(), p));
        // Each eligible neighbour with the upper bound on its stability. Not
        // kept on `self`: every vehicle has a `Yan` and few of them rank.
        let mut eligible: Vec<(&NeighborInfo, f64)> = ctx
            .neighbors
            .iter()
            .filter(|n| !path.contains(&n.id) && n.id != ctx.node)
            .filter(|n| {
                goal.zip(own_progress).map_or(true, |(p, own)| {
                    n.id == dest || distance(n.position, p) < own
                })
            })
            .map(|n| (n, f64::INFINITY))
            .collect();
        let mut floor = f64::NEG_INFINITY;
        if eligible.len() > limit {
            // `best` holds the largest lower bounds for the length of this
            // pass; the last of them is the floor.
            for (n, upper) in &mut eligible {
                let (lower, hi) = Self::link_stability_bracket(config, ctx, n);
                *upper = hi;
                Self::keep_best(best, limit, n.id, lower);
            }
            floor = best[limit - 1].1;
            best.clear();
        }
        *scored += eligible.len() as u64;
        for &(n, upper) in &eligible {
            if upper < floor {
                continue;
            }
            *integrated += 1;
            Self::keep_best(best, limit, n.id, Self::link_stability(config, ctx, n));
        }
    }

    fn start_probe(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        if let Some(last) = self.last_probe.get(&dest) {
            if ctx.now.saturating_since(*last) < self.config.probe_retry_interval {
                return;
            }
        }
        self.last_probe.insert(dest, ctx.now);
        let probe_id = self.next_probe_id;
        self.next_probe_id += 1;
        self.probes_seen
            .check_and_insert(ctx.node, probe_id, ctx.now);
        self.rank_candidates(ctx, dest, &[ctx.node]);
        if self.best.is_empty() {
            return;
        }
        let share = (self.config.tickets / self.best.len() as u32).max(1);
        for &(next, stability) in &self.best {
            let mut ticket = ctx.new_control_packet(PacketKind::Ticket {
                target: dest,
                probe_id,
                tickets: share,
                path: vec![ctx.node],
                metric: stability,
            });
            ticket.destination = Some(dest);
            ticket.next_hop = Some(next);
            ctx.transmit(ticket);
        }
    }

    fn forward_data(&mut self, ctx: &mut ProtocolContext<'_>, mut packet: Packet) {
        let Some(dest) = packet.destination else {
            ctx.drop_packet(&packet, DropReason::NoRoute);
            return;
        };
        if dest == ctx.node {
            ctx.deliver(&packet);
            return;
        }
        if !packet.ttl_allows_forwarding() {
            ctx.drop_packet(&packet, DropReason::TtlExpired);
            return;
        }
        // Source routing: follow the embedded route if present.
        if let Some(route) = packet.source_route.as_deref() {
            let next = route
                .iter()
                .position(|&n| n == ctx.node)
                .and_then(|idx| route.get(idx + 1).copied());
            match next {
                Some(next) => {
                    let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(next)));
                    ctx.transmit(fwd);
                }
                None => ctx.drop_packet(&packet, DropReason::NoRoute),
            }
            return;
        }
        // At the source: attach a cached route or probe for one.
        if let Some(cached) = self.routes.get(&dest) {
            if cached.expires_at >= ctx.now {
                packet.source_route = Some(cached.route.clone());
                self.forward_data(ctx, packet);
                return;
            }
            self.routes.remove(&dest);
        }
        self.pending.push(dest, packet, ctx.now);
        self.start_probe(ctx, dest);
    }

    fn handle_ticket(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let (target, probe_id, tickets, path, metric) = match &packet.kind {
            PacketKind::Ticket {
                target,
                probe_id,
                tickets,
                path,
                metric,
            } => (*target, *probe_id, *tickets, path, *metric),
            _ => unreachable!("handle_ticket called with a non-ticket packet"),
        };
        let origin = packet.source;
        let me = ctx.node;
        let path_through_me = || -> RouteRecord { path.iter().copied().chain([me]).collect() };
        if target == ctx.node {
            // Ticket arrived: reply with the discovered route and its
            // bottleneck stability.
            self.my_seq = self.my_seq.next();
            let route = path_through_me();
            let reversed = route.iter().rev().copied().collect();
            let mut reply = ctx.new_control_packet(PacketKind::RouteReply {
                target: ctx.node,
                route,
                metric,
                target_seq: self.my_seq,
            });
            reply.destination = Some(origin);
            reply.next_hop = Some(packet.prev_hop);
            reply.source_route = Some(reversed);
            ctx.transmit(reply);
            return;
        }
        if self.probes_seen.check_and_insert(origin, probe_id, ctx.now) {
            ctx.drop_packet(packet, DropReason::Duplicate);
            return;
        }
        if !packet.ttl_allows_forwarding() || tickets == 0 {
            ctx.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        // Split the remaining tickets among the best candidate next hops.
        let mut new_path = path_through_me();
        self.rank_candidates(ctx, target, &new_path);
        if self.best.is_empty() {
            ctx.drop_packet(packet, DropReason::NoRoute);
            return;
        }
        let branches = self.best.len().min(tickets as usize).max(1);
        let share = (tickets / branches as u32).max(1);
        for (branch, &(next, stability)) in self.best[..branches].iter().enumerate() {
            // The last branch takes the path itself.
            let path = if branch + 1 == branches {
                std::mem::take(&mut new_path)
            } else {
                new_path.clone()
            };
            let mut fwd = packet.forwarded_by(ctx.node, Some(next));
            fwd.kind = PacketKind::Ticket {
                target,
                probe_id,
                tickets: share,
                path,
                metric: metric.min(stability),
            };
            let stamped = ctx.stamp(fwd);
            ctx.transmit(stamped);
        }
    }

    fn handle_reply(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet) {
        let (target, route, metric) = match &packet.kind {
            PacketKind::RouteReply {
                target,
                route,
                metric,
                ..
            } => (*target, route, *metric),
            _ => unreachable!("handle_reply called with a non-reply packet"),
        };
        let Some(my_index) = route.iter().position(|&n| n == ctx.node) else {
            ctx.drop_packet(packet, DropReason::NotForMe);
            return;
        };
        if my_index == 0 {
            // We are the probing source: cache the best route.
            let better = match self.routes.get(&target) {
                Some(existing) => metric > existing.metric || existing.expires_at < ctx.now,
                None => true,
            };
            if better {
                self.routes.insert(
                    target,
                    CachedRoute {
                        route: route.clone(),
                        metric,
                        expires_at: ctx.now + self.config.route_lifetime,
                    },
                );
            }
            for pending in self.pending.take(target, ctx.now) {
                self.forward_data(ctx, pending);
            }
            return;
        }
        // Relay the reply towards the source along the recorded path.
        let previous = route[my_index - 1];
        let fwd = ctx.stamp(packet.forwarded_by(ctx.node, Some(previous)));
        ctx.transmit(fwd);
    }
}

impl Default for Yan {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingProtocol for Yan {
    fn name(&self) -> &'static str {
        match self.config.metric {
            TicketMetric::ExpectedDuration => "Yan",
            TicketMetric::MeanDuration => "Yan-TBPSS",
        }
    }

    fn category(&self) -> Category {
        Category::Probability
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        Some(self.config.beacon_interval)
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        self.forward_data(ctx, packet);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        if overheard {
            return;
        }
        match &packet.kind {
            PacketKind::Data => self.forward_data(ctx, packet.clone()),
            PacketKind::Ticket { .. } => self.handle_ticket(ctx, packet),
            PacketKind::RouteReply { .. } => self.handle_reply(ctx, packet),
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        for packet in self.pending.expire(ctx.now) {
            ctx.drop_packet(&packet, DropReason::Expired);
        }
        for dest in self.pending.destinations() {
            self.start_probe(ctx, dest);
        }
    }

    fn on_neighbor_lost(&mut self, _ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // Invalidate cached routes that use the lost neighbour.
        self.routes
            .retain(|_, cached| !cached.route.contains(&neighbor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, ActionSink, TableLocationService};
    use vanet_mobility::{Normal, Vec2, VehicleKind, VehicleState};
    use vanet_net::NeighborTable;
    use vanet_sim::{PacketIdAllocator, SimRng};

    struct Harness {
        state: VehicleState,
        neighbors: NeighborTable,
        location: TableLocationService,
        rng: SimRng,
        ids: PacketIdAllocator,
        sink: ActionSink,
    }

    impl Harness {
        fn new(id: u32, x: f64) -> Self {
            let mut state =
                VehicleState::stationary(NodeId(id), VehicleKind::Car, Vec2::new(x, 0.0));
            state.velocity = Vec2::new(25.0, 0.0);
            Harness {
                state,
                neighbors: NeighborTable::new(),
                location: TableLocationService::new(),
                rng: SimRng::new(1),
                ids: PacketIdAllocator::new(),
                sink: ActionSink::new(),
            }
        }

        fn add_neighbor(&mut self, id: u32, x: f64, vx: f64) {
            self.neighbors.observe(
                NodeId(id),
                Vec2::new(x, 0.0),
                Vec2::new(vx, 0.0),
                SimTime::ZERO,
                SimDuration::from_secs(10.0),
            );
        }

        fn ctx(&mut self, now: f64) -> ProtocolContext<'_> {
            ProtocolContext {
                node: self.state.id,
                now: SimTime::from_secs(now),
                state: &self.state,
                neighbors: (&self.neighbors).into(),
                range_m: 250.0,
                rsu_ids: &[],
                bus_ids: &[],
                location: &self.location,
                rng: &mut self.rng,
                packet_ids: &mut self.ids,
                actions: &mut self.sink,
            }
        }
    }

    #[test]
    fn probing_issues_tickets_to_stable_progressing_neighbors() {
        let mut h = Harness::new(0, 0.0);
        h.location
            .set(NodeId(9), Vec2::new(2_000.0, 0.0), Vec2::ZERO);
        h.add_neighbor(1, 150.0, 25.0); // stable, progressing
        h.add_neighbor(2, 150.0, -25.0); // unstable (opposite), progressing
        h.add_neighbor(3, -150.0, 25.0); // behind, filtered out
        let mut yan = Yan::new();
        let actions = {
            let mut ctx = h.ctx(1.0);
            yan.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions()
        };
        // Two candidates → two tickets (max_branches = 2), both unicast.
        assert_eq!(actions.len(), 2);
        let mut next_hops: Vec<NodeId> = actions
            .iter()
            .map(|a| match a {
                Action::Transmit(p) => {
                    assert!(matches!(p.kind, PacketKind::Ticket { .. }));
                    p.next_hop.unwrap()
                }
                other => panic!("expected ticket transmit, got {other:?}"),
            })
            .collect();
        next_hops.sort();
        assert_eq!(next_hops, vec![NodeId(1), NodeId(2)]);
        // The stable neighbour's ticket carries the larger metric.
        let metric_of = |target: NodeId| {
            actions
                .iter()
                .find_map(|a| match a {
                    Action::Transmit(p) if p.next_hop == Some(target) => match &p.kind {
                        PacketKind::Ticket { metric, .. } => Some(*metric),
                        _ => None,
                    },
                    _ => None,
                })
                .unwrap()
        };
        assert!(metric_of(NodeId(1)) > metric_of(NodeId(2)));
    }

    /// `expected_link_duration` as it was before the fixed-abscissa table:
    /// `Normal::pdf` at each of the 2,001 samples. `vanet-links` keeps the
    /// same oracle private to its own tests, hence the copy.
    fn per_sample_pdf_duration(separation: f64, mean: f64, std: f64, range: f64) -> f64 {
        let lifetime = |v: f64| -> f64 {
            if v.abs() < 1e-3 {
                3_600.0
            } else if v > 0.0 {
                ((range - separation) / v).min(3_600.0)
            } else {
                ((range + separation) / -v).min(3_600.0)
            }
        };
        let dist = Normal::new(mean, std);
        let lo = mean - 6.0 * std;
        let h = (mean + 6.0 * std - lo) / 2_000.0;
        let (mut acc, mut weight) = (0.0, 0.0);
        for k in 0..=2_000 {
            let v = lo + k as f64 * h;
            let w = dist.pdf(v) * if k == 0 || k == 2_000 { 0.5 } else { 1.0 };
            acc += w * lifetime(v);
            weight += w;
        }
        acc / weight
    }

    /// Candidate selection the plain way: score every eligible neighbour,
    /// stable-sort descending, truncate.
    fn score_everyone(
        limit: u32,
        ctx: &ProtocolContext<'_>,
        dest: NodeId,
        path: &[NodeId],
        score: impl Fn(&NeighborInfo) -> f64,
    ) -> Vec<(NodeId, f64)> {
        let dest_pos = ctx.location.position_of(dest);
        let own_progress = dest_pos.map(|p| distance(ctx.position(), p));
        let mut scored: Vec<(NodeId, f64)> = ctx
            .neighbors
            .iter()
            .filter(|n| !path.contains(&n.id) && n.id != ctx.node)
            .filter(|n| match (dest_pos, own_progress) {
                (Some(p), Some(own)) => n.id == dest || distance(n.position, p) < own,
                _ => true,
            })
            .map(|n| (n.id, score(n)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(limit as usize);
        scored
    }

    /// [`Yan::rank_candidates`] against scoring everyone with
    /// [`Yan::link_stability`]: the same ids in the same order carrying the
    /// same bits. Returns the ranking's `(scored, integrated)`.
    fn assert_ranks_like_scoring_everyone(
        config: YanConfig,
        ctx: &ProtocolContext<'_>,
        path: &[NodeId],
        what: &str,
    ) -> (u64, u64) {
        let mut yan = Yan::with_config(config);
        yan.rank_candidates(ctx, NodeId(999), path);
        let bits = |ranked: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            ranked.iter().map(|&(id, s)| (id, s.to_bits())).collect()
        };
        let everyone = score_everyone(config.max_branches, ctx, NodeId(999), path, |n| {
            Yan::link_stability(&config, ctx, n)
        });
        assert_eq!(bits(&yan.best), bits(&everyone), "{what}");
        yan.scoring_counts()
    }

    const METRICS: [TicketMetric; 2] = [TicketMetric::ExpectedDuration, TicketMetric::MeanDuration];

    /// Ordering, not the float, is what the goldens rest on: on seeded
    /// highway-like neighbourhoods the bracketed top-k over the table kernel
    /// must pick the ids, in the order, that sorting every score of the
    /// per-sample-`pdf` kernel picked — and, under either metric, exactly
    /// what scoring every neighbour with the kernel in use picks, to the bit,
    /// while computing at most a quarter of those scores.
    #[test]
    fn ranking_matches_sorting_under_the_per_sample_pdf_kernel() {
        let mut rng = SimRng::new(0x71C4E7);
        let (mut scored, mut integrated) = (0, 0);
        for case in 0..1_000u32 {
            let mut h = Harness::new(0, 0.0);
            h.state.velocity = Vec2::new(rng.uniform_range(0.0, 30.0), 0.0);
            // One case in four probes blind: no progress filter, every
            // neighbour is scored.
            if case % 4 != 0 {
                h.location
                    .set(NodeId(999), Vec2::new(2_000.0, 0.0), Vec2::ZERO);
            }
            let neighbors = 40 + rng.uniform_usize(31) as u32;
            for id in 1..=neighbors {
                let lane = rng.uniform_usize(8) as f64;
                let position = Vec2::new(rng.uniform_range(-250.0, 250.0), 3.5 * lane);
                let velocity = Vec2::new(rng.uniform_range(-30.0, 30.0), 0.0);
                let ttl = SimDuration::from_secs(10.0);
                h.neighbors
                    .observe(NodeId(id), position, velocity, SimTime::ZERO, ttl);
                // Now and then a convoy partner with the same kinematics: an
                // exact tie, which the earlier neighbour must win.
                if rng.chance(0.05) {
                    let twin = NodeId(100 + id);
                    h.neighbors
                        .observe(twin, position, velocity, SimTime::ZERO, ttl);
                }
            }
            let max_branches = [1, 2, 2, 3, 5][case as usize % 5];
            let path = [NodeId(0), NodeId(1 + case % neighbors)];
            let ctx = h.ctx(1.0);
            for metric in METRICS {
                let config = YanConfig {
                    max_branches,
                    metric,
                    ..YanConfig::default()
                };
                let what = format!("case {case}, {metric:?}");
                let counts = assert_ranks_like_scoring_everyone(config, &ctx, &path, &what);
                // The mean duration is its own bracket and rules out all but
                // ties; the pruning claim is about the expectation.
                if metric == TicketMetric::ExpectedDuration {
                    scored += counts.0;
                    integrated += counts.1;
                }
            }
            let mut yan = Yan::with_config(YanConfig {
                max_branches,
                ..YanConfig::default()
            });
            yan.rank_candidates(&ctx, NodeId(999), &path);
            let ranked: Vec<NodeId> = yan.best.iter().map(|&(id, _)| id).collect();
            let std = yan.config.relative_speed_std;
            let sorted = score_everyone(max_branches, &ctx, NodeId(999), &path, |n| {
                let separation = distance(ctx.position(), n.position).min(ctx.range_m);
                let relative = (ctx.velocity() - n.velocity).norm();
                per_sample_pdf_duration(separation, relative, std, ctx.range_m)
            });
            let sorted: Vec<NodeId> = sorted.into_iter().map(|(id, _)| id).collect();
            assert_eq!(ranked, sorted, "case {case}");
        }
        assert!(scored > 25_000, "scored {scored}");
        assert!(
            4 * integrated <= scored,
            "{integrated} stabilities computed for {scored} candidates"
        );
    }

    /// Where there is nothing to rule out the ranking computes no bracket and
    /// scores everyone it is offered; a neighbour whose beacon carried a NaN
    /// velocity (the kernel scores it at the cap) is never ruled out.
    #[test]
    fn ranking_of_sparse_empty_and_nan_neighbourhoods_scores_everyone_eligible() {
        let mut rng = SimRng::new(0x5BA25E);
        for case in 0..200u32 {
            let mut h = Harness::new(0, 0.0);
            h.location
                .set(NodeId(999), Vec2::new(2_000.0, 0.0), Vec2::ZERO);
            // 0–7 neighbours, some behind (ineligible), against up to 5 places.
            let neighbors = case % 8;
            for id in 1..=neighbors {
                h.add_neighbor(
                    id,
                    rng.uniform_range(-250.0, 250.0),
                    rng.uniform_range(-30.0, 30.0),
                );
            }
            if case % 3 == 0 {
                let ttl = SimDuration::from_secs(10.0);
                let position = Vec2::new(rng.uniform_range(0.0, 250.0), 3.5);
                let velocity = Vec2::new(f64::NAN, 0.0);
                h.neighbors
                    .observe(NodeId(50), position, velocity, SimTime::ZERO, ttl);
            }
            let ctx = h.ctx(1.0);
            assert_eq!(
                ctx.neighbors.iter().any(|n| n.velocity.x.is_nan()),
                case % 3 == 0
            );
            let eligible = score_everyone(u32::MAX, &ctx, NodeId(999), &[NodeId(0)], |_| 0.0).len();
            for metric in METRICS {
                for max_branches in [0, 1, 2, 5] {
                    let config = YanConfig {
                        max_branches,
                        metric,
                        ..YanConfig::default()
                    };
                    let what = format!("case {case}, {metric:?}, {max_branches} branches");
                    let (scored, integrated) =
                        assert_ranks_like_scoring_everyone(config, &ctx, &[NodeId(0)], &what);
                    if max_branches == 0 {
                        assert_eq!((scored, integrated), (0, 0), "{what}");
                    } else {
                        assert_eq!(scored, eligible as u64, "{what}");
                    }
                    if eligible <= max_branches as usize {
                        assert_eq!(integrated, scored, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn destination_replies_and_source_caches_route() {
        // Destination node 9 receives a ticket and replies.
        let mut dest = Harness::new(9, 400.0);
        let mut yan_dest = Yan::new();
        let mut ticket = Packet::broadcast(
            NodeId(0),
            PacketKind::Ticket {
                target: NodeId(9),
                probe_id: 0,
                tickets: 1,
                path: vec![NodeId(0), NodeId(1)],
                metric: 42.0,
            },
            0,
        );
        ticket.destination = Some(NodeId(9));
        ticket.prev_hop = NodeId(1);
        ticket.next_hop = Some(NodeId(9));
        let reply_actions = {
            let mut ctx = dest.ctx(2.0);
            yan_dest.on_packet(&mut ctx, &ticket, false);
            ctx.take_actions()
        };
        let reply = match &reply_actions[0] {
            Action::Transmit(p) => {
                assert!(matches!(p.kind, PacketKind::RouteReply { .. }));
                assert_eq!(p.next_hop, Some(NodeId(1)));
                p.clone()
            }
            other => panic!("expected reply, got {other:?}"),
        };

        // The source receives the reply (after relaying) and caches the route.
        let mut src = Harness::new(0, 0.0);
        src.location
            .set(NodeId(9), Vec2::new(400.0, 0.0), Vec2::ZERO);
        src.add_neighbor(1, 150.0, 25.0);
        let mut yan_src = Yan::new();
        // Buffer a data packet first so the reply flushes it.
        {
            let mut ctx = src.ctx(1.0);
            yan_src.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions();
        }
        let flushed = {
            let mut ctx = src.ctx(3.0);
            yan_src.on_packet(&mut ctx, &reply, false);
            ctx.take_actions()
        };
        assert_eq!(yan_src.cached_routes(), 1);
        assert!(flushed.iter().any(|a| matches!(
            a,
            Action::Transmit(p) if p.kind == PacketKind::Data && p.source_route.is_some()
        )));
    }

    #[test]
    fn data_follows_source_route_hop_by_hop() {
        let mut relay = Harness::new(1, 150.0);
        let mut yan = Yan::new();
        let mut data = Packet::data(NodeId(0), NodeId(9), 64);
        data.source_route = Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(9)]);
        data.prev_hop = NodeId(0);
        data.next_hop = Some(NodeId(1));
        let actions = {
            let mut ctx = relay.ctx(2.0);
            yan.on_packet(&mut ctx, &data, false);
            ctx.take_actions()
        };
        assert!(matches!(&actions[0], Action::Transmit(p) if p.next_hop == Some(NodeId(2))));
    }

    #[test]
    fn lost_neighbor_invalidates_routes_through_it() {
        let mut h = Harness::new(0, 0.0);
        h.location.set(NodeId(9), Vec2::new(400.0, 0.0), Vec2::ZERO);
        let mut yan = Yan::new();
        yan.routes.insert(
            NodeId(9),
            CachedRoute {
                route: vec![NodeId(0), NodeId(1), NodeId(9)],
                metric: 10.0,
                expires_at: SimTime::from_secs(100.0),
            },
        );
        {
            let mut ctx = h.ctx(1.0);
            yan.on_neighbor_lost(&mut ctx, NodeId(1));
        }
        assert_eq!(yan.cached_routes(), 0);
    }

    #[test]
    fn tbpss_variant_uses_mean_duration_and_different_name() {
        let yan = Yan::with_config(YanConfig::stability_constrained());
        assert_eq!(yan.name(), "Yan-TBPSS");
        assert_eq!(Yan::new().name(), "Yan");
        assert_eq!(yan.category(), Category::Probability);
    }

    #[test]
    fn no_neighbors_means_no_probe() {
        let mut h = Harness::new(0, 0.0);
        h.location
            .set(NodeId(9), Vec2::new(2_000.0, 0.0), Vec2::ZERO);
        let mut yan = Yan::new();
        let actions = {
            let mut ctx = h.ctx(1.0);
            yan.originate(&mut ctx, Packet::data(NodeId(0), NodeId(9), 64));
            ctx.take_actions()
        };
        assert!(
            actions.is_empty(),
            "packet is buffered until probing succeeds"
        );
    }
}
