//! Mobility traces: recording and replaying vehicle trajectories.
//!
//! Traces serve two purposes: they let experiments re-run different routing
//! protocols over the *identical* vehicle movement (isolating protocol effects
//! from mobility randomness), and they let the link-lifetime model (Fig. 3) be
//! validated against observed link break times.

use crate::geometry::{Position, Velocity};
use crate::model::MobilityModel;
use vanet_sim::{NodeId, SimTime};

/// One recorded sample: where a vehicle was at a given time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Sample timestamp.
    pub time: SimTime,
    /// The vehicle.
    pub id: NodeId,
    /// Its position.
    pub position: Position,
    /// Its velocity.
    pub velocity: Velocity,
}

/// A time-ordered collection of [`TraceSample`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MobilityTrace {
    samples: Vec<TraceSample>,
}

impl MobilityTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current state of every vehicle in `model` at time `now`.
    pub fn record<M: MobilityModel + ?Sized>(&mut self, now: SimTime, model: &M) {
        for s in model.states() {
            self.samples.push(TraceSample {
                time: now,
                id: s.id,
                position: s.position,
                velocity: s.velocity,
            });
        }
    }

    /// Adds a single sample.
    pub fn push(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// All samples in recording order.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples belonging to one vehicle, in time order.
    #[must_use]
    pub fn trajectory(&self, id: NodeId) -> Vec<&TraceSample> {
        self.samples.iter().filter(|s| s.id == id).collect()
    }

    /// Position of a vehicle at `time`, linearly interpolated between the two
    /// nearest samples. Returns `None` if the vehicle has no samples.
    #[must_use]
    pub fn position_at(&self, id: NodeId, time: SimTime) -> Option<Position> {
        let traj = self.trajectory(id);
        if traj.is_empty() {
            return None;
        }
        if time <= traj[0].time {
            return Some(traj[0].position);
        }
        if time >= traj[traj.len() - 1].time {
            return Some(traj[traj.len() - 1].position);
        }
        for pair in traj.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if time >= a.time && time <= b.time {
                let span = (b.time - a.time).as_secs();
                if span == 0.0 {
                    return Some(a.position);
                }
                let frac = (time - a.time).as_secs() / span;
                return Some(a.position + (b.position - a.position) * frac);
            }
        }
        Some(traj[traj.len() - 1].position)
    }

    /// The set of distinct vehicle ids appearing in the trace.
    #[must_use]
    pub fn vehicle_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.samples.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The first and last sample times, if the trace is non-empty.
    #[must_use]
    pub fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.samples.first()?.time;
        let last = self
            .samples
            .iter()
            .map(|s| s.time)
            .fold(first, SimTime::max);
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;
    use crate::highway::HighwayBuilder;
    use vanet_sim::{SimDuration, SimRng};

    #[test]
    fn record_and_query() {
        let mut rng = SimRng::new(1);
        let mut hw = HighwayBuilder::new().vehicles(5).build(&mut rng);
        let mut trace = MobilityTrace::new();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            trace.record(t, &hw);
            hw.step(SimDuration::from_secs(1.0), &mut rng);
            t += SimDuration::from_secs(1.0);
        }
        assert_eq!(trace.len(), 50);
        assert_eq!(trace.vehicle_ids().len(), 5);
        assert_eq!(trace.trajectory(NodeId(0)).len(), 10);
        let (start, end) = trace.time_span().unwrap();
        assert_eq!(start, SimTime::ZERO);
        assert_eq!(end, SimTime::from_secs(9.0));
    }

    #[test]
    fn interpolation_between_samples() {
        let mut trace = MobilityTrace::new();
        trace.push(TraceSample {
            time: SimTime::from_secs(0.0),
            id: NodeId(1),
            position: Vec2::new(0.0, 0.0),
            velocity: Vec2::new(10.0, 0.0),
        });
        trace.push(TraceSample {
            time: SimTime::from_secs(10.0),
            id: NodeId(1),
            position: Vec2::new(100.0, 0.0),
            velocity: Vec2::new(10.0, 0.0),
        });
        let mid = trace
            .position_at(NodeId(1), SimTime::from_secs(5.0))
            .unwrap();
        assert!((mid.x - 50.0).abs() < 1e-9);
        // Clamping outside the recorded span.
        assert_eq!(
            trace
                .position_at(NodeId(1), SimTime::from_secs(-5.0))
                .unwrap(),
            Vec2::new(0.0, 0.0)
        );
        assert_eq!(
            trace
                .position_at(NodeId(1), SimTime::from_secs(50.0))
                .unwrap(),
            Vec2::new(100.0, 0.0)
        );
        assert!(trace.position_at(NodeId(2), SimTime::ZERO).is_none());
    }

    #[test]
    fn empty_trace_behaviour() {
        let trace = MobilityTrace::new();
        assert!(trace.is_empty());
        assert!(trace.time_span().is_none());
        assert!(trace.vehicle_ids().is_empty());
    }
}
