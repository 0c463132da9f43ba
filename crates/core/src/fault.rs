//! Deterministic fault plans: scheduled disruptions injected into a run.
//!
//! A [`FaultPlan`] describes *when* and *where* the scenario misbehaves —
//! vehicles going dark, road-side units failing, a spatial region being
//! jammed, or the whole channel suffering burst loss. Faults are part of the
//! [`Scenario`](crate::Scenario) and therefore part of its content hash: two
//! scenarios with different plans never share cached campaign results, while
//! an **empty plan leaves the hash (and the simulated run) byte-identical**
//! to an engine without fault support at all.
//!
//! Fault transitions ride the simulation's `(time, seq)` scheduler discipline
//! as first-class events, so a plan is deterministic across runs, workers and
//! shards. Protocols never see faults directly — only their consequences
//! (lost frames, expired neighbours), exactly like a real outage.

/// What a single fault disrupts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A vehicle's radio is off: it neither transmits nor receives.
    NodeOutage {
        /// Vehicle index (0-based) within the scenario fleet.
        node: u32,
    },
    /// A road-side unit is down: radio off and detached from the backbone.
    RsuOutage {
        /// RSU index (0-based) in placement order.
        rsu: u32,
    },
    /// A rectangular grid region of the scenario area is jammed: receptions
    /// whose receiver stands inside the region are lost with probability
    /// `loss`.
    Jam {
        /// Row-major region index within the `regions_per_axis²` grid.
        region: u32,
        /// Extra loss probability applied inside the region, `0.0..=1.0`.
        loss: f64,
    },
    /// Scenario-wide burst packet loss: every reception is additionally lost
    /// with probability `loss` while the fault is active.
    BurstLoss {
        /// Extra loss probability, `0.0..=1.0`.
        loss: f64,
    },
    /// A chaos fault: the worker running the simulation panics the instant
    /// the fault activates (`start_s`; the end of the window is ignored).
    /// Deterministic — same scenario, same panic — so it exercises the
    /// campaign layer's crash isolation, quarantine and resume paths
    /// end-to-end through the normal scenario pipeline.
    Poison,
}

impl FaultKind {
    /// Human-readable description of the fault's target, used in validation
    /// messages ("node 10", "rsu 1", "jam region 3", "burst loss").
    #[must_use]
    fn target_desc(&self) -> String {
        match self {
            FaultKind::NodeOutage { node } => format!("node {node}"),
            FaultKind::RsuOutage { rsu } => format!("rsu {rsu}"),
            FaultKind::Jam { region, .. } => format!("jam region {region}"),
            FaultKind::BurstLoss { .. } => "burst loss".to_owned(),
            FaultKind::Poison => "poison".to_owned(),
        }
    }

    /// A key identifying the fault's target: two faults with the same key
    /// must not have overlapping active windows.
    fn target_key(&self) -> (u8, u32) {
        match self {
            FaultKind::NodeOutage { node } => (0, *node),
            FaultKind::RsuOutage { rsu } => (1, *rsu),
            FaultKind::Jam { region, .. } => (2, *region),
            FaultKind::BurstLoss { .. } => (3, 0),
            FaultKind::Poison => (4, 0),
        }
    }
}

/// One scheduled disruption: a [`FaultKind`] active over `start_s..end_s`
/// simulated seconds. `end_s` may be `f64::INFINITY` ("until the end of the
/// run").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What is disrupted.
    pub kind: FaultKind,
    /// Activation time, simulated seconds from run start.
    pub start_s: f64,
    /// Recovery time, simulated seconds; `f64::INFINITY` = never recovers.
    pub end_s: f64,
}

impl Fault {
    fn window_desc(&self) -> String {
        if self.end_s.is_infinite() {
            format!("{}s..end", self.start_s)
        } else {
            format!("{}s..{}s", self.start_s, self.end_s)
        }
    }
}

/// A validation failure in a [`FaultPlan`], with a precise message naming
/// the offending fault and window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// What is wrong, e.g. `"overlapping windows for node 10: 5s..15s and
    /// 10s..20s"`.
    pub message: String,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FaultPlanError {}

/// The complete, deterministic disruption schedule of one scenario.
///
/// The default plan is empty and invisible: it is omitted from the
/// scenario's `Debug` rendering (hence from its content hash) and schedules
/// no events, so an empty-plan run is byte-identical to a run on an engine
/// without fault support.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Side length of the jam-region grid: the scenario area is divided into
    /// `regions_per_axis × regions_per_axis` equal rectangles, indexed
    /// row-major (matching `WindowedTap`'s region aggregation).
    pub regions_per_axis: usize,
    /// The scheduled faults, in declaration order.
    pub faults: Vec<Fault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            regions_per_axis: 4,
            faults: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no disruptions).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Sets the jam-region grid resolution.
    #[cfg(test)]
    #[must_use]
    fn with_regions_per_axis(mut self, regions_per_axis: usize) -> Self {
        self.regions_per_axis = regions_per_axis;
        self
    }

    /// Adds a vehicle outage window.
    #[must_use]
    pub fn node_outage(mut self, node: u32, start_s: f64, end_s: f64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::NodeOutage { node },
            start_s,
            end_s,
        });
        self
    }

    /// Adds a road-side-unit outage window.
    #[must_use]
    pub fn rsu_outage(mut self, rsu: u32, start_s: f64, end_s: f64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::RsuOutage { rsu },
            start_s,
            end_s,
        });
        self
    }

    /// Adds a regional jamming window.
    #[must_use]
    pub fn jam(mut self, region: u32, loss: f64, start_s: f64, end_s: f64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::Jam { region, loss },
            start_s,
            end_s,
        });
        self
    }

    /// Adds a scenario-wide burst-loss window.
    #[must_use]
    pub fn burst_loss(mut self, loss: f64, start_s: f64, end_s: f64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::BurstLoss { loss },
            start_s,
            end_s,
        });
        self
    }

    /// Adds a chaos fault: the run panics at `at_s` simulated seconds.
    #[must_use]
    pub fn poison(mut self, at_s: f64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::Poison,
            start_s: at_s,
            end_s: f64::INFINITY,
        });
        self
    }

    /// Checks the plan for malformed or conflicting faults.
    ///
    /// Rejects non-finite or negative start times, inverted or empty windows
    /// (`end_s <= start_s`), loss probabilities outside `0.0..=1.0`, region
    /// indices outside the `regions_per_axis²` grid, and overlapping windows
    /// for the same target — each with a message naming the fault precisely.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let err = |message: String| Err(FaultPlanError { message });
        if self.regions_per_axis == 0 {
            return err("fault plan regions_per_axis must be at least 1".to_owned());
        }
        let region_count = self.regions_per_axis * self.regions_per_axis;
        for fault in &self.faults {
            let target = fault.kind.target_desc();
            if !fault.start_s.is_finite() || fault.start_s < 0.0 {
                return err(format!(
                    "{target}: start time {}s must be finite and non-negative",
                    fault.start_s
                ));
            }
            if fault.end_s.is_nan() || fault.end_s <= fault.start_s {
                return err(format!(
                    "{target}: window {} is inverted or empty (end must be after start)",
                    fault.window_desc()
                ));
            }
            let loss = match fault.kind {
                FaultKind::Jam { loss, .. } | FaultKind::BurstLoss { loss } => Some(loss),
                _ => None,
            };
            if let Some(loss) = loss {
                if !(0.0..=1.0).contains(&loss) {
                    return err(format!(
                        "{target}: loss probability {loss} must be within 0..=1"
                    ));
                }
            }
            if let FaultKind::Jam { region, .. } = fault.kind {
                if region as usize >= region_count {
                    return err(format!(
                        "jam region {region} is outside the {rpa}x{rpa} grid \
                         (valid regions: 0..{region_count})",
                        rpa = self.regions_per_axis
                    ));
                }
            }
        }
        // Overlap check: quadratic over the (small) plan, per target.
        for (i, a) in self.faults.iter().enumerate() {
            for b in &self.faults[i + 1..] {
                if a.kind.target_key() == b.kind.target_key()
                    && a.start_s < b.end_s
                    && b.start_s < a.end_s
                {
                    return err(format!(
                        "overlapping windows for {}: {} and {}",
                        a.kind.target_desc(),
                        a.window_desc(),
                        b.window_desc()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks that every outage names a node a scenario of `vehicles`
    /// vehicles and `rsus` road-side units has: an outage of an absent node
    /// would leave the run as if the fault were not there.
    pub fn validate_targets(&self, vehicles: usize, rsus: usize) -> Result<(), FaultPlanError> {
        for fault in &self.faults {
            let (target, limit, unit) = match fault.kind {
                FaultKind::NodeOutage { node } => (node, vehicles, "vehicles"),
                FaultKind::RsuOutage { rsu } => (rsu, rsus, "rsus"),
                _ => continue,
            };
            if target as usize >= limit {
                return Err(FaultPlanError {
                    message: format!(
                        "fault {} is outside the scenario's {limit} {unit} (valid ids: 0..{limit})",
                        fault.kind.target_desc()
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::new());
        plan.validate().expect("empty plan is valid");
    }

    #[test]
    fn builders_accumulate_faults() {
        let plan = FaultPlan::new()
            .node_outage(3, 5.0, 10.0)
            .rsu_outage(0, 2.0, f64::INFINITY)
            .jam(1, 0.8, 0.0, 4.0)
            .burst_loss(0.5, 12.0, 13.0);
        assert_eq!(plan.faults.len(), 4);
        assert!(!plan.is_empty());
        plan.validate().expect("plan is valid");
    }

    #[test]
    fn inverted_window_is_rejected_with_target() {
        let e = FaultPlan::new()
            .node_outage(7, 10.0, 5.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("node 7"), "{}", e.message);
        assert!(e.message.contains("inverted"), "{}", e.message);
    }

    #[test]
    fn negative_start_is_rejected() {
        let e = FaultPlan::new()
            .rsu_outage(1, -1.0, 5.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("rsu 1"), "{}", e.message);
    }

    #[test]
    fn out_of_range_loss_is_rejected() {
        let e = FaultPlan::new()
            .burst_loss(1.5, 0.0, 1.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("loss probability 1.5"), "{}", e.message);
    }

    #[test]
    fn out_of_grid_region_is_rejected() {
        let e = FaultPlan::new()
            .with_regions_per_axis(2)
            .jam(4, 0.5, 0.0, 1.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("jam region 4"), "{}", e.message);
        assert!(e.message.contains("2x2"), "{}", e.message);
    }

    #[test]
    fn overlapping_windows_same_target_are_rejected() {
        let e = FaultPlan::new()
            .node_outage(10, 5.0, 15.0)
            .node_outage(10, 10.0, 20.0)
            .validate()
            .unwrap_err();
        assert_eq!(
            e.message,
            "overlapping windows for node 10: 5s..15s and 10s..20s"
        );
    }

    #[test]
    fn overlapping_windows_different_targets_are_fine() {
        FaultPlan::new()
            .node_outage(10, 5.0, 15.0)
            .node_outage(11, 10.0, 20.0)
            .rsu_outage(10, 5.0, 15.0)
            .validate()
            .expect("different targets may overlap");
    }

    #[test]
    fn adjacent_windows_same_target_are_fine() {
        FaultPlan::new()
            .node_outage(4, 0.0, 5.0)
            .node_outage(4, 5.0, 10.0)
            .validate()
            .expect("touching windows do not overlap");
    }

    #[test]
    fn poison_builder_and_overlap() {
        let plan = FaultPlan::new().poison(5.0);
        plan.validate().expect("a single poison is valid");
        assert_eq!(plan.faults[0].kind.target_desc(), "poison");
        // Two poisons share the target key and the first never "recovers",
        // so a second one always overlaps.
        let e = FaultPlan::new()
            .poison(5.0)
            .poison(9.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("poison"), "{}", e.message);
    }

    #[test]
    fn infinite_end_overlaps_everything_later() {
        let e = FaultPlan::new()
            .rsu_outage(0, 2.0, f64::INFINITY)
            .rsu_outage(0, 50.0, 60.0)
            .validate()
            .unwrap_err();
        assert!(e.message.contains("2s..end"), "{}", e.message);
    }
}
