//! The programmatic version of the paper's Fig. 1: the taxonomy of VANET
//! routing techniques, mapping each category to the protocols implemented in
//! this workspace and providing constructors for all of them.

use vanet_routing::{
    abedi, aodv, car, greedy, gvgrid, pbr, rear, rover, taleb, Biswas, BusFerry, Category, Drr,
    Dsdv, DtnParams, Epidemic, Flooding, ProbFlood, Prophet, RoutingProtocol, SprayAndWait, Yan,
    YanConfig, Zone,
};

/// Every protocol implemented in the workspace, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ProtocolKind {
    Flooding,
    Biswas,
    Aodv,
    Dsdv,
    Pbr,
    Taleb,
    Abedi,
    Drr,
    Bus,
    Greedy,
    Zone,
    Rover,
    Yan,
    YanTbpss,
    Car,
    Rear,
    GvGrid,
    Epidemic,
    Prophet,
    SprayWait,
    ProbFlood,
}

impl ProtocolKind {
    /// All implemented protocols in taxonomy order.
    pub const ALL: [ProtocolKind; 21] = [
        ProtocolKind::Flooding,
        ProtocolKind::Biswas,
        ProtocolKind::Aodv,
        ProtocolKind::Dsdv,
        ProtocolKind::Pbr,
        ProtocolKind::Taleb,
        ProtocolKind::Abedi,
        ProtocolKind::Drr,
        ProtocolKind::Bus,
        ProtocolKind::Greedy,
        ProtocolKind::Zone,
        ProtocolKind::Rover,
        ProtocolKind::Yan,
        ProtocolKind::YanTbpss,
        ProtocolKind::Car,
        ProtocolKind::Rear,
        ProtocolKind::GvGrid,
        ProtocolKind::Epidemic,
        ProtocolKind::Prophet,
        ProtocolKind::SprayWait,
        ProtocolKind::ProbFlood,
    ];

    /// One representative protocol per category, used by the Table I
    /// comparison experiment.
    pub const REPRESENTATIVES: [ProtocolKind; 6] = [
        ProtocolKind::Aodv,
        ProtocolKind::Pbr,
        ProtocolKind::Drr,
        ProtocolKind::Greedy,
        ProtocolKind::Yan,
        ProtocolKind::Epidemic,
    ];

    /// The taxonomy category the protocol belongs to (Fig. 1).
    #[must_use]
    pub fn category(self) -> Category {
        match self {
            ProtocolKind::Flooding
            | ProtocolKind::Biswas
            | ProtocolKind::Aodv
            | ProtocolKind::Dsdv => Category::Connectivity,
            ProtocolKind::Pbr | ProtocolKind::Taleb | ProtocolKind::Abedi => Category::Mobility,
            ProtocolKind::Drr | ProtocolKind::Bus => Category::Infrastructure,
            ProtocolKind::Greedy | ProtocolKind::Zone | ProtocolKind::Rover => Category::Geographic,
            ProtocolKind::Yan
            | ProtocolKind::YanTbpss
            | ProtocolKind::Car
            | ProtocolKind::Rear
            | ProtocolKind::GvGrid => Category::Probability,
            ProtocolKind::Epidemic
            | ProtocolKind::Prophet
            | ProtocolKind::SprayWait
            | ProtocolKind::ProbFlood => Category::Dtn,
        }
    }

    /// The protocol's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Flooding => "Flooding",
            ProtocolKind::Biswas => "Biswas",
            ProtocolKind::Aodv => "AODV",
            ProtocolKind::Dsdv => "DSDV",
            ProtocolKind::Pbr => "PBR",
            ProtocolKind::Taleb => "Taleb",
            ProtocolKind::Abedi => "Abedi",
            ProtocolKind::Drr => "DRR",
            ProtocolKind::Bus => "Bus",
            ProtocolKind::Greedy => "Greedy",
            ProtocolKind::Zone => "Zone",
            ProtocolKind::Rover => "ROVER",
            ProtocolKind::Yan => "Yan",
            ProtocolKind::YanTbpss => "Yan-TBPSS",
            ProtocolKind::Car => "CAR",
            ProtocolKind::Rear => "REAR",
            ProtocolKind::GvGrid => "GVGrid",
            ProtocolKind::Epidemic => "Epidemic",
            ProtocolKind::Prophet => "PRoPHET",
            ProtocolKind::SprayWait => "SprayWait",
            ProtocolKind::ProbFlood => "ProbFlood",
        }
    }

    /// Builds a fresh protocol instance of this kind with default DTN
    /// parameters (connected-path protocols ignore them entirely).
    #[must_use]
    pub fn build(self) -> Box<dyn RoutingProtocol + Send> {
        self.build_with(DtnParams::default())
    }

    /// Builds a fresh protocol instance of this kind, with the scenario's
    /// store-carry-forward knobs for the DTN family.
    #[must_use]
    pub fn build_with(self, dtn: DtnParams) -> Box<dyn RoutingProtocol + Send> {
        struct One;
        impl BuildProtocol for One {
            type Output = Box<dyn RoutingProtocol + Send>;
            fn build<P: RoutingProtocol + Send + 'static>(
                self,
                make: impl Fn() -> P,
            ) -> Self::Output {
                Box::new(make())
            }
        }
        self.build_as(dtn, One)
    }

    /// Hands `builder` this kind's concrete protocol type and its
    /// constructor, with the scenario's store-carry-forward knobs for the
    /// DTN family: the one place a kind names its type.
    pub(crate) fn build_as<B: BuildProtocol>(self, dtn: DtnParams, builder: B) -> B::Output {
        match self {
            ProtocolKind::Flooding => builder.build(Flooding::new),
            ProtocolKind::Biswas => builder.build(Biswas::new),
            ProtocolKind::Aodv => builder.build(aodv),
            ProtocolKind::Dsdv => builder.build(Dsdv::new),
            ProtocolKind::Pbr => builder.build(pbr),
            ProtocolKind::Taleb => builder.build(taleb),
            ProtocolKind::Abedi => builder.build(abedi),
            ProtocolKind::Drr => builder.build(Drr::new),
            ProtocolKind::Bus => builder.build(BusFerry::new),
            ProtocolKind::Greedy => builder.build(greedy),
            ProtocolKind::Zone => builder.build(Zone::new),
            ProtocolKind::Rover => builder.build(rover),
            ProtocolKind::Yan => builder.build(Yan::new),
            ProtocolKind::YanTbpss => {
                builder.build(|| Yan::with_config(YanConfig::stability_constrained()))
            }
            ProtocolKind::Car => builder.build(car),
            ProtocolKind::Rear => builder.build(rear),
            ProtocolKind::GvGrid => builder.build(gvgrid),
            ProtocolKind::Epidemic => builder.build(move || Epidemic::new(dtn)),
            ProtocolKind::Prophet => builder.build(move || Prophet::new(dtn)),
            ProtocolKind::SprayWait => builder.build(move || SprayAndWait::new(dtn)),
            ProtocolKind::ProbFlood => builder.build(move || ProbFlood::new(dtn)),
        }
    }

    /// A stable 64-bit content hash of the protocol identity, used as the
    /// protocol half of campaign-journal cache keys. Pinned FNV-1a over the
    /// display name, so it never varies across runs or platforms.
    #[must_use]
    pub fn content_hash(self) -> u64 {
        let mut hasher = vanet_sim::StableHasher::new();
        hasher.write_str("protocol/v1");
        hasher.write_str(self.name());
        hasher.finish()
    }

    /// All protocols belonging to `category`.
    #[must_use]
    fn in_category(category: Category) -> Vec<ProtocolKind> {
        Self::ALL
            .into_iter()
            .filter(|p| p.category() == category)
            .collect()
    }
}

/// What to make of a protocol kind once [`ProtocolKind::build_as`] has
/// resolved it to its concrete type `P`: one boxed instance
/// ([`ProtocolKind::build_with`]) or a whole fleet's slab.
pub(crate) trait BuildProtocol {
    /// What the builder makes.
    type Output;
    /// Makes it from `make`, which returns a fresh instance per call.
    fn build<P: RoutingProtocol + Send + 'static>(self, make: impl Fn() -> P) -> Self::Output;
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders the taxonomy (Fig. 1) as lines of `category: protocol, protocol…`.
#[must_use]
pub fn taxonomy_lines() -> Vec<String> {
    Category::ALL
        .iter()
        .map(|&cat| {
            let names: Vec<&str> = ProtocolKind::in_category(cat)
                .into_iter()
                .map(ProtocolKind::name)
                .collect();
            format!("{cat}: {}", names.join(", "))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_category_has_protocols() {
        for cat in Category::ALL {
            assert!(
                !ProtocolKind::in_category(cat).is_empty(),
                "category {cat} has no protocols"
            );
        }
    }

    #[test]
    fn built_protocols_report_consistent_identity() {
        let mut beaconing = 0;
        for kind in ProtocolKind::ALL {
            let proto = kind.build();
            assert_eq!(proto.name(), kind.name(), "name mismatch for {kind:?}");
            assert_eq!(
                proto.category(),
                kind.category(),
                "category mismatch for {kind:?}"
            );
            // Only the two floods and DSDV run without position beacons;
            // every other protocol beacons once a second.
            let beacon = match kind {
                ProtocolKind::Flooding | ProtocolKind::Biswas | ProtocolKind::Dsdv => None,
                _ => Some(vanet_sim::SimDuration::from_secs(1.0)),
            };
            assert_eq!(proto.beacon_interval(), beacon, "beacon for {kind:?}");
            beaconing += usize::from(beacon.is_some());
        }
        assert_eq!(beaconing, 18);
    }

    #[test]
    fn representatives_cover_all_six_categories() {
        let mut cats: Vec<Category> = ProtocolKind::REPRESENTATIVES
            .iter()
            .map(|p| p.category())
            .collect();
        cats.sort();
        cats.dedup();
        assert_eq!(cats.len(), 6);
    }

    #[test]
    fn taxonomy_rendering_mentions_every_protocol() {
        let lines = taxonomy_lines();
        assert_eq!(lines.len(), 6);
        let joined = lines.join("\n");
        for kind in ProtocolKind::ALL {
            assert!(joined.contains(kind.name()), "{} missing", kind.name());
        }
    }

    #[test]
    fn content_hashes_are_distinct_per_protocol() {
        let mut hashes: Vec<u64> = ProtocolKind::ALL
            .into_iter()
            .map(ProtocolKind::content_hash)
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), ProtocolKind::ALL.len());
        // Stable across calls (and, by construction, across runs).
        assert_eq!(
            ProtocolKind::Aodv.content_hash(),
            ProtocolKind::Aodv.content_hash()
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ProtocolKind::Aodv.to_string(), "AODV");
        assert_eq!(ProtocolKind::YanTbpss.to_string(), "Yan-TBPSS");
    }
}
