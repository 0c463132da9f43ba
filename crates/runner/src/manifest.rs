//! Plan manifests: what a journal directory *thinks* it is running.
//!
//! The journal caches job results by content key, so editing a plan under
//! an existing journal is safe — changed cells miss the cache and re-run.
//! It is also silent, and silence is how a "resumed" campaign quietly
//! becomes a different experiment. The runner therefore writes a
//! `campaign.jsonl` manifest beside the journal: one line per plan cell
//! with the cell's stable content hash (scenario + protocol, the same
//! inputs [`PlanJob::key`](vanet_core::PlanJob::key) is built from). On the
//! next run with the same journal directory, the previous manifest is
//! diffed against the current plan and any drift — edited, added, removed
//! or relabelled cells — is reported before the campaign starts.

use crate::record::{self, Line};
use std::path::{Path, PathBuf};
use vanet_core::{CampaignPlan, PlanCell};
use vanet_sim::StableHasher;

/// Name of the plan manifest inside a journal directory.
pub const MANIFEST_FILE: &str = "campaign.jsonl";

/// One plan cell as persisted in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Cell position in the plan.
    pub cell: usize,
    /// The campaign name the manifest was written under.
    pub campaign: String,
    /// The cell label.
    pub label: String,
    /// Protocol name (human context for drift messages).
    pub protocol: String,
    /// Scenario name (human context for drift messages).
    pub scenario: String,
    /// Stable content hash of the cell's (scenario, protocol) binding.
    pub hash: u64,
}

/// The stable content hash of a cell — the same scenario/protocol inputs
/// job keys are derived from, so "hash unchanged" means "every cached key
/// of this cell is still reachable".
#[must_use]
fn cell_hash(cell: &PlanCell) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_str("cell/v1");
    hasher.write_u64(cell.scenario.content_hash());
    hasher.write_u64(cell.protocol.content_hash());
    hasher.finish()
}

/// Projects a plan into its manifest entries.
#[must_use]
pub fn manifest_entries(plan: &CampaignPlan) -> Vec<ManifestEntry> {
    plan.cells
        .iter()
        .enumerate()
        .map(|(cell, c)| ManifestEntry {
            cell,
            campaign: plan.name.clone(),
            label: c.label.clone(),
            protocol: c.protocol.name().to_owned(),
            scenario: c.scenario.name.clone(),
            hash: cell_hash(c),
        })
        .collect()
}

/// Renders one manifest line (no trailing newline).
#[must_use]
pub fn render_entry(entry: &ManifestEntry) -> String {
    Line::default()
        .u64("cell", entry.cell as u64)
        .str("campaign", &entry.campaign)
        .str("label", &entry.label)
        .str("protocol", &entry.protocol)
        .str("scenario", &entry.scenario)
        .hex16("hash", entry.hash)
        .finish()
}

/// Parses one manifest line.
pub fn parse_entry(line: &str) -> Result<ManifestEntry, String> {
    let line = record::parse(line)?;
    Ok(ManifestEntry {
        cell: line.int("cell")?,
        campaign: line.str("campaign")?.to_owned(),
        label: line.str("label")?.to_owned(),
        protocol: line.str("protocol")?.to_owned(),
        scenario: line.str("scenario")?.to_owned(),
        hash: line.hex16("hash")?,
    })
}

/// The manifest file's path inside a journal directory.
#[must_use]
fn manifest_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(MANIFEST_FILE)
}

/// Loads the manifest previously written in `dir`, if any. Unreadable
/// lines are skipped (an interrupted write only costs that line's drift
/// context, never the run).
pub fn load(dir: impl AsRef<Path>) -> std::io::Result<Option<Vec<ManifestEntry>>> {
    let path = manifest_path(dir);
    let Ok(existing) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    Ok(Some(record::records(&existing, parse_entry).0))
}

/// Rewrites the manifest in `dir` to describe `plan`.
pub fn write(dir: impl AsRef<Path>, plan: &CampaignPlan) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut out = String::new();
    for entry in manifest_entries(plan) {
        out.push_str(&render_entry(&entry));
        out.push('\n');
    }
    std::fs::write(manifest_path(dir), out)
}

/// Describes how the current plan drifted from a previously recorded
/// manifest: one human-readable line per difference, empty when the plan
/// is unchanged. Cells are matched positionally — the same way journal
/// results are folded back into cells.
#[must_use]
pub fn diff(previous: &[ManifestEntry], current: &[ManifestEntry]) -> Vec<String> {
    let mut lines = Vec::new();
    for (old, new) in previous.iter().zip(current.iter()) {
        if old.hash != new.hash {
            lines.push(format!(
                "cell {} ({:?}, {} on {}) changed content since the journal was written \
                 (was {:?}, {} on {}); its cached results no longer apply and it will re-run",
                new.cell,
                new.label,
                new.protocol,
                new.scenario,
                old.label,
                old.protocol,
                old.scenario,
            ));
        } else if old.label != new.label {
            lines.push(format!(
                "cell {} was relabelled {:?} -> {:?} (content unchanged; cache still applies)",
                new.cell, old.label, new.label,
            ));
        }
    }
    if current.len() > previous.len() {
        lines.push(format!(
            "plan grew from {} to {} cells since the journal was written",
            previous.len(),
            current.len(),
        ));
    }
    if current.len() < previous.len() {
        lines.push(format!(
            "plan shrank from {} to {} cells since the journal was written",
            previous.len(),
            current.len(),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::temp_dir;
    use vanet_core::{ProtocolKind, ReplicationPolicy, Scenario};

    fn plan() -> CampaignPlan {
        CampaignPlan::new("manifest-test")
            .cell_with(
                "hw-aodv",
                Scenario::highway(10).with_seed(3),
                ProtocolKind::Aodv,
                ReplicationPolicy::Fixed(2),
            )
            .cell_with(
                "hw-greedy",
                Scenario::highway(10).with_seed(3),
                ProtocolKind::Greedy,
                ReplicationPolicy::Fixed(2),
            )
    }

    #[test]
    fn entries_round_trip_exactly() {
        for entry in manifest_entries(&plan()) {
            let parsed = parse_entry(&render_entry(&entry)).expect("rendered entry parses");
            assert_eq!(parsed, entry);
        }
    }

    #[test]
    fn hash_tracks_cell_content_not_labels_or_policy() {
        let base = plan();
        let mut relabelled = plan();
        relabelled.cells[0].label = "renamed".to_owned();
        relabelled.cells[0].replication = ReplicationPolicy::Fixed(9);
        assert_eq!(cell_hash(&base.cells[0]), cell_hash(&relabelled.cells[0]));
        let mut edited = plan();
        edited.cells[0].scenario = edited.cells[0].scenario.clone().with_seed(4);
        assert_ne!(cell_hash(&base.cells[0]), cell_hash(&edited.cells[0]));
        assert_ne!(cell_hash(&base.cells[0]), cell_hash(&base.cells[1]));
    }

    #[test]
    fn diff_reports_edits_relabels_and_shape_changes() {
        let before = manifest_entries(&plan());
        assert!(diff(&before, &manifest_entries(&plan())).is_empty());

        let mut edited = plan();
        edited.cells[1].scenario = edited.cells[1].scenario.clone().with_flows(9);
        let lines = diff(&before, &manifest_entries(&edited));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("cell 1") && lines[0].contains("changed content"));

        let mut relabelled = plan();
        relabelled.cells[0].label = "renamed".to_owned();
        let lines = diff(&before, &manifest_entries(&relabelled));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("relabelled"));

        let grown = plan().cell_with(
            "extra",
            Scenario::highway(5).with_seed(1),
            ProtocolKind::Flooding,
            ReplicationPolicy::Fixed(1),
        );
        let lines = diff(&before, &manifest_entries(&grown));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("grew"));
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        assert_eq!(load(&dir).unwrap(), None);
        write(&dir, &plan()).unwrap();
        let loaded = load(&dir).unwrap().expect("manifest exists");
        assert_eq!(loaded, manifest_entries(&plan()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
