//! The engine-counter table: the whole [`EngineCounters`] record of three
//! runs, pinned exactly, each checked by one test (the 10k megacity in
//! `hotpath.rs`; the congested AODV storm and the disrupted Epidemic highway
//! in `golden_reports.rs`'s survival-bracket and run-length-window tests).
//! A counter can move while every report byte stays the same, and then it
//! names the structure whose occupancy or fast path changed.

use vanet_core::EngineCounters;

/// One row per run: its label, then the record as `name=value` pairs in
/// [`EngineCounters::FIELDS`] order, printed ready to paste by the
/// `regenerate` generators of `hotpath.rs` and `golden_reports.rs`. In the
/// megacity row the arena's key blocks, split in half and filled in random
/// id order, sit near the B-tree fill of ln 2 (408,495 entries in 18,715
/// blocks of 32 keys), and the slabs hold 18,715 × 264 + 408,495 × 12 +
/// 19,383 × 40 = 10,618,020 bytes.
pub const ROWS: [&str; 3] = [
    "megacity-10k Greedy|events=767362 wheel_splices=0 entries_held=408495 blocks_live=18715 blocks_free=0 slots_live=408495 slots_free=0 adverts_live=19383 adverts_free=0 slab_bytes=10618020 grid_lists=196 grid_entries=40000 grid_longest=314 medium_frames=20081 continued=0 receivers=809436 bracketed=280154 decided=230565 scanned=557109 snapshots=20081 window_entries=97776 copies=97776 frames=20068 one_pass=19566 sorted=502 slab_peak=25",
    "congested AODV|events=339352 wheel_splices=0 entries_held=28319 blocks_live=1308 blocks_free=0 slots_live=28319 slots_free=232 adverts_live=1480 adverts_free=347 slab_bytes=761004 grid_lists=27 grid_entries=1920 grid_longest=126 medium_frames=26936 continued=2 receivers=1559047 bracketed=1458126 decided=1182335 scanned=340229 snapshots=26934 window_entries=1527947 copies=1528011 frames=23883 one_pass=3755 sorted=20128 slab_peak=249",
    "disrupted Epidemic|events=20526 wheel_splices=0 entries_held=313 blocks_live=57 blocks_free=3 slots_live=313 slots_free=65 adverts_live=126 adverts_free=50 slab_bytes=27416 grid_lists=54 grid_entries=240 grid_longest=17 medium_frames=19229 continued=12366 receivers=30480 bracketed=22441 decided=20118 scanned=3750 snapshots=6863 window_entries=124813 copies=453578 frames=6217 one_pass=1739 sorted=4478 slab_peak=162",
];

/// `counters` as `name=value` pairs, through [`EngineCounters::FIELDS`].
fn render(counters: &EngineCounters) -> Vec<String> {
    EngineCounters::FIELDS
        .iter()
        .map(|(name, get)| format!("{name}={}", get(counters)))
        .collect()
}

/// Panics, naming every counter of `got` that differs from row `label` of
/// [`ROWS`].
pub fn assert_row(label: &str, got: &EngineCounters) {
    let pinned = ROWS
        .iter()
        .find_map(|row| row.strip_prefix(label)?.strip_prefix('|'))
        .unwrap_or_else(|| panic!("no engine-counter row {label:?}"));
    let pinned: Vec<&str> = pinned.split(' ').collect();
    let got = render(got);
    assert_eq!(
        pinned.len(),
        got.len(),
        "{label}: counters added or removed — regenerate"
    );
    let diffs: Vec<String> = pinned
        .iter()
        .zip(&got)
        .filter(|(pin, value)| *pin != value)
        .map(|(pin, value)| format!("  pinned {pin}, got {value}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{label}: {} engine counter(s) diverged from the table:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// Prints `got` as row `label` of [`ROWS`], ready to paste.
pub fn print_row(label: &str, got: &EngineCounters) {
    println!("    \"{label}|{}\",", render(got).join(" "));
}
