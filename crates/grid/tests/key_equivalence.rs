//! The key-compatibility acceptance suite: interned [`CellKey`]s must
//! resolve to the legacy [`ScenarioGrid::dedup_key`] bytes for every
//! cell, a `dedup_key` split into its cache key (series token, rate
//! bits) hits under the interner,
//! and a warm exploration from a saved cache file must reproduce the
//! cold run's bytes.

use memstream_core::DesignGoal;
use memstream_device::{DiskDevice, EnergyOnly, FlashDevice, MemsDevice};
use memstream_grid::{
    split_dedup_key, DeviceEntry, GridExecutor, KeyInterner, ResultCache, ScenarioGrid,
    WorkloadProfile,
};

/// A per-process temp path (concurrent `cargo test` runs share the OS
/// temp dir; the pid keeps them apart).
fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("memstream-key-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// A flash-heavy grid: two content-identical flash entries (dedup must
/// share their keys), a tweaked sibling, and a masked MEMS device.
fn flash_grid(n_rates: usize) -> ScenarioGrid {
    ScenarioGrid::new()
        .device(DeviceEntry::new("flash-a", FlashDevice::mobile_mlc()))
        .device(DeviceEntry::new("flash-b", FlashDevice::mobile_mlc()))
        .device(DeviceEntry::new("disk", DiskDevice::calibrated_1p8_inch()))
        .device(DeviceEntry::new(
            "masked-mems",
            EnergyOnly::new(MemsDevice::table1()),
        ))
        .workload(WorkloadProfile::paper())
        .rate_span(64.0, 4096.0, n_rates)
        .goal(DesignGoal::fig3a())
        .goal(DesignGoal::fig3b())
}

#[test]
fn interned_keys_match_legacy_dedup_keys_for_every_cell() {
    for grid in [
        ScenarioGrid::paper_baseline(9),
        ScenarioGrid::paper_classic(6),
        flash_grid(5),
        ScenarioGrid::paper_baseline(4).without_dram(),
    ] {
        let interner = KeyInterner::new(&grid);
        for cell in grid.cells() {
            let key = interner.key(&cell);
            assert_eq!(
                interner.resolve(key),
                grid.dedup_key(&cell),
                "interned key diverges from the legacy bytes at {cell:?}"
            );
        }
        // Key equality must also coincide with legacy string equality
        // across the unique-cell representatives.
        let unique = grid.unique_cells();
        for a in &unique {
            for b in &unique {
                assert_eq!(
                    interner.key(a) == interner.key(b),
                    grid.dedup_key(a) == grid.dedup_key(b),
                );
            }
        }
    }
}

#[test]
fn interner_resolved_keys_hit_caches_written_with_legacy_keys() {
    // A cache keyed by legacy `dedup_key` strings (how every pre-interner
    // cache file was produced) must be fully warm under the interner.
    let grid = ScenarioGrid::paper_baseline(5);
    let mut legacy = ResultCache::new();
    let results = GridExecutor::serial().explore(&grid).expect("explore");
    for (cell, outcome) in results.records() {
        let (series, rate) = split_dedup_key(&grid.dedup_key(&cell)).expect("canonical key");
        legacy.insert(&series, rate, outcome.clone());
    }
    let mut warm = legacy.clone();
    let rerun = GridExecutor::serial()
        .explore_cached(&grid, &mut warm)
        .expect("warm explore");
    assert_eq!(warm.hits(), rerun.unique_evaluations());
    assert_eq!(warm.misses(), 0, "interner keys must hit legacy entries");
}

#[test]
fn warm_explorations_are_byte_identical_across_cache_formats() {
    let grid = ScenarioGrid::paper_baseline(7);
    let mut cold_cache = ResultCache::new();
    let cold = GridExecutor::parallel(2)
        .explore_cached(&grid, &mut cold_cache)
        .expect("cold explore");
    let reference = memstream_grid::report::cells_csv(&cold);

    let path = temp_path("warm.cache");
    cold_cache.save(&path).expect("save");
    let mut warm_cache = ResultCache::load_lazy(&path).expect("load");
    let warm = GridExecutor::parallel(3)
        .explore_cached(&grid, &mut warm_cache)
        .expect("warm explore");
    assert_eq!(warm_cache.misses(), 0, "the cache must be fully warm");
    assert_eq!(
        memstream_grid::report::cells_csv(&warm),
        reference,
        "the warm run must reproduce the cold bytes"
    );
    std::fs::remove_file(path).expect("cleanup");
}
