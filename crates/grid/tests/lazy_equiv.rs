//! Property equivalences for the warm-path machinery: the lazy
//! [`CacheView`] must answer exactly like the strict reader's eager
//! decode, and the sort-and-sweep frontier must survive exactly the
//! batch non-domination scan. Each property runs over arbitrary subsets of a real explored
//! corpus, so every outcome variant the models actually produce is
//! exercised — not just hand-built fixtures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use memstream_grid::{
    non_dominated, CacheView, CellOutcome, FrontierBuilder, GridExecutor, ResultCache, ScenarioGrid,
};
use proptest::prelude::*;

/// The shared entry corpus: one serial exploration of a small paper
/// grid, flattened to sorted `(key, outcome)` pairs. Built once — the
/// properties only ever *select* from it.
fn corpus() -> &'static [(String, CellOutcome)] {
    static CORPUS: OnceLock<Vec<(String, CellOutcome)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let grid = ScenarioGrid::paper_baseline(6);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .expect("corpus grid explores");
        let mut entries: Vec<(String, CellOutcome)> = cache
            .keys()
            .map(|key| (key.to_owned(), cache.get(key).expect("listed key resolves")))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(entries.len() >= 20, "corpus is big enough to subset");
        entries
    })
}

fn temp_path(name: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("memstream-grid-lazy-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{case}.cache"))
}

/// Resolves raw sampled indices into a deduplicated entry subset
/// (indices wrap around the corpus, so any usize is a valid pick).
fn select(picks: &[usize]) -> BTreeMap<String, CellOutcome> {
    let corpus = corpus();
    picks
        .iter()
        .map(|&pick| corpus[pick % corpus.len()].clone())
        .collect()
}

fn cache_of(entries: &BTreeMap<String, CellOutcome>) -> ResultCache {
    let mut cache = ResultCache::new();
    for (key, outcome) in entries {
        cache.insert(key.clone(), outcome.clone());
    }
    cache
}

/// A distinct tag per proptest case, so concurrent cases never share a
/// scratch file. (Wall clocks are banned in these tests' spirit of
/// determinism; a process-wide counter is enough.)
fn next_case() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    CASE.fetch_add(1, Ordering::Relaxed)
}

proptest! {
    /// Every lookup against the lazy view — `get`, `contains_key`, and
    /// the `load_lazy` cache built over it — answers exactly like the
    /// strict reader's eager decode of the same file, for hits and
    /// misses alike.
    #[test]
    fn lazy_view_answers_match_the_eager_load(
        picks in prop::collection::vec(0usize..1_000_000, 1..40)
    ) {
        let entries = select(&picks);
        let path = temp_path("view", next_case());
        cache_of(&entries).save(&path).expect("save");

        let eager = ResultCache::load_strict(&path).expect("strict load");
        let lazy = ResultCache::load_lazy(&path).expect("lazy load");
        let view = CacheView::open(&path).expect("view opens");

        prop_assert_eq!(eager.len(), entries.len());
        prop_assert_eq!(lazy.len(), entries.len());
        prop_assert_eq!(view.len(), entries.len());
        // Probe the *whole* corpus: selected keys are hits, the rest
        // must miss identically in all three readers.
        for (key, _) in corpus() {
            prop_assert_eq!(eager.get(key), view.get(key));
            prop_assert_eq!(eager.get(key), lazy.get(key));
            prop_assert_eq!(eager.contains_key(key), view.contains_key(key));
            prop_assert_eq!(eager.contains_key(key), lazy.contains_key(key));
        }
        prop_assert!(view.get("not a dedup key").is_none());
        // Memoizing lookups leave the lazy cache's answers unchanged.
        for (key, outcome) in &entries {
            let got = lazy.get(key);
            prop_assert_eq!(got.as_ref(), Some(outcome));
        }
        std::fs::remove_file(path).ok();
    }

    /// The frontier builder's sort-and-sweep keeps exactly the batch
    /// non-dominated set, whatever the insertion order — over continuous
    /// coordinates, and over coordinates drawn from
    /// `{-0.0, 0.0, 0.5, 1.0}`, which are full of duplicates, ties and
    /// signed zeros that continuous draws never produce.
    #[test]
    fn incremental_frontier_equals_batch_non_domination(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 0..50),
        tied in prop::collection::vec((0..4usize, 0..4usize, 0..4usize), 0..50)
    ) {
        const LEVELS: [f64; 4] = [-0.0, 0.0, 0.5, 1.0];
        let continuous: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let tie_heavy: Vec<[f64; 3]> = tied
            .iter()
            .map(|&(a, b, c)| [LEVELS[a], LEVELS[b], LEVELS[c]])
            .collect();
        for points in [continuous, tie_heavy] {
            let mut builder = FrontierBuilder::new();
            for (i, &p) in points.iter().enumerate() {
                builder.insert(i, p);
            }
            let survivors: Vec<usize> = builder.finish().into_iter().map(|(i, _)| i).collect();
            prop_assert_eq!(survivors, non_dominated(&points));
        }
    }
}
