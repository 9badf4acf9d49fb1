//! Property equivalences for the warm-path machinery: the lazy
//! [`CacheView`] must answer exactly like the strict reader's eager
//! decode, v3 blocks must round-trip every bit pattern a float can hold,
//! and the sort-and-sweep frontier must survive exactly the batch
//! non-domination scan. The view property runs over arbitrary subsets of
//! a real explored corpus, so every outcome variant the models actually
//! produce is exercised — not just hand-built fixtures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use memstream_grid::{
    non_dominated, CacheView, CellOutcome, EnergyOnlyPoint, FrontierBuilder, GridExecutor,
    PlannedPoint, ResultCache, ScenarioGrid,
};
use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};
use proptest::prelude::*;

/// A cache key: series token and rate bits.
type Key = (String, u64);

/// The shared entry corpus: one serial exploration of a small paper
/// grid, flattened to sorted `(key, outcome)` pairs. Built once — the
/// properties only ever *select* from it.
fn corpus() -> &'static [(Key, CellOutcome)] {
    static CORPUS: OnceLock<Vec<(Key, CellOutcome)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let grid = ScenarioGrid::paper_baseline(6);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .expect("corpus grid explores");
        let entries: Vec<(Key, CellOutcome)> = cache
            .keys()
            .map(|(series, rate)| {
                let outcome = cache.get(series, rate).expect("listed key resolves");
                ((series.to_owned(), rate), outcome)
            })
            .collect();
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
fn select(picks: &[usize]) -> BTreeMap<Key, CellOutcome> {
    let corpus = corpus();
    picks
        .iter()
        .map(|&pick| corpus[pick % corpus.len()].clone())
        .collect()
}

fn cache_of(entries: &BTreeMap<Key, CellOutcome>) -> ResultCache {
    let mut cache = ResultCache::new();
    for ((series, rate), outcome) in entries {
        cache.insert(series, *rate, outcome.clone());
    }
    cache
}

/// Floats whose bits a lossy codec would not keep: NaN payloads of both
/// signs, signed zeros, infinities, subnormals.
const EXOTIC: [u64; 9] = [
    0x7ff8_0000_0000_0001,
    0xfff0_0000_dead_beef,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x3ff0_0000_0000_0000,
    0xc059_0000_0000_0000,
];

/// An `f64` from a sampled selector: an exotic pattern or raw bits.
fn float(pick: u64) -> f64 {
    f64::from_bits(match pick % 12 {
        i @ 0..=8 => EXOTIC[i as usize],
        _ => pick.rotate_left(17),
    })
}

/// A detail string: empty, multi-KB, or holding key separators.
fn detail(pick: u64) -> String {
    match pick % 4 {
        0 => String::new(),
        1 => "probe wear |r=2.0| ".repeat(200 + (pick % 100) as usize),
        2 => format!("r={pick}|dram=true|pol=rw"),
        _ => format!("detail {}", pick % 7),
    }
}

/// A value from a unit-constrained field's domain (finite, `>= 0`,
/// at most `max`): signed zeros, a subnormal, the bound, or a sample.
fn bounded(pick: u64, max: f64) -> f64 {
    match pick % 5 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => max,
        _ => (pick >> 11) as f64 / (1u64 << 53) as f64 * max,
    }
}

/// One sampled outcome of any kind: unconstrained floats (savings) from
/// [`float`], unit-typed ones from their domains.
fn outcome(kind: u64, a: u64, b: u64) -> CellOutcome {
    let opt = |pick: u64| (!pick.is_multiple_of(5)).then(|| float(pick / 5));
    let opt_size =
        |pick: u64| (!pick.is_multiple_of(3)).then(|| DataSize::from_bits(bounded(pick / 3, 1e12)));
    match kind % 4 {
        0 => CellOutcome::Feasible(PlannedPoint {
            buffer: DataSize::from_bits(bounded(a, 1e12)),
            dominant: ["E", "C", "Lsp", "Lpb", "Lpe"][(b % 5) as usize],
            saving: opt(b),
            utilization: Ratio::from_fraction(bounded(b.rotate_left(7), 1.0)),
            lifetime: match a % 4 {
                0 => Years::unbounded(),
                _ => Years::new(bounded(a.rotate_left(3), 1e6)),
            },
            energy_per_bit: (!b.is_multiple_of(3))
                .then(|| EnergyPerBit::from_joules_per_bit(bounded(a ^ b, 1e-6))),
        }),
        1 => CellOutcome::Infeasible {
            region: ["X", "E", "Lpb", "disk", "-"][(a % 5) as usize],
            detail: detail(b),
        },
        2 => CellOutcome::EnergyOnly(EnergyOnlyPoint {
            break_even: opt_size(a),
            buffer_for_saving: opt_size(b),
            saving: opt(a.rotate_left(11)),
        }),
        _ => CellOutcome::Unmodelled { detail: detail(a) },
    }
}

/// Every float of `outcome` as bits plus its strings: equal iff the
/// outcomes are bit-identical (`PartialEq` calls NaN unequal to itself
/// and `0.0` equal to `-0.0`).
fn fingerprint(outcome: &CellOutcome) -> String {
    let b = |v: f64| v.to_bits();
    let o = |v: Option<f64>| v.map(f64::to_bits);
    match outcome {
        CellOutcome::Feasible(p) => format!(
            "F {} {} {:?} {} {} {:?}",
            b(p.buffer.bits()),
            p.dominant,
            o(p.saving),
            b(p.utilization.fraction()),
            b(p.lifetime.get()),
            o(p.energy_per_bit.map(EnergyPerBit::joules_per_bit)),
        ),
        CellOutcome::Infeasible { region, detail } => format!("X {region} {detail:?}"),
        CellOutcome::EnergyOnly(p) => format!(
            "D {:?} {:?} {:?}",
            o(p.break_even.map(DataSize::bits)),
            o(p.buffer_for_saving.map(DataSize::bits)),
            o(p.saving),
        ),
        CellOutcome::Unmodelled { detail } => format!("U {detail:?}"),
    }
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
        for ((series, rate), _) in corpus() {
            let (series, rate) = (series.as_str(), *rate);
            prop_assert_eq!(eager.get(series, rate), view.get(series, rate));
            prop_assert_eq!(eager.get(series, rate), lazy.get(series, rate));
            prop_assert_eq!(eager.contains_key(series, rate), view.contains_key(series, rate));
            prop_assert_eq!(eager.contains_key(series, rate), lazy.contains_key(series, rate));
        }
        prop_assert!(view.get("not a series", 0).is_none());
        prop_assert_eq!(
            lazy.keys().collect::<Vec<_>>(),
            eager.keys().collect::<Vec<_>>()
        );
        for ((series, rate), outcome) in &entries {
            let got = lazy.get(series, *rate);
            prop_assert_eq!(got.as_ref(), Some(outcome));
        }
        std::fs::remove_file(path).ok();
    }

    /// v3 blocks round-trip every entry bit for bit through both
    /// readers: NaN payloads, signed zeros and infinities in every float
    /// field and in the rate bits, empty and multi-KB details, and
    /// series tokens holding `|` and `r=`.
    #[test]
    fn v3_blocks_round_trip_exotic_values(
        raw in prop::collection::vec((0u64..6, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1..40)
    ) {
        const SERIES: [&str; 6] = [
            "mems:3:a|b|w=0.4|g=-|dram=true|pol=rw",
            "mems:9:r=1.0|x|w=0.4|r=2.0|g=-|dram=false|pol=idle",
            "",
            "|",
            "r=",
            "disk:7:plain",
        ];
        let mut cache = ResultCache::new();
        let mut expected = BTreeMap::new();
        for &(series, rate_pick, a, b) in &raw {
            let series = SERIES[series as usize];
            let rate = float(rate_pick).to_bits();
            let outcome = outcome(a ^ b, a, b);
            expected.insert((series.to_owned(), rate), fingerprint(&outcome));
            cache.insert(series, rate, outcome);
        }
        let path = temp_path("exotic", next_case());
        cache.save(&path).expect("save");
        let strict = ResultCache::load_strict(&path).expect("strict load");
        let lazy = ResultCache::load_lazy(&path).expect("lazy load");
        for loaded in [&strict, &lazy] {
            prop_assert_eq!(loaded.len(), expected.len());
            for ((series, rate), print) in &expected {
                let got = loaded.get(series, *rate).map(|o| fingerprint(&o));
                prop_assert_eq!(got.as_ref(), Some(print));
            }
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
