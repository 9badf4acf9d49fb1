//! The performance trajectory: canonical benchmark scenarios and the
//! versioned `BENCH_grid.json` they emit.
//!
//! `harness bench` runs a fixed scenario battery — a cold cached grid
//! exploration, the same exploration warm, a lazy warm-planning pass
//! (index probes only, zero record decodes — counter-asserted), the
//! hot-path micro phases (interned-key resolution, lazy cache load), a
//! refinement run, and a two-shard process fan-out — each under its own
//! fresh telemetry registry, and folds the snapshots into one JSON
//! document (schema [`BENCH_SCHEMA`], evolution rules in
//! `docs/OBSERVABILITY.md`). Committing that file per release gives the
//! repository a perf trajectory: cells/sec cold and warm, lazy
//! warm-start probes/sec, assemble seconds, key resolutions/sec,
//! cache-load entries/sec, knees localised per refinement round, and
//! shard-merge throughput.
//!
//! Rates are computed from the same `grid.*`/`refine.*`/`shard.*` metric
//! catalogue the `--stats` flag exposes, so a bench number can always be
//! cross-checked against an instrumented run.

use std::fmt;
use std::io;
use std::path::PathBuf;

use memstream_grid::telemetry::json::JsonObject;
use memstream_grid::telemetry::{TraceSnapshot, Tracer};
use memstream_grid::{GridExecutor, KeyInterner, Metrics, ResultCache};
use memstream_refine::{RefineConfig, RefinementEngine};
use memstream_shard::{explore_sharded, GridRecipe, ShardError, ShardOptions};

/// The `BENCH_grid.json` schema version, bumped on any incompatible
/// change (see `docs/OBSERVABILITY.md` for the evolution rules).
/// v3 added the cold scenario's per-series evaluation-latency
/// percentiles to the `grid` section. v4 added the lazy warm-planning
/// phase (probe rate plus the asserted-zero decode count), the serial
/// vs parallel v2 decode phase, and the cold scenario's assemble
/// seconds. v5 replaced the v1-vs-v2 and serial-vs-parallel load phases
/// (both alternatives are gone) with one lazy-load rate.
pub const BENCH_SCHEMA: &str = "memstream-bench-grid v5";

/// The build profile the bench binary was compiled under, recorded in
/// the document so debug-build numbers can never masquerade as the
/// release trajectory.
pub const BENCH_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Shapes of the canonical bench scenarios.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Rate-axis length of the grid scenarios (cold, warm, shard).
    pub grid_rates: usize,
    /// Rate-axis length the refinement scenario starts from.
    pub refine_rates: usize,
    /// Refinement round budget.
    pub max_rounds: usize,
    /// Worker-process count of the shard scenario.
    pub shards: usize,
    /// The binary spawned as `shard-worker` — normally the running
    /// harness itself (`std::env::current_exe()`).
    pub program: PathBuf,
    /// Whether this is the reduced CI smoke shape (recorded in the
    /// document, so trajectories never mix shapes silently).
    pub quick: bool,
}

impl BenchConfig {
    /// The canonical shape: big enough that rates are stable, small
    /// enough to finish in seconds.
    #[must_use]
    pub fn standard(program: PathBuf) -> Self {
        BenchConfig {
            grid_rates: 20,
            refine_rates: 12,
            max_rounds: 6,
            shards: 2,
            program,
            quick: false,
        }
    }

    /// The `--quick` CI smoke shape.
    #[must_use]
    pub fn quick(program: PathBuf) -> Self {
        BenchConfig {
            grid_rates: 8,
            refine_rates: 6,
            max_rounds: 3,
            shards: 2,
            program,
            quick: true,
        }
    }
}

/// Why a bench run failed (all scenario errors funnel here, attributed).
#[derive(Debug)]
pub enum BenchError {
    /// A grid scenario failed to explore.
    Grid(memstream_grid::GridError),
    /// The shard scenario failed (spawn, merge, scratch I/O, ...).
    Shard(ShardError),
    /// The cache-load scenario's scratch I/O failed.
    Scratch(io::Error),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Grid(e) => write!(f, "bench grid scenario: {e}"),
            BenchError::Shard(e) => write!(f, "bench shard scenario: {e}"),
            BenchError::Scratch(e) => write!(f, "bench scratch I/O: {e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Grid(e) => Some(e),
            BenchError::Shard(e) => Some(e),
            BenchError::Scratch(e) => Some(e),
        }
    }
}

impl From<io::Error> for BenchError {
    fn from(e: io::Error) -> Self {
        BenchError::Scratch(e)
    }
}

impl From<memstream_grid::GridError> for BenchError {
    fn from(e: memstream_grid::GridError) -> Self {
        BenchError::Grid(e)
    }
}

impl From<ShardError> for BenchError {
    fn from(e: ShardError) -> Self {
        BenchError::Shard(e)
    }
}

/// One grid scenario's numbers. "Cells/sec" is unique cells *resolved*
/// per second of `grid.explore` wall time — the same numerator cold and
/// warm, so a warm run (which skips evaluation) is faster by
/// construction, and the cold/warm ratio reads as the cache's speedup.
#[derive(Debug, Clone, Copy)]
pub struct GridBenchRow {
    /// Wall-clock seconds inside `grid.explore`.
    pub seconds: f64,
    /// Unique cells resolved per second.
    pub cells_per_sec: f64,
}

/// Everything one bench run measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The shape that was run.
    pub config: BenchConfig,
    /// Worker threads the grid scenarios actually ran on (the resolved
    /// machine width — recorded so trajectories from differently sized
    /// hosts never compare silently).
    pub threads: usize,
    /// Unique cells of the grid scenarios' grid.
    pub grid_unique_cells: usize,
    /// The cold (empty-cache) exploration.
    pub cold: GridBenchRow,
    /// The warm (fully cached) re-exploration.
    pub warm: GridBenchRow,
    /// Cold-scenario per-series evaluation latency p50, in seconds (from
    /// the `grid.series_eval` histogram — the distribution behind
    /// `cold_cells_per_sec`).
    pub eval_latency_p50_seconds: f64,
    /// Cold-scenario per-series evaluation latency p99, in seconds.
    pub eval_latency_p99_seconds: f64,
    /// Wall-clock seconds inside `grid.assemble` on the cold scenario —
    /// the result-folding tail, including the frontier sort-and-sweep.
    pub assemble_seconds: f64,
    /// Interned-key resolutions (`CellKey` → canonical string) per second.
    pub key_resolutions_per_sec: f64,
    /// Fully-warm planning probes per second against a lazily indexed
    /// v3 cache (a series-resolved probe of every unique cell — the
    /// coordinator's warm short-circuit path).
    pub lazy_warm_cells_per_sec: f64,
    /// Records the lazy warm-planning phase decoded. Asserted zero at
    /// measurement time: warm planning is index probes only.
    pub lazy_records_decoded: u64,
    /// Entries of the cache file the load phase opens.
    pub cache_entries: usize,
    /// [`ResultCache::load_lazy`] rate over that file (read, validate,
    /// index), in entries per second.
    pub load_entries_per_sec: f64,
    /// Refinement rounds actually run.
    pub refine_rounds: usize,
    /// Knees the refinement localised.
    pub refine_knees: usize,
    /// Wall-clock seconds inside `refine.round`, summed over rounds.
    pub refine_seconds: f64,
    /// Interchange bytes the shard coordinator merged.
    pub shard_merge_bytes: u64,
    /// Wall-clock seconds inside `shard.merge`, summed over workers.
    pub shard_merge_seconds: f64,
}

impl BenchReport {
    /// Knees localised per refinement round.
    #[must_use]
    pub fn knees_per_round(&self) -> f64 {
        self.refine_knees as f64 / self.refine_rounds.max(1) as f64
    }

    /// Shard-merge throughput in MB/s (decimal megabytes, elapsed
    /// clamped to a nanosecond so the rate is always finite).
    #[must_use]
    pub fn merge_mb_per_sec(&self) -> f64 {
        self.shard_merge_bytes as f64 / 1e6 / self.shard_merge_seconds.max(1e-9)
    }

    /// The versioned `BENCH_grid.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_str("schema", BENCH_SCHEMA)
            .field_bool("quick", self.config.quick)
            .field_u64("threads", self.threads as u64)
            .field_str("profile", BENCH_PROFILE)
            .field_object(
                "grid",
                JsonObject::new()
                    .field_u64("rates", self.config.grid_rates as u64)
                    .field_u64("unique_cells", self.grid_unique_cells as u64)
                    .field_f64("cold_seconds", self.cold.seconds)
                    .field_f64("cold_cells_per_sec", self.cold.cells_per_sec)
                    .field_f64("warm_seconds", self.warm.seconds)
                    .field_f64("warm_cells_per_sec", self.warm.cells_per_sec)
                    .field_f64("eval_latency_p50_seconds", self.eval_latency_p50_seconds)
                    .field_f64("eval_latency_p99_seconds", self.eval_latency_p99_seconds)
                    .field_f64("assemble_seconds", self.assemble_seconds)
                    .field_f64("key_resolutions_per_sec", self.key_resolutions_per_sec),
            )
            .field_object(
                "cache",
                JsonObject::new()
                    .field_u64("entries", self.cache_entries as u64)
                    .field_f64("load_entries_per_sec", self.load_entries_per_sec)
                    .field_f64("lazy_warm_cells_per_sec", self.lazy_warm_cells_per_sec)
                    .field_u64("lazy_records_decoded", self.lazy_records_decoded),
            )
            .field_object(
                "refine",
                JsonObject::new()
                    .field_u64("rates", self.config.refine_rates as u64)
                    .field_u64("rounds", self.refine_rounds as u64)
                    .field_u64("knees", self.refine_knees as u64)
                    .field_f64("knees_per_round", self.knees_per_round())
                    .field_f64("seconds", self.refine_seconds),
            )
            .field_object(
                "shard",
                JsonObject::new()
                    .field_u64("shards", self.config.shards as u64)
                    .field_u64("merge_bytes", self.shard_merge_bytes)
                    .field_f64("merge_seconds", self.shard_merge_seconds)
                    .field_f64("merge_mb_per_sec", self.merge_mb_per_sec()),
            )
            .render_pretty()
    }

    /// The human summary the harness prints to stderr.
    #[must_use]
    pub fn render_summary(&self) -> String {
        format!(
            "bench ({}): grid {} cells — cold {:.0} cells/s, warm {:.0} cells/s; \
             eval p50 {:.0} us, p99 {:.0} us; assemble {:.1} ms; \
             keys {:.0}/s; lazy warm {:.0} probes/s ({} decoded); \
             cache load {:.0} entries/s; \
             refine {} knees in {} rounds ({:.2}/round); \
             shard merge {:.2} MB/s over {} bytes\n",
            if self.config.quick {
                "quick"
            } else {
                "standard"
            },
            self.grid_unique_cells,
            self.cold.cells_per_sec,
            self.warm.cells_per_sec,
            self.eval_latency_p50_seconds * 1e6,
            self.eval_latency_p99_seconds * 1e6,
            self.assemble_seconds * 1e3,
            self.key_resolutions_per_sec,
            self.lazy_warm_cells_per_sec,
            self.lazy_records_decoded,
            self.load_entries_per_sec,
            self.refine_knees,
            self.refine_rounds,
            self.knees_per_round(),
            self.merge_mb_per_sec(),
            self.shard_merge_bytes,
        )
    }
}

/// Reads one grid scenario's row off a run's snapshot.
fn grid_row(metrics: &Metrics) -> GridBenchRow {
    let snapshot = metrics.snapshot();
    GridBenchRow {
        seconds: snapshot.span_seconds("grid.explore").unwrap_or(0.0),
        cells_per_sec: snapshot
            .rate_per_second("grid.cells_unique", "grid.explore")
            .unwrap_or(0.0),
    }
}

/// Runs every scenario of `config` and returns the measured report.
///
/// Each scenario gets a fresh [`Metrics`] registry, so its numbers are
/// the scenario's alone; the warm grid scenario reuses the cold run's
/// cache (re-attached to the fresh registry), which is the point.
///
/// # Errors
///
/// [`BenchError`] naming the scenario that failed.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, BenchError> {
    run_bench_traced(config, &Tracer::disabled()).map(|(report, _)| report)
}

/// [`run_bench`] with every scenario's registry sharing `tracer`, so a
/// `--trace` run sees the whole bench as one timeline. Also returns the
/// shard scenario's worker trace fragments for the caller to merge into
/// the final document.
///
/// # Errors
///
/// [`BenchError`] naming the scenario that failed.
pub fn run_bench_traced(
    config: &BenchConfig,
    tracer: &Tracer,
) -> Result<(BenchReport, Vec<TraceSnapshot>), BenchError> {
    // Scenario 1+2: cold then warm cached exploration of the same grid.
    let grid = GridRecipe::reference(false, config.grid_rates).build();
    let cold_metrics = Metrics::enabled_with_tracer(tracer);
    let mut cache = ResultCache::new();
    cache.set_metrics(&cold_metrics);
    let results = GridExecutor::parallel(0)
        .with_metrics(&cold_metrics)
        .explore_cached(&grid, &mut cache)?;
    let grid_unique_cells = results.unique_evaluations();
    let cold = grid_row(&cold_metrics);
    let cold_snapshot = cold_metrics.snapshot();
    let eval_latency = cold_snapshot.histogram("grid.series_eval");

    let warm_metrics = Metrics::enabled_with_tracer(tracer);
    cache.set_metrics(&warm_metrics);
    GridExecutor::parallel(0)
        .with_metrics(&warm_metrics)
        .explore_cached(&grid, &mut cache)?;
    let warm = grid_row(&warm_metrics);

    let scratch = std::env::temp_dir().join(format!("memstream-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let interner = KeyInterner::new(&grid);
    let unique = grid.unique_cells();
    let key_reps = if config.quick { 100 } else { 400 };

    // Scenario 3: lazy warm planning — the coordinator's fully-warm
    // short-circuit path. The cold run's cache is saved as v3, indexed
    // lazily, and every unique cell is probed: each series' block is
    // resolved once per pass, then each cell's rate bits are
    // binary-searched in it. The phase *asserts* zero row decodes —
    // that counter staying at zero is the whole point of the lazy
    // reader, so a regression fails the bench instead of merely shifting
    // a number.
    let lazy_metrics = Metrics::enabled_with_tracer(tracer);
    let lazy_path = scratch.join("bench.lazy.cache");
    cache.save(&lazy_path)?;
    let mut lazy_cache = ResultCache::load_lazy(&lazy_path)?;
    lazy_cache.set_metrics(&lazy_metrics);
    let lazy_probes = lazy_metrics.counter("bench.lazy_warm_probes");
    let mut key_buf = String::new();
    let mut warm_answers = 0usize;
    let lazy_timer = lazy_metrics.span("bench.lazy_warm").start();
    for _ in 0..key_reps {
        let series: Vec<_> = (0..interner.series_count())
            .map(|s| lazy_cache.series(interner.series_token(s)))
            .collect();
        for cell in &unique {
            let held = series[interner.series_id(cell)].contains(interner.rate_bits(cell));
            warm_answers += usize::from(held);
        }
    }
    drop(lazy_timer);
    lazy_probes.add((key_reps * unique.len()) as u64);
    assert_eq!(
        warm_answers,
        key_reps * unique.len(),
        "a fully-warm lazy cache answers every planning probe"
    );
    let lazy_snapshot = lazy_metrics.snapshot();
    let lazy_records_decoded = lazy_snapshot.counter("cache.records_decoded").unwrap_or(0);
    assert_eq!(
        lazy_records_decoded, 0,
        "fully-warm planning must not decode a single record"
    );
    assert!(
        lazy_snapshot.counter("cache.index_lookups").unwrap_or(0) > 0,
        "the probes went through the lazy view's index"
    );

    // Scenario 4: hot-path micro phases — interned-key resolution and
    // the lazy cache load, over the cold run's real entry set. Timed
    // through spans/counters like everything else, so the numbers can be
    // cross-checked against an instrumented run.
    let micro_metrics = Metrics::enabled_with_tracer(tracer);
    let resolutions = micro_metrics.counter("bench.key_resolutions");
    let resolve_timer = micro_metrics.span("bench.key_resolve").start();
    for _ in 0..key_reps {
        for cell in &unique {
            interner.resolve_into(interner.key(cell), &mut key_buf);
            std::hint::black_box(key_buf.len());
        }
    }
    drop(resolve_timer);
    resolutions.add((key_reps * unique.len()) as u64);

    let load_reps = if config.quick { 50 } else { 200 };
    let loaded_entries = micro_metrics.counter("bench.load_entries");
    let load_timer = micro_metrics.span("bench.cache_load").start();
    for _ in 0..load_reps {
        let loaded = ResultCache::load_lazy(&lazy_path)?;
        loaded_entries.add(loaded.len() as u64);
        std::hint::black_box(loaded.len());
    }
    drop(load_timer);
    let _ = std::fs::remove_dir_all(&scratch);
    let micro = micro_metrics.snapshot();

    // Scenario 5: refinement from a coarse axis, private in-memory cache.
    let refine_metrics = Metrics::enabled_with_tracer(tracer);
    let refine_grid = GridRecipe::reference(false, config.refine_rates).build();
    let engine = RefinementEngine::new(
        GridExecutor::parallel(0).with_metrics(&refine_metrics),
        RefineConfig::default().with_max_rounds(config.max_rounds),
    );
    let outcome = engine.refine(&refine_grid, None)?;
    let refine_snapshot = refine_metrics.snapshot();

    // Scenario 6: cold two-shard process fan-out of the grid scenario's
    // grid (same shape, so merge bytes are comparable across runs).
    let shard_metrics = Metrics::enabled_with_tracer(tracer);
    let mut shard_cache = ResultCache::new();
    shard_cache.set_metrics(&shard_metrics);
    let opts = ShardOptions::new(config.program.clone(), config.shards)
        .with_metrics(&shard_metrics)
        .with_trace(tracer.is_enabled());
    let run = explore_sharded(
        &GridRecipe::reference(false, config.grid_rates),
        &mut shard_cache,
        &opts,
    )?;
    if !run.is_complete() {
        return Err(BenchError::Shard(ShardError::Workers(run.failures)));
    }
    let worker_traces: Vec<TraceSnapshot> =
        run.workers.iter().filter_map(|w| w.trace.clone()).collect();
    let shard_snapshot = shard_metrics.snapshot();

    let report = BenchReport {
        config: config.clone(),
        threads: GridExecutor::parallel(0).threads(),
        grid_unique_cells,
        cold,
        warm,
        eval_latency_p50_seconds: eval_latency.map_or(0.0, |h| h.p50_seconds()),
        eval_latency_p99_seconds: eval_latency.map_or(0.0, |h| h.p99_seconds()),
        assemble_seconds: cold_snapshot.span_seconds("grid.assemble").unwrap_or(0.0),
        key_resolutions_per_sec: micro
            .rate_per_second("bench.key_resolutions", "bench.key_resolve")
            .unwrap_or(0.0),
        lazy_warm_cells_per_sec: lazy_snapshot
            .rate_per_second("bench.lazy_warm_probes", "bench.lazy_warm")
            .unwrap_or(0.0),
        lazy_records_decoded,
        cache_entries: cache.len(),
        load_entries_per_sec: micro
            .rate_per_second("bench.load_entries", "bench.cache_load")
            .unwrap_or(0.0),
        refine_rounds: outcome.report.rounds.len(),
        refine_knees: outcome.report.knees.len(),
        refine_seconds: refine_snapshot.span_seconds("refine.round").unwrap_or(0.0),
        shard_merge_bytes: shard_snapshot.counter("shard.merge_bytes").unwrap_or(0),
        shard_merge_seconds: shard_snapshot.span_seconds("shard.merge").unwrap_or(0.0),
    };
    Ok((report, worker_traces))
}

/// Writes `report` to `path` as `BENCH_grid.json`.
///
/// # Errors
///
/// The underlying write error, for the caller to attribute to the path.
pub fn write_bench(report: &BenchReport, path: &std::path::Path) -> io::Result<()> {
    std::fs::write(path, report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_parses_with_expected_fields() {
        use memstream_grid::telemetry::json::{parse, Json};
        let report = BenchReport {
            config: BenchConfig::quick(PathBuf::from("/bin/true")),
            threads: 8,
            grid_unique_cells: 200,
            cold: GridBenchRow {
                seconds: 0.5,
                cells_per_sec: 400.0,
            },
            warm: GridBenchRow {
                seconds: 0.01,
                cells_per_sec: 20000.0,
            },
            eval_latency_p50_seconds: 0.0005,
            eval_latency_p99_seconds: 0.002,
            assemble_seconds: 0.003,
            key_resolutions_per_sec: 1e6,
            lazy_warm_cells_per_sec: 5e6,
            lazy_records_decoded: 0,
            cache_entries: 200,
            load_entries_per_sec: 1e6,
            refine_rounds: 3,
            refine_knees: 6,
            refine_seconds: 0.2,
            shard_merge_bytes: 12345,
            shard_merge_seconds: 0.001,
        };
        let doc = parse(&report.to_json()).expect("bench JSON parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(8));
        assert_eq!(
            doc.get("profile").and_then(Json::as_str),
            Some(BENCH_PROFILE)
        );
        assert_eq!(
            doc.get("grid")
                .and_then(|g| g.get("unique_cells"))
                .and_then(Json::as_u64),
            Some(200)
        );
        let p99 = doc
            .get("grid")
            .and_then(|g| g.get("eval_latency_p99_seconds"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((p99 - 0.002).abs() < 1e-12);
        let load = doc
            .get("cache")
            .and_then(|c| c.get("load_entries_per_sec"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((load - 1e6).abs() < 1e-3);
        assert_eq!(
            doc.get("cache")
                .and_then(|c| c.get("lazy_records_decoded"))
                .and_then(Json::as_u64),
            Some(0)
        );
        let assemble = doc
            .get("grid")
            .and_then(|g| g.get("assemble_seconds"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((assemble - 0.003).abs() < 1e-12);
        let kpr = doc
            .get("refine")
            .and_then(|r| r.get("knees_per_round"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((kpr - 2.0).abs() < 1e-12);
        let mbps = doc
            .get("shard")
            .and_then(|s| s.get("merge_mb_per_sec"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((mbps - 12.345).abs() < 1e-9);
    }

    #[test]
    fn rates_survive_degenerate_denominators() {
        let report = BenchReport {
            config: BenchConfig::standard(PathBuf::from("/bin/true")),
            threads: 0,
            grid_unique_cells: 0,
            cold: GridBenchRow {
                seconds: 0.0,
                cells_per_sec: 0.0,
            },
            warm: GridBenchRow {
                seconds: 0.0,
                cells_per_sec: 0.0,
            },
            eval_latency_p50_seconds: 0.0,
            eval_latency_p99_seconds: 0.0,
            assemble_seconds: 0.0,
            key_resolutions_per_sec: 0.0,
            lazy_warm_cells_per_sec: 0.0,
            lazy_records_decoded: 0,
            cache_entries: 0,
            load_entries_per_sec: 0.0,
            refine_rounds: 0,
            refine_knees: 0,
            refine_seconds: 0.0,
            shard_merge_bytes: 0,
            shard_merge_seconds: 0.0,
        };
        assert!(report.knees_per_round().is_finite());
        assert!(report.merge_mb_per_sec().is_finite());
        assert!(memstream_grid::telemetry::json::parse(&report.to_json()).is_ok());
    }
}
