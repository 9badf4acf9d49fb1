//! Traced per-layer driver of the repo benchmark.
//!
//! Replays one benchmark workload through the crates' public functions —
//! the calls `harness grid` and `harness refine` make — and records a span
//! around every call into a layer, next to the counters, spans and
//! histograms the program already keeps in its `Metrics` registry. The
//! spans are kept in memory and written out as JSON when the run ends; the
//! rendered stdout goes to a file, so the caller can check it byte for byte
//! against the harness.
//!
//! ```text
//! perfbench-driver --workload sweep|cache-rerun|refine-sharded --rates N
//!     --harness PATH --cache PATH --seconds S --stdout PATH --out PATH
//! ```
//!
//! The workload is repeated until `--seconds` have passed (at least once).
//! `--harness` is the release harness binary, spawned as the shard worker;
//! `--cache` is the scratch cache file of `cache-rerun`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use memstream_grid::telemetry::Snapshot;
use memstream_grid::{
    report, CacheFormat, FrontierBuilder, GridExecutor, GridResults, KeyInterner, Metrics,
    ResultCache, ScenarioGrid,
};
use memstream_refine::{RefineConfig, RefinementEngine, RoundExploration, RoundExplorer};
use memstream_shard::{GridRecipe, ShardError, ShardOptions, ShardedRoundExplorer};
use memstream_units::BitRate;

/// `--threads` of the two grid workloads.
const GRID_THREADS: usize = 2;
/// `--shards` of the refine workload.
const SHARDS: usize = 2;
/// Upper bound on iterations, whatever `--seconds` allows.
const MAX_ITERATIONS: usize = 200;

fn fail(message: &str) -> ! {
    eprintln!("perfbench-driver: {message}");
    std::process::exit(1);
}

/// One span: a call the driver timed (with its interval, in seconds since
/// the iteration started) or a total read off the program's own spans.
struct Node {
    name: &'static str,
    parent: Option<usize>,
    seconds: f64,
    interval: Option<(f64, f64)>,
}

/// The in-memory span recorder of one iteration.
struct Spans {
    epoch: Instant,
    nodes: RefCell<Vec<Node>>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            nodes: RefCell::new(Vec::new()),
        }
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            name,
            parent,
            seconds: 0.0,
            interval: Some((start, start)),
        });
        nodes.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.epoch.elapsed().as_secs_f64();
        let node = &mut self.nodes.borrow_mut()[id];
        let (start, _) = node.interval.expect("only timed spans are closed");
        node.interval = Some((start, end));
        node.seconds = end - start;
    }

    fn time<T>(&self, name: &'static str, parent: Option<usize>, call: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let value = call();
        self.close(id);
        value
    }

    /// A child whose duration the program measured itself (a span total
    /// or the difference of two snapshots' totals).
    fn total(&self, name: &'static str, parent: usize, seconds: f64) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            name,
            parent: Some(parent),
            seconds,
            interval: None,
        });
        nodes.len() - 1
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, node) in self.nodes.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = node
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"seconds\":{}",
                node.name,
                num(node.seconds)
            );
            if let Some((start, end)) = node.interval {
                let _ = write!(out, ",\"start\":{},\"end\":{}", num(start), num(end));
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The per-iteration scalar values, by per-layer metric name.
type Values = BTreeMap<&'static str, f64>;

fn span_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.span_seconds(name).unwrap_or(0.0) - before.span_seconds(name).unwrap_or(0.0)
}

/// Hangs the program's own `grid.eval`/`grid.assemble` time (between two
/// snapshots) under a timed or derived `exec.explore` node.
fn explore_children(spans: &Spans, explore: usize, before: &Snapshot, after: &Snapshot) {
    spans.total("exec.eval", explore, span_delta(before, after, "grid.eval"));
    spans.total(
        "store.assemble",
        explore,
        span_delta(before, after, "grid.assemble"),
    );
}

fn counter(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

/// Counters and histograms of the grid layers, read off one registry.
fn grid_values(snapshot: &Snapshot, values: &mut Values) {
    values.insert(
        "exec.cells_evaluated",
        counter(snapshot, "grid.cells_evaluated"),
    );
    if let Some(latency) = snapshot.histogram("grid.series_eval") {
        values.insert("exec.series_eval_p50_s", latency.p50_seconds());
        values.insert("exec.series_eval_max_s", latency.max_seconds());
    }
    values.insert(
        "store.frontier_inserts",
        counter(snapshot, "frontier.inserts"),
    );
    values.insert(
        "store.frontier_evictions",
        counter(snapshot, "frontier.evictions"),
    );
    let (hits, misses) = (
        counter(snapshot, "cache.hits"),
        counter(snapshot, "cache.misses"),
    );
    values.insert("cache.hits", hits);
    values.insert("cache.misses", misses);
    if hits + misses > 0.0 {
        values.insert("cache.hit_ratio", hits / (hits + misses));
    }
    values.insert(
        "cache.records_decoded",
        counter(snapshot, "cache.records_decoded"),
    );
    if let Some(lookup) = snapshot.histogram("cache.lookup") {
        values.insert("cache.lookup_p50_s", lookup.p50_seconds());
        values.insert("cache.lookup_p99_s", lookup.p99_seconds());
    }
}

/// Measurements on the finished results that the workload itself does
/// not make: resolving every unique cell's key string, and replaying the
/// outcomes in job order into a fresh frontier builder, which must
/// reproduce the program's frontier exactly.
fn measure_results(results: &GridResults, spans: &Spans, values: &mut Values) {
    let (keys, key_bytes) = spans.time("key.intern", None, || {
        let interner = KeyInterner::new(results.grid());
        let mut buf = String::new();
        let (mut keys, mut bytes) = (0usize, 0usize);
        for (cell, _) in results.store().jobs() {
            interner.resolve_into(interner.key(cell), &mut buf);
            keys += 1;
            bytes += buf.len();
        }
        (keys, bytes)
    });
    values.insert("key.bytes_per_key", key_bytes as f64 / keys.max(1) as f64);

    let replayed = spans.time("store.frontier_replay", None, || {
        let mut builder = FrontierBuilder::new();
        for (job, (_, outcome)) in results.store().jobs().enumerate() {
            builder.insert_outcome(job, outcome);
        }
        builder.finish()
    });
    let job_cells: Vec<_> = results.store().jobs().map(|(cell, _)| *cell).collect();
    let frontier = results.pareto_frontier();
    let same = replayed.len() == frontier.len()
        && replayed
            .iter()
            .zip(frontier)
            .all(|(&(job, objectives), point)| {
                job_cells[job] == point.cell && objectives == point.objectives()
            });
    if !same {
        fail("frontier replayed in job order differs from the program's frontier");
    }
    values.insert("store.frontier_size", frontier.len() as f64);
}

/// `harness grid --rates R --threads 2`.
fn sweep(rates: usize, spans: &Spans, values: &mut Values) -> String {
    let metrics = Metrics::enabled();
    let spec = ScenarioGrid::paper_baseline(rates);
    let executor = GridExecutor::parallel(GRID_THREADS).with_metrics(&metrics);
    let run = spans.open("workload", None);
    let explore = spans.open("exec.explore", Some(run));
    let results = executor
        .explore(&spec)
        .unwrap_or_else(|e| fail(&format!("grid error: {e}")));
    spans.close(explore);
    let stdout = spans.time("report.render", Some(run), || {
        report::grid_stdout(&results, false)
    });
    spans.close(run);
    let snapshot = metrics.snapshot();
    explore_children(spans, explore, &Snapshot::default(), &snapshot);
    grid_values(&snapshot, values);
    measure_results(&results, spans, values);
    stdout
}

fn load(path: &Path) -> ResultCache {
    ResultCache::load_lazy(path).unwrap_or_else(|e| fail(&format!("cache load error: {e}")))
}

fn save(cache: &ResultCache, path: &Path) {
    cache
        .save_as(path, CacheFormat::default())
        .unwrap_or_else(|e| fail(&format!("cache save error: {e}")));
}

/// `harness grid --rates R --threads 2 --cache F`, twice: a fill from an
/// empty `F` (the end-to-end run's untimed set-up), then the warm re-run.
fn cache_rerun(rates: usize, path: &Path, spans: &Spans, values: &mut Values) -> String {
    let spec = ScenarioGrid::paper_baseline(rates);
    let _ = std::fs::remove_file(path);

    // The fill reports into a registry of its own, as the harness's does.
    let fill_metrics = Metrics::enabled();
    let mut cache = load(path);
    cache.set_metrics(&fill_metrics);
    let filled = GridExecutor::parallel(GRID_THREADS)
        .with_metrics(&fill_metrics)
        .explore_cached(&spec, &mut cache)
        .unwrap_or_else(|e| fail(&format!("grid error: {e}")));
    spans.time("fill.save", None, || save(&cache, path));
    drop(cache);

    let metrics = Metrics::enabled();
    let run = spans.open("workload", None);
    let mut cache = spans.time("cache.load", Some(run), || load(path));
    cache.set_metrics(&metrics);
    let executor = GridExecutor::parallel(GRID_THREADS).with_metrics(&metrics);
    let explore = spans.open("exec.explore", Some(run));
    let results = executor
        .explore_cached(&spec, &mut cache)
        .unwrap_or_else(|e| fail(&format!("grid error: {e}")));
    spans.close(explore);
    spans.time("cache.save", Some(run), || save(&cache, path));
    let stdout = spans.time("report.render", Some(run), || {
        report::grid_stdout(&results, false)
    });
    spans.close(run);

    if report::grid_stdout(&filled, false) != stdout {
        fail("the fill and the warm re-run render different stdout");
    }
    let snapshot = metrics.snapshot();
    explore_children(spans, explore, &Snapshot::default(), &snapshot);
    grid_values(&snapshot, values);
    let file_bytes = std::fs::metadata(path)
        .unwrap_or_else(|e| fail(&format!("cache file: {e}")))
        .len() as f64;
    values.insert("cache.file_bytes", file_bytes);
    values.insert(
        "cache.bytes_per_cell",
        file_bytes / cache.len().max(1) as f64,
    );
    measure_results(&results, spans, values);
    stdout
}

/// A round explorer timing each round of the sharded explorer it wraps,
/// with the program's shard and grid span totals of that round as its
/// children.
struct TimedRounds<'a> {
    inner: ShardedRoundExplorer,
    metrics: Metrics,
    spans: &'a Spans,
    parent: usize,
}

impl RoundExplorer for TimedRounds<'_> {
    type Error = ShardError;

    fn explore_round(
        &mut self,
        grid: &ScenarioGrid,
        appended: &[BitRate],
        cache: &mut ResultCache,
    ) -> Result<RoundExploration, ShardError> {
        let before = self.metrics.snapshot();
        let round = self.spans.open("shard.round", Some(self.parent));
        let exploration = self.inner.explore_round(grid, appended, cache);
        self.spans.close(round);
        let after = self.metrics.snapshot();
        for name in ["shard.spawn", "shard.wait", "shard.merge"] {
            self.spans
                .total(name, round, span_delta(&before, &after, name));
        }
        let explore = self.spans.total(
            "exec.explore",
            round,
            span_delta(&before, &after, "grid.explore"),
        );
        explore_children(self.spans, explore, &before, &after);
        exploration
    }
}

/// `harness refine --rates R --shards 2`, with `harness` as the worker.
fn refine_sharded(rates: usize, harness: &Path, spans: &Spans, values: &mut Values) -> String {
    let metrics = Metrics::enabled();
    let spec = ScenarioGrid::paper_baseline(rates);
    let executor = GridExecutor::parallel(0).with_metrics(&metrics);
    let engine = RefinementEngine::new(
        executor.clone(),
        RefineConfig::default()
            .with_width_bound(0.01)
            .with_max_rounds(12),
    );
    let opts = ShardOptions::new(harness.to_path_buf(), SHARDS).with_metrics(&metrics);
    let run = spans.open("workload", None);
    let total = spans.open("refine.total", Some(run));
    let mut explorer = TimedRounds {
        inner: ShardedRoundExplorer::new(GridRecipe::reference(false, rates), opts, executor),
        metrics: metrics.clone(),
        spans,
        parent: total,
    };
    let outcome = engine
        .refine_with(&spec, None, &mut explorer)
        .unwrap_or_else(|e| fail(&format!("refine error: {e}")));
    spans.close(total);
    let stdout = spans.time("report.render", Some(run), || {
        memstream_refine::report::refine_stdout(&outcome)
    });
    spans.close(run);
    if explorer.inner.rounds().iter().any(|r| r.scratch.is_some()) {
        fail("a shard fan-out was incomplete and kept its scratch directory");
    }

    let snapshot = metrics.snapshot();
    grid_values(&snapshot, values);
    values.insert("refine.rounds", outcome.report.rounds.len() as f64);
    values.insert("refine.knees", outcome.report.knees.len() as f64);
    values.insert(
        "refine.rates_appended",
        counter(&snapshot, "refine.rates_appended"),
    );
    // These counters already carry their per-layer metric names.
    for name in [
        "shard.merge_bytes",
        "shard.workers_spawned",
        "shard.leases_issued",
        "shard.leases_reclaimed",
    ] {
        values.insert(name, counter(&snapshot, name));
    }
    if let Some(wall) = snapshot.histogram("shard.worker_wall") {
        values.insert("shard.worker_wall_p50_s", wall.p50_seconds());
    }
    measure_results(&outcome.results, spans, values);
    stdout
}

struct Args {
    workload: String,
    rates: usize,
    harness: PathBuf,
    cache: PathBuf,
    seconds: f64,
    stdout: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| {
        flags
            .remove(flag)
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    };
    let args = Args {
        workload: take("--workload"),
        rates: take("--rates")
            .parse()
            .unwrap_or_else(|e| fail(&format!("bad --rates: {e}"))),
        harness: take("--harness").into(),
        cache: take("--cache").into(),
        seconds: take("--seconds")
            .parse()
            .unwrap_or_else(|e| fail(&format!("bad --seconds: {e}"))),
        stdout: take("--stdout").into(),
        out: take("--out").into(),
    };
    if let Some(flag) = flags.keys().next() {
        fail(&format!("unknown flag {flag}"));
    }
    args
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let mut iterations = Vec::new();
    let mut reference: Option<String> = None;
    while iterations.len() < MAX_ITERATIONS
        && (iterations.is_empty() || started.elapsed().as_secs_f64() < args.seconds)
    {
        let spans = Spans::new();
        let mut values = Values::new();
        let stdout = match args.workload.as_str() {
            "sweep" => sweep(args.rates, &spans, &mut values),
            "cache-rerun" => cache_rerun(args.rates, &args.cache, &spans, &mut values),
            "refine-sharded" => refine_sharded(args.rates, &args.harness, &spans, &mut values),
            other => fail(&format!("unknown workload {other}")),
        };
        values.insert("report.stdout_bytes", stdout.len() as f64);
        match &reference {
            Some(first) if *first != stdout => fail("iterations rendered different stdout"),
            Some(_) => {}
            None => reference = Some(stdout),
        }
        let mut entry = format!("{{\"spans\":{},\"values\":{{", spans.to_json());
        for (i, (name, value)) in values.iter().enumerate() {
            if i > 0 {
                entry.push(',');
            }
            let _ = write!(entry, "\"{name}\":{}", num(*value));
        }
        entry.push_str("}}");
        iterations.push(entry);
    }
    let _ = std::fs::remove_file(&args.cache);
    let stdout = reference.expect("at least one iteration ran");
    if let Err(e) = std::fs::write(&args.stdout, stdout) {
        fail(&format!("{}: {e}", args.stdout.display()));
    }
    let document = format!("{{\"iterations\":[{}]}}\n", iterations.join(","));
    if let Err(e) = std::fs::write(&args.out, document) {
        fail(&format!("{}: {e}", args.out.display()));
    }
}
