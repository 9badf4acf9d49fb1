//! Cross-run result caching: persist evaluated cell outcomes keyed by
//! series and rate so repeated explorations (CI re-runs, interactive
//! sweeps) skip already-evaluated cells across process boundaries.
//!
//! A cache key is a pair: the **series token** — the cell's
//! [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key) without
//! its rate fragment, i.e. device, workload, goal and the grid-wide
//! `dram`/`pol` suffix — and the rate's `f64` bits
//! ([`KeyInterner::series_token`](crate::KeyInterner::series_token),
//! [`KeyInterner::rate_bits`](crate::KeyInterner::rate_bits)).
//!
//! There is one on-disk encoding, specified in `docs/CACHE_FORMAT.md` at
//! the repository root: `memstream-grid-cache v3 k2`, one column-wise
//! block per series (the series token once, a sorted rate column, a
//! fixed-width outcome column and a de-duplicated detail table) behind a
//! block index. Floats are raw IEEE-754 bits, strings raw UTF-8; reading
//! needs no float parsing or unescaping. A warm-cache exploration
//! reproduces the cold run's reports **byte-identically** — the property
//! the CI determinism smoke asserts.
//!
//! Two readers:
//!
//! * [`ResultCache::load_lazy`], the lenient warm-start reader, holds a
//!   valid file as a [`CacheView`]: a lookup resolves its series' block
//!   once, binary-searches the rate column, and a hit decodes only that
//!   row, in place. A file whose index is missing or damaged (a shard
//!   flush stream, a torn write) keeps the blocks before the first
//!   damage — their cells simply become cache misses — so damage never
//!   poisons a run.
//! * [`ResultCache::load_strict`], the validating interchange reader:
//!   a file that is not intact is an attributed error, never a smaller
//!   cache. Tests use it as the reference decode.
//!
//! The `k2` in the header is the key generation: the canonical field
//! encodings of the dedup key (no Rust field or type names). A file with
//! any other header — the first generation's bare `v1`/`v2` headers, the
//! retired `v1 k2` text and `v2 k2` record encodings, another program's
//! file — is refused whole: [`ResultCache::load_strict`] returns
//! [`CacheFileError::VersionMismatch`], and [`ResultCache::load_lazy`]
//! starts empty and reports the header it found through
//! [`ResultCache::stale_header`].
//!
//! A warm run that changed nothing need not rewrite its file:
//! [`ResultCache::needs_save`] is false when nothing was inserted or
//! merged in and the loader read the file back intact.
//!
//! The shard coordinator reassembles a sharded run by
//! [`ResultCache::merge`]-union of the blocks it tails from the workers'
//! flush streams ([`FlushReader`]); the union's conflict rule is
//! byte-equality of the outcome encoding (see `docs/CACHE_FORMAT.md`
//! § "Union/merge semantics").

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle};

use crate::block::{encode_block, entry_bytes, frame_at, outcome_bytes, Block, Frame};
use crate::eval::CellOutcome;
use crate::key::render_cache_key;
use crate::view::{header_line, validate_v3, CacheView, ViewBlock};

/// The header line every cache file starts with. The `k2` suffix names
/// the key generation: the canonical field encoding of
/// `docs/CACHE_FORMAT.md` § "Keys". Files with any other header are
/// refused.
pub const CACHE_HEADER: &str = "memstream-grid-cache v3 k2";
/// The sniffable magic: the header line including its terminator.
pub(crate) const V3_MAGIC: &[u8] = b"memstream-grid-cache v3 k2\n";

/// The `cache.lookup` histogram times one lookup in this many: two
/// clock reads cost more than a warm hit itself (`docs/OBSERVABILITY.md`).
const LOOKUP_SAMPLE_EVERY: usize = 64;

/// The encoding [`ResultCache::save_as`] writes. There is only one, v3,
/// and [`ResultCache::save`] writes it.
///
/// This type and `save_as` stay only because the benchmark's replay
/// program (`perfbench/driver`) calls `CacheFormat::default()` and
/// `save_as`, and that program changes only together with the
/// benchmark. The next benchmark change drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheFormat {
    /// The series-columnar block format (`memstream-grid-cache v3 k2`).
    #[default]
    V3,
}

/// Why a strict cache read ([`ResultCache::load_strict`]) rejected a file.
///
/// The lenient reader ([`ResultCache::load_lazy`]) maps every non-I/O
/// failure below to "empty cache" or "blocks after the damage are
/// dropped"; the strict reader exists for interchange, where silently
/// dropping entries would shrink a result instead of merely slowing a
/// warm start.
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The first line is not the supported header.
    VersionMismatch {
        /// The header line actually found (empty for an empty file).
        found: String,
    },
    /// A block's structure is broken, its series token is out of order,
    /// or one of its rows fails to decode.
    Malformed {
        /// 0-based ordinal of the offending block in file order.
        block: usize,
    },
    /// The structure around the blocks — the count field, the trailing
    /// block index, or the trailer — is damaged: truncated, pointing
    /// outside the file, or disagreeing with the block framing.
    /// Attributed by byte offset because this damage has no meaningful
    /// block ordinal.
    MalformedIndex {
        /// Byte offset of the damaged structure: the count field, the
        /// offending index entry, or the trailer.
        offset: u64,
    },
}

impl fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheFileError::Io(e) => write!(f, "cache file unreadable: {e}"),
            CacheFileError::VersionMismatch { found } => write!(
                f,
                "cache version mismatch: expected `{CACHE_HEADER}`, found `{found}`"
            ),
            CacheFileError::Malformed { block } => {
                write!(f, "cache file block {block} is not a valid series block")
            }
            CacheFileError::MalformedIndex { offset } => {
                write!(
                    f,
                    "cache file block index is damaged at byte offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for CacheFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CacheFileError {
    fn from(e: io::Error) -> Self {
        CacheFileError::Io(e)
    }
}

/// A union conflict: two caches carry the same key (series token and
/// rate bits) with outcomes whose encodings are **not byte-equal**.
///
/// Because evaluation is pure and floats round-trip exactly, two honest
/// explorations of the same scenario can never disagree — a conflict
/// means the caches came from different grids, code versions or corrupted
/// files, and the merge must fail rather than pick a side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConflict {
    /// The series token both caches claim.
    pub series: String,
    /// The rate bits both caches claim.
    pub rate_bits: u64,
    /// The outcome already held by the merge target, rendered with `{:?}`.
    pub ours: String,
    /// The outcome the merged-in cache carries, rendered with `{:?}`.
    pub theirs: String,
}

impl fmt::Display for CacheConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache union conflict on key `{}`: `{}` != `{}`",
            render_cache_key(&self.series, self.rate_bits),
            self.ours,
            self.theirs
        )
    }
}

impl std::error::Error for CacheConflict {}

/// What a successful [`ResultCache::merge`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Entries newly added to the target.
    pub added: usize,
    /// Entries present in both caches (byte-equal, so harmless).
    pub duplicates: usize,
}

/// The entries of one series, as a flush stream carries them: the unit a
/// [`CacheAppender`] writes and a [`FlushReader`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesBlock {
    /// The series token.
    pub series: String,
    /// `(rate bits, outcome)` pairs, distinct rates.
    pub entries: Vec<(u64, CellOutcome)>,
}

/// A persistent map from (series token, rate bits) to evaluated outcomes.
///
/// ```
/// use memstream_grid::{GridExecutor, ResultCache, ScenarioGrid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Process-unique path: concurrent doc-test runs must not collide.
/// let dir = std::env::temp_dir().join(format!("memstream-cache-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("grid.cache");
/// # let _ = std::fs::remove_file(&path);
/// let grid = ScenarioGrid::paper_baseline(3);
///
/// let mut cache = ResultCache::load_lazy(&path)?; // empty on first run
/// let cold = GridExecutor::serial().explore_cached(&grid, &mut cache)?;
/// cache.save(&path)?;
///
/// let mut warm = ResultCache::load_lazy(&path)?; // every cell hits
/// let rerun = GridExecutor::serial().explore_cached(&grid, &mut warm)?;
/// assert_eq!(warm.hits(), rerun.unique_evaluations());
/// assert_eq!(
///     memstream_grid::report::cells_csv(&cold),
///     memstream_grid::report::cells_csv(&rerun),
/// );
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    /// The overlay: inserted and merged-in entries only, by series token
    /// then rate bits. Without a view this is simply *the* map.
    entries: BTreeMap<String, BTreeMap<u64, CellOutcome>>,
    /// The lazy backing file ([`ResultCache::load_lazy`]): lookups find
    /// their block and row through its index, and each hit decodes its
    /// row in place.
    view: Option<Arc<CacheView>>,
    /// View outcomes by file-wide row ordinal, kept after their first
    /// decode once [`ResultCache::keep_decoded`] asked for it; empty
    /// otherwise.
    decoded: Vec<Option<CellOutcome>>,
    /// Overlay keys the view does not hold, so `len()` is
    /// `view.len() + overlay_new` without iterating either side.
    overlay_new: usize,
    /// Whether a public insert replaced a view-held key: disables the
    /// verbatim re-save fast path (the file bytes are no longer the
    /// truth).
    shadowed: bool,
    /// Whether this cache was loaded from a file read back intact;
    /// false for a new cache, a missing file, an unknown header or a
    /// load that dropped damage.
    loaded: bool,
    /// Whether an insert or a merge added to the loaded entries.
    dirty: bool,
    /// The first line of a file [`ResultCache::load_lazy`] refused for
    /// its header (another key generation or encoding, another
    /// program's file).
    stale_header: Option<String>,
    hits: usize,
    misses: usize,
    telemetry: CacheTelemetry,
}

/// The cache's pre-resolved telemetry handles (see `docs/OBSERVABILITY.md`,
/// `cache.*`). Default handles are no-ops, so an unattached cache pays a
/// null-check per series and nothing more.
#[derive(Debug, Clone, Default)]
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    merges: Counter,
    merge_added: Counter,
    merge_duplicates: Counter,
    merge_bytes: Counter,
    merge_span: SpanHandle,
    save_bytes: Counter,
    save_span: SpanHandle,
    /// Rows decoded on demand from a lazy [`CacheView`] — the number a
    /// warm run must keep proportional to the work requested, not the
    /// cache size. Strict loads do not count here.
    records_decoded: Counter,
    /// Binary-search probes into a lazy view's rate columns.
    index_lookups: Counter,
    /// Sampled per-lookup latency distribution (`cache.lookup`); the
    /// clock is only read when the histogram is live.
    lookup_latency: Histogram,
}

impl CacheTelemetry {
    fn resolve(metrics: &Metrics) -> Self {
        CacheTelemetry {
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            inserts: metrics.counter("cache.inserts"),
            merges: metrics.counter("cache.merges"),
            merge_added: metrics.counter("cache.merge_added"),
            merge_duplicates: metrics.counter("cache.merge_duplicates"),
            merge_bytes: metrics.counter("cache.merge_bytes"),
            merge_span: metrics.span("cache.merge"),
            save_bytes: metrics.counter("cache.save_bytes"),
            save_span: metrics.span("cache.save"),
            records_decoded: metrics.counter("cache.records_decoded"),
            index_lookups: metrics.counter("cache.index_lookups"),
            lookup_latency: metrics.histogram("cache.lookup"),
        }
    }
}

/// Where a found entry lives.
#[derive(Debug, Clone, Copy)]
enum Slot<'a> {
    /// In the overlay map.
    Overlay(&'a CellOutcome),
    /// At `row` of the view block, file-wide row ordinal `global`.
    Row { row: usize, global: usize },
}

/// One series of a [`ResultCache`], resolved once: its overlay entries
/// and its view block. Every lookup — [`ResultCache::get`],
/// [`ResultCache::contains_key`], the executor's cell resolution, merges
/// and saves — goes through [`CachedSeries`]: the overlay first, then a
/// binary search over the block's rate column.
///
/// View probes and row decodes are tallied in the handle and reported
/// into `cache.index_lookups` / `cache.records_decoded` once, when it is
/// dropped.
#[derive(Debug)]
pub struct CachedSeries<'a> {
    overlay: Option<&'a BTreeMap<u64, CellOutcome>>,
    block: Option<ViewBlock<'a>>,
    telemetry: &'a CacheTelemetry,
    probes: Cell<u64>,
    decodes: Cell<u64>,
}

impl<'a> CachedSeries<'a> {
    fn new(
        entries: &'a BTreeMap<String, BTreeMap<u64, CellOutcome>>,
        view: Option<&'a CacheView>,
        telemetry: &'a CacheTelemetry,
        series: &str,
    ) -> Self {
        CachedSeries {
            overlay: entries.get(series),
            block: view.and_then(|view| view.block(series)),
            telemetry,
            probes: Cell::new(0),
            decodes: Cell::new(0),
        }
    }

    fn find(&self, rate_bits: u64) -> Option<Slot<'a>> {
        if let Some(outcome) = self.overlay.and_then(|map| map.get(&rate_bits)) {
            return Some(Slot::Overlay(outcome));
        }
        let block = self.block?;
        self.probes.set(self.probes.get() + 1);
        let row = block.block.find(rate_bits)?;
        Some(Slot::Row {
            row,
            global: block.first_row + row,
        })
    }

    /// The outcome in `slot`: a clone from the overlay, or the view row
    /// decoded in place (`None` if the row is malformed).
    fn decode(&self, slot: Slot<'_>) -> Option<CellOutcome> {
        match slot {
            Slot::Overlay(outcome) => Some(outcome.clone()),
            Slot::Row { row, .. } => {
                let outcome = self.block?.block.outcome(row)?;
                self.decodes.set(self.decodes.get() + 1);
                Some(outcome)
            }
        }
    }

    /// Whether the series holds `rate_bits` — no row is decoded.
    #[must_use]
    pub fn contains(&self, rate_bits: u64) -> bool {
        self.find(rate_bits).is_some()
    }

    /// The outcome stored at `rate_bits`; a view-held row is decoded in
    /// place.
    #[must_use]
    pub fn get(&self, rate_bits: u64) -> Option<CellOutcome> {
        self.decode(self.find(rate_bits)?)
    }

    /// Every entry of the series, sorted by rate bits; overlay entries
    /// shadow view rows at the same rate.
    fn slots(&self) -> Vec<(u64, Slot<'a>)> {
        let mut slots: Vec<(u64, Slot<'a>)> = self
            .overlay
            .into_iter()
            .flatten()
            .map(|(&rate, outcome)| (rate, Slot::Overlay(outcome)))
            .collect();
        if let Some(block) = self.block {
            for row in 0..block.block.len() {
                let rate = block.block.rate(row);
                if !self.overlay.is_some_and(|map| map.contains_key(&rate)) {
                    let global = block.first_row + row;
                    slots.push((rate, Slot::Row { row, global }));
                }
            }
            slots.sort_unstable_by_key(|&(rate, _)| rate);
        }
        slots
    }
}

impl Drop for CachedSeries<'_> {
    fn drop(&mut self) {
        self.telemetry.index_lookups.add(self.probes.get());
        self.telemetry.records_decoded.add(self.decodes.get());
    }
}

impl ResultCache {
    /// An empty in-memory cache.
    #[must_use]
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Attaches this cache to a metrics registry: subsequent lookups,
    /// inserts, merges and saves report into the `cache.*` catalogue.
    /// The existing hit/miss totals are unaffected (counters are deltas
    /// from the attach point).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.telemetry = CacheTelemetry::resolve(metrics);
    }

    /// Opens a cache file **lazily**, the lenient warm-start reader: a
    /// structurally valid file is held as a [`CacheView`] — only its
    /// block index and block structure are read — and each lookup hit
    /// decodes that one row in place (unless
    /// [`ResultCache::keep_decoded`], no memo: a cell looked up twice
    /// decodes twice). Probes ([`ResultCache::contains_key`], planning)
    /// never decode at all.
    ///
    /// Only an I/O error fails the load: a missing file is an empty
    /// cache; a file with another header starts empty and names that
    /// header in [`ResultCache::stale_header`]; a file the view cannot
    /// validate (a flush stream, which has no index, or structural
    /// damage) keeps every block before the first malformed one — the
    /// length-prefixed stream cannot be resynchronised past damage.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load_lazy(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ResultCache::new()),
            Err(e) => return Err(e),
        };
        let mut cache = ResultCache::new();
        if !bytes.starts_with(V3_MAGIC) {
            if !bytes.is_empty() {
                cache.stale_header = Some(header_line(&bytes));
            }
        } else if let Ok(blocks) = validate_v3(&bytes) {
            cache.view = Some(Arc::new(CacheView::from_validated(bytes, blocks)));
            cache.loaded = true;
        } else {
            for block in scan_blocks(&bytes) {
                cache.absorb(&block.series, block.entries);
            }
        }
        Ok(cache)
    }

    /// Loads a cache file as an **interchange file**: unlike
    /// [`ResultCache::load_lazy`], a missing file, another header, or
    /// any structural or row damage is an attributed error, and every
    /// row is decoded up front. A file that half-parses must never
    /// silently shrink a result; tests also use this reader as the
    /// reference decode the lazy view must agree with.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not found"),
    /// [`CacheFileError::VersionMismatch`] if the header line is not
    /// `memstream-grid-cache v3 k2`, [`CacheFileError::MalformedIndex`]
    /// (attributed by byte offset) if the count, block index or trailer
    /// disagrees with the blocks actually present, and
    /// [`CacheFileError::Malformed`] on the first block that is out of
    /// order or holds a row that fails to decode.
    pub fn load_strict(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let view = CacheView::open(path)?;
        let mut cache = ResultCache::new();
        for (ordinal, block) in view.blocks().enumerate() {
            let entries = block
                .block
                .decode_all()
                .ok_or(CacheFileError::Malformed { block: ordinal })?;
            cache.absorb(block.block.series(), entries);
        }
        cache.loaded = true;
        Ok(cache)
    }

    /// Inserts entries known to be new (absent from view and overlay)
    /// without touching the insert telemetry or the dirty flag: the
    /// loaders' and the merge's primitive.
    fn absorb(&mut self, series: &str, entries: impl IntoIterator<Item = (u64, CellOutcome)>) {
        let mut entries = entries.into_iter().peekable();
        if entries.peek().is_none() {
            return;
        }
        if !self.entries.contains_key(series) {
            self.entries.insert(series.to_owned(), BTreeMap::new());
        }
        let map = self.entries.get_mut(series).expect("just inserted");
        map.extend(entries);
    }

    /// The series tokens of every entry, ascending and distinct: the
    /// overlay's and the view's, merged.
    fn series_tokens(&self) -> Vec<&str> {
        let mut tokens: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        if let Some(view) = self.view.as_deref() {
            tokens.extend(view.blocks().map(|b| b.block.series()));
            tokens.sort_unstable();
            tokens.dedup();
        }
        tokens
    }

    /// Resolves `series` once for a run of probes: see [`CachedSeries`].
    #[must_use]
    pub fn series(&self, series: &str) -> CachedSeries<'_> {
        CachedSeries::new(&self.entries, self.view.as_deref(), &self.telemetry, series)
    }

    /// Unions `other` into `self`. Keys held by both caches must carry
    /// byte-identical outcome encodings; the union is therefore
    /// order-independent — merging shard caches in any order yields the
    /// same entry set, and [`ResultCache::save`] (which sorts by key) the
    /// same file bytes.
    ///
    /// Hit/miss counters of both caches are left untouched: a merge is
    /// bookkeeping, not a lookup.
    ///
    /// The merge is **atomic**: on a conflict, `self` is left completely
    /// untouched — a shard whose cache disagrees contributes *nothing*,
    /// it cannot half-poison the target before the conflict is noticed.
    ///
    /// # Errors
    ///
    /// [`CacheConflict`] on the lowest-key conflicting entry.
    pub fn merge(&mut self, other: &ResultCache) -> Result<MergeStats, CacheConflict> {
        let _merge_timer = self.telemetry.merge_span.start();
        let count_bytes = self.telemetry.merge_bytes.is_live();
        // Detect pass, read-only: it completes before any mutation, so a
        // conflict leaves `self` untouched. Series and rates are visited
        // in ascending order, so the first conflict is the lowest key.
        let mut additions: Vec<(&str, Vec<(u64, CellOutcome)>)> = Vec::new();
        let (mut duplicates, mut bytes) = (0usize, 0u64);
        let (mut ours_bytes, mut theirs_bytes) = (Vec::new(), Vec::new());
        for series in other.series_tokens() {
            let theirs = other.series(series);
            let ours = self.series(series);
            let mut added = Vec::new();
            for (rate, slot) in theirs.slots() {
                let Some(their_outcome) = theirs.decode(slot) else {
                    continue; // a malformed row is a miss in `other` too
                };
                match ours.find(rate).and_then(|slot| ours.decode(slot)) {
                    Some(our_outcome) => {
                        // The conflict rule is byte-equality of the
                        // encoded outcome, not structural equality: it is
                        // the file bytes two shards must agree on, and it
                        // treats equal NaN payloads as the duplicates
                        // they are.
                        outcome_bytes(&our_outcome, &mut ours_bytes);
                        outcome_bytes(&their_outcome, &mut theirs_bytes);
                        if ours_bytes != theirs_bytes {
                            return Err(CacheConflict {
                                series: series.to_owned(),
                                rate_bits: rate,
                                ours: format!("{our_outcome:?}"),
                                theirs: format!("{their_outcome:?}"),
                            });
                        }
                        duplicates += 1;
                    }
                    None => {
                        if count_bytes {
                            bytes += entry_bytes(&their_outcome);
                        }
                        added.push((rate, their_outcome));
                    }
                }
            }
            if !added.is_empty() {
                additions.push((series, added));
            }
        }
        let added: usize = additions.iter().map(|(_, entries)| entries.len()).sum();
        for (series, entries) in additions {
            self.absorb(series, entries);
        }
        // Every addition was absent from view *and* overlay (the detect
        // pass checked), so the length bookkeeping is a plain bump.
        if self.view.is_some() {
            self.overlay_new += added;
        }
        self.dirty |= added > 0;
        self.telemetry.merge_bytes.add(bytes);
        self.telemetry.merges.incr();
        self.telemetry.merge_added.add(added as u64);
        self.telemetry.merge_duplicates.add(duplicates as u64);
        Ok(MergeStats { added, duplicates })
    }

    /// Writes the cache to `path`: one block per series, sorted by series
    /// token and rate for reproducible bytes, then the block index.
    /// Blocks stream through a [`io::BufWriter`], each encoded into one
    /// reused buffer.
    ///
    /// A lazily loaded cache that was never extended or shadowed
    /// re-saves **verbatim**: the view's validation guarantees the file
    /// it was opened over is what a fresh save would describe, so the
    /// file is rewritten without decoding a single row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let _save_timer = self.telemetry.save_span.start();
        if self.overlay_new == 0 && !self.shadowed {
            if let Some(view) = self.view.as_deref() {
                fs::write(path, view.file_bytes())?;
                self.telemetry
                    .save_bytes
                    .add(view.file_bytes().len() as u64);
                return Ok(());
            }
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        let tokens = self.series_tokens();
        out.write_all(V3_MAGIC)?;
        out.write_all(&(tokens.len() as u64).to_le_bytes())?;
        let mut offset = V3_MAGIC.len() as u64 + 8;
        let mut index: Vec<u64> = Vec::with_capacity(tokens.len());
        let mut block = Vec::new();
        for series in tokens {
            let cached = self.series(series);
            // Overlay entries are borrowed; only view rows the overlay
            // does not shadow are decoded (a malformed row is dropped).
            let outcomes: Vec<(u64, Cow<'_, CellOutcome>)> = cached
                .slots()
                .into_iter()
                .filter_map(|(rate, slot)| match slot {
                    Slot::Overlay(outcome) => Some((rate, Cow::Borrowed(outcome))),
                    Slot::Row { .. } => Some((rate, Cow::Owned(cached.decode(slot)?))),
                })
                .collect();
            let entries: Vec<(u64, &CellOutcome)> = outcomes
                .iter()
                .map(|(rate, outcome)| (*rate, outcome.as_ref()))
                .collect();
            block.clear();
            encode_block(&mut block, series, &entries);
            index.push(offset);
            out.write_all(&block)?;
            offset += block.len() as u64;
        }
        let index_offset = offset;
        for block_offset in &index {
            out.write_all(&block_offset.to_le_bytes())?;
        }
        out.write_all(&index_offset.to_le_bytes())?;
        out.flush()?;
        self.telemetry
            .save_bytes
            .add(offset + 8 * (index.len() as u64 + 1));
        Ok(())
    }

    /// [`ResultCache::save`] under another name. Kept only for the
    /// benchmark's replay program (`perfbench/driver`), which calls it
    /// and changes only together with the benchmark; the next benchmark
    /// change drops it with [`CacheFormat`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_as(&self, path: impl AsRef<Path>, format: CacheFormat) -> io::Result<()> {
        match format {
            CacheFormat::V3 => self.save(path),
        }
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.view.as_deref() {
            Some(view) => view.len() + self.overlay_new,
            None => self.entries.values().map(BTreeMap::len).sum(),
        }
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`ResultCache::save`] would change the file this cache
    /// was loaded from. It would not when both hold: nothing was
    /// inserted or merged in, and the loader read the file back intact
    /// (no damaged block dropped). A new cache, or one over a missing
    /// or refused file, always needs its save.
    #[must_use]
    pub fn needs_save(&self) -> bool {
        self.dirty || !self.loaded
    }

    /// The header line of a file [`ResultCache::load_lazy`] refused
    /// (another key generation, another encoding, or not a cache file):
    /// the cache started empty instead. `None` when the file was read,
    /// missing or empty.
    #[must_use]
    pub fn stale_header(&self) -> Option<&str> {
        self.stale_header.as_deref()
    }

    /// Cache hits since construction/load.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses since construction/load.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Looks up `rates` (rate bits) of one series, pushing one answer per
    /// rate onto `found`, in order. The series is resolved once; the
    /// hit/miss, probe and decode counters are bumped once for the whole
    /// call, and one lookup in [`LOOKUP_SAMPLE_EVERY`] is timed into the
    /// `cache.lookup` histogram when it is live.
    ///
    /// On a lazy cache, a view hit decodes that one row in place and
    /// keeps nothing (unless [`ResultCache::keep_decoded`]): the grid
    /// looks each unique cell up once, so `cache.records_decoded` equals
    /// the view hits.
    pub(crate) fn lookup_series(
        &mut self,
        series: &str,
        rates: &[u64],
        found: &mut Vec<Option<CellOutcome>>,
    ) {
        let ResultCache {
            entries,
            view,
            decoded,
            telemetry,
            hits,
            misses,
            ..
        } = self;
        let timed = telemetry.lookup_latency.is_live();
        let cached = CachedSeries::new(entries, view.as_deref(), telemetry, series);
        let before = found.len();
        // Lookups before this call, so sampling spans calls evenly.
        let done = *hits + *misses;
        for (i, &rate) in rates.iter().enumerate() {
            let sampled = timed && (done + i) % LOOKUP_SAMPLE_EVERY == 0;
            let started = sampled.then(std::time::Instant::now);
            let outcome = cached.find(rate).and_then(|slot| match slot {
                Slot::Row { global, .. } => match decoded.get_mut(global) {
                    Some(Some(kept)) => Some(kept.clone()),
                    Some(memo @ None) => {
                        let outcome = cached.decode(slot)?;
                        *memo = Some(outcome.clone());
                        Some(outcome)
                    }
                    None => cached.decode(slot),
                },
                Slot::Overlay(_) => cached.decode(slot),
            });
            if let Some(started) = started {
                telemetry.lookup_latency.record(started.elapsed());
            }
            found.push(outcome);
        }
        drop(cached);
        let found_hits = found[before..].iter().filter(|o| o.is_some()).count();
        let found_misses = rates.len() - found_hits;
        *hits += found_hits;
        *misses += found_misses;
        telemetry.hits.add(found_hits as u64);
        telemetry.misses.add(found_misses as u64);
    }

    /// Peeks at an outcome without touching the hit/miss counters (the
    /// shard planner asks "is this cell already known?" without it being
    /// a lookup of record). On a lazy cache a view-held row is found by
    /// two binary searches (block, then rate) and decoded in place; both
    /// count (`cache.index_lookups`, `cache.records_decoded`).
    #[must_use]
    pub fn get(&self, series: &str, rate_bits: u64) -> Option<CellOutcome> {
        self.series(series).get(rate_bits)
    }

    /// Keeps each view row's outcome after its first decode, so a later
    /// lookup of the same cell clones it instead of decoding again. For
    /// callers that look cells up more than once: the refinement loop
    /// re-assembles every round over its grown grid. A grid run looks
    /// each cell up once and leaves this off. A no-op without a lazy
    /// view.
    pub fn keep_decoded(&mut self) {
        if let Some(view) = self.view.as_deref() {
            if self.decoded.is_empty() {
                self.decoded = vec![None; view.len()];
            }
        }
    }

    /// Whether (`series`, `rate_bits`) is cached, without counting a hit
    /// or miss. On a lazy cache this is an index probe — no row is
    /// decoded, which is what keeps fully-warm planning decode-free.
    #[must_use]
    pub fn contains_key(&self, series: &str, rate_bits: u64) -> bool {
        self.series(series).contains(rate_bits)
    }

    /// Every cached key — (series token, rate bits) — sorted by series,
    /// then rate.
    pub fn keys(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut keys = Vec::with_capacity(self.len());
        for series in self.series_tokens() {
            keys.extend(
                self.series(series)
                    .slots()
                    .into_iter()
                    .map(|(rate, _)| (series, rate)),
            );
        }
        keys.into_iter()
    }

    /// Inserts an outcome under (`series`, `rate_bits`), replacing any
    /// previous entry. See [`ResultCache::insert_series`].
    pub fn insert(&mut self, series: &str, rate_bits: u64, outcome: CellOutcome) {
        self.insert_series(series, [(rate_bits, outcome)]);
    }

    /// Inserts `(rate bits, outcome)` entries of one series, replacing
    /// any previous entries at the same rates; the series is resolved
    /// once.
    ///
    /// The executor records each series' fresh evaluations with this; for
    /// unioning whole caches prefer [`ResultCache::merge`], which refuses
    /// conflicting entries instead of overwriting.
    pub fn insert_series(
        &mut self,
        series: &str,
        entries: impl IntoIterator<Item = (u64, CellOutcome)>,
    ) {
        let mut entries = entries.into_iter().peekable();
        if entries.peek().is_none() {
            return;
        }
        if !self.entries.contains_key(series) {
            self.entries.insert(series.to_owned(), BTreeMap::new());
        }
        let map = self.entries.get_mut(series).expect("just inserted");
        let block = self.view.as_deref().and_then(|view| view.block(series));
        let (mut inserted, mut probes) = (0u64, 0u64);
        for (rate, outcome) in entries {
            inserted += 1;
            let in_view = block.is_some_and(|b| {
                probes += 1;
                b.block.find(rate).is_some()
            });
            let replaced = map.insert(rate, outcome).is_some();
            if in_view {
                // Overwriting a view-held key: the file bytes are no
                // longer the truth, so the verbatim re-save fast path
                // must not run.
                self.shadowed = true;
            } else if self.view.is_some() && !replaced {
                self.overlay_new += 1;
            }
        }
        self.dirty = true;
        self.telemetry.inserts.add(inserted);
        self.telemetry.index_lookups.add(probes);
    }
}

/// Leniently scans the blocks of a v3 stream (`bytes` starts with
/// [`V3_MAGIC`]): every block decoded before the first damage — a torn
/// frame, a structurally invalid block or an undecodable row — is kept;
/// the damage and everything after it is dropped. Reads at most the
/// header's count of blocks and never consults the index, which lets it
/// double as the flush-stream loader (flush streams have no index).
fn scan_blocks(bytes: &[u8]) -> Vec<SeriesBlock> {
    let Some(count) = bytes
        .get(V3_MAGIC.len()..V3_MAGIC.len() + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    else {
        return Vec::new();
    };
    let mut pos = V3_MAGIC.len() + 8;
    let mut blocks = Vec::new();
    while (blocks.len() as u64) < count {
        let Frame::Block(meta, body) = frame_at(bytes, pos) else {
            break;
        };
        let block = Block::new(&bytes[body.clone()], meta);
        let Some(entries) = block.decode_all() else {
            break;
        };
        blocks.push(SeriesBlock {
            series: block.series().to_owned(),
            entries,
        });
        pos = body.end;
    }
    blocks
}

/// Encodes `block` framed (entries sorted by rate; a repeated rate
/// keeps its first entry).
fn push_series_block(out: &mut Vec<u8>, block: &SeriesBlock) {
    let mut entries: Vec<(u64, &CellOutcome)> = block
        .entries
        .iter()
        .map(|(rate, outcome)| (*rate, outcome))
        .collect();
    entries.sort_by_key(|&(rate, _)| rate);
    entries.dedup_by_key(|&mut (rate, _)| rate);
    encode_block(out, &block.series, &entries);
}

// ---------------------------------------------------------------------
// Incremental flush streams (docs/SHARD_PROTOCOL.md § "The flush
// stream"): an append-only v3 block stream shard workers write once per
// lease and the coordinator tails while the worker is still running.
// ---------------------------------------------------------------------

/// An append-only incremental writer of v3 blocks — the shard workers'
/// **flush stream**.
///
/// The file layout is a v3 file without the trailing block index:
/// magic, `u64` block count, then framed blocks. Each
/// [`CacheAppender::append`] writes the new blocks at the end of the
/// file *first* and only then rewrites the count field, so a writer
/// dying mid-append leaves the count pointing at the last fully-flushed
/// batch: the lenient [`ResultCache::load_lazy`] reads exactly the valid
/// prefix, and a [`FlushReader`] tailing the stream drops the torn
/// bytes. The strict [`ResultCache::load_strict`] rejects flush streams
/// (no index) — deliberately, they are scratch, not interchange.
#[derive(Debug)]
pub struct CacheAppender {
    file: fs::File,
    count: u64,
}

impl CacheAppender {
    /// Creates (truncating) the flush stream at `path` and writes the
    /// empty header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = fs::File::create(path)?;
        file.write_all(V3_MAGIC)?;
        file.write_all(&0u64.to_le_bytes())?;
        Ok(CacheAppender { file, count: 0 })
    }

    /// Appends one batch of blocks (empty ones are skipped) and then
    /// commits it by rewriting the header count. Returns the number of
    /// entries written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the batch is not committed (the
    /// count still covers only previously committed blocks).
    pub fn append(&mut self, blocks: &[SeriesBlock]) -> io::Result<usize> {
        use std::io::Seek as _;
        let mut batch = Vec::new();
        let (mut written, mut entries) = (0u64, 0usize);
        for block in blocks.iter().filter(|b| !b.entries.is_empty()) {
            push_series_block(&mut batch, block);
            written += 1;
            entries += block.entries.len();
        }
        if written == 0 {
            return Ok(0);
        }
        self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(&batch)?;
        self.count += written;
        self.file.seek(io::SeekFrom::Start(V3_MAGIC.len() as u64))?;
        self.file.write_all(&self.count.to_le_bytes())?;
        Ok(entries)
    }

    /// Blocks committed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// What one [`FlushReader::poll`] yielded.
#[derive(Debug, Default)]
pub struct FlushPoll {
    /// Blocks fully flushed since the previous poll, in file order.
    pub blocks: Vec<SeriesBlock>,
    /// A *complete* block failed to decode (or the magic is wrong): the
    /// length-prefixed stream cannot be resynchronised past damage, so
    /// the reader is permanently stuck — everything before the damage
    /// was returned, nothing after it ever will be.
    pub damaged: bool,
}

impl FlushPoll {
    /// Entries over all polled blocks.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.blocks.iter().map(|b| b.entries.len()).sum()
    }
}

/// An incremental tail-reader over a [`CacheAppender`] flush stream,
/// tolerant of a writer that is still appending (or died mid-append).
///
/// Blocks are self-delimiting, so the reader ignores the header count
/// entirely: a length prefix promising more bytes than the file holds is
/// treated as *not flushed yet* and re-examined on the next poll — if the
/// writer is dead, those torn trailing bytes are simply never returned.
/// A complete block that fails to decode marks the stream damaged
/// (sticky; see [`FlushPoll::damaged`]).
#[derive(Debug)]
pub struct FlushReader {
    path: std::path::PathBuf,
    offset: u64,
    damaged: bool,
    /// The tail-read scratch buffer, reused across polls: the
    /// coordinator polls every lease-done, and most polls read a few
    /// blocks (or nothing) — reallocating per poll is pure churn.
    buf: Vec<u8>,
}

impl FlushReader {
    /// A reader tailing the flush stream at `path` (which need not exist
    /// yet — polls before the writer creates it return nothing).
    #[must_use]
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FlushReader {
            path: path.into(),
            offset: 0,
            damaged: false,
            buf: Vec::new(),
        }
    }

    /// Reads every block fully flushed since the last poll.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found" (a missing file is an
    /// empty poll — the writer just hasn't created it yet).
    pub fn poll(&mut self) -> io::Result<FlushPoll> {
        if self.damaged {
            return Ok(FlushPoll {
                blocks: Vec::new(),
                damaged: true,
            });
        }
        let mut file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(FlushPoll::default()),
            Err(e) => return Err(e),
        };
        self.buf.clear();
        if self.offset > 0 {
            use std::io::Seek as _;
            file.seek(io::SeekFrom::Start(self.offset))?;
        }
        io::Read::read_to_end(&mut file, &mut self.buf)?;
        let buf = &self.buf;
        let mut pos = 0usize;
        if self.offset == 0 {
            let header = V3_MAGIC.len() + 8;
            if buf.len() < header {
                return Ok(FlushPoll::default());
            }
            if !buf.starts_with(V3_MAGIC) {
                self.damaged = true;
                return Ok(FlushPoll {
                    blocks: Vec::new(),
                    damaged: true,
                });
            }
            pos = header;
        }
        let mut blocks = Vec::new();
        loop {
            match frame_at(buf, pos) {
                Frame::Incomplete => break, // torn or still being written: retry next poll
                Frame::Damaged => {
                    self.damaged = true;
                    break;
                }
                Frame::Block(meta, body) => {
                    let block = Block::new(&buf[body.clone()], meta);
                    let Some(entries) = block.decode_all() else {
                        self.damaged = true;
                        break;
                    };
                    blocks.push(SeriesBlock {
                        series: block.series().to_owned(),
                        entries,
                    });
                    pos = body.end;
                }
            }
        }
        self.offset += pos as u64;
        Ok(FlushPoll {
            blocks,
            damaged: self.damaged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EnergyOnlyPoint, PlannedPoint};
    use crate::exec::GridExecutor;
    use crate::spec::ScenarioGrid;
    use memstream_units::{DataSize, Ratio, Years};

    /// A per-process, per-test temp path: the process id keeps concurrent
    /// `cargo test` invocations (which share the OS temp dir) from
    /// clobbering each other's fixture files, and each test passes a
    /// distinct `name` so threads within one run never collide either.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memstream-grid-cache-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// One entry through the v3 block encoding and back.
    fn round_trip(series: &str, rate: u64, outcome: &CellOutcome) -> SeriesBlock {
        let mut bytes = Vec::new();
        push_series_block(
            &mut bytes,
            &SeriesBlock {
                series: series.to_owned(),
                entries: vec![(rate, outcome.clone())],
            },
        );
        let Frame::Block(meta, body) = frame_at(&bytes, 0) else {
            panic!("not a block");
        };
        let block = Block::new(&bytes[body], meta);
        SeriesBlock {
            series: block.series().to_owned(),
            entries: block.decode_all().expect("block decodes"),
        }
    }

    fn unmodelled(detail: &str) -> CellOutcome {
        CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        }
    }

    /// Every (series, rate) key of a grid's cells, in cell order.
    fn grid_keys(grid: &ScenarioGrid) -> Vec<(String, u64)> {
        let interner = crate::KeyInterner::new(grid);
        grid.cells()
            .map(|cell| {
                (
                    interner.series_token(interner.series_id(&cell)).to_owned(),
                    interner.rate_bits(&cell),
                )
            })
            .collect()
    }

    #[test]
    fn every_outcome_kind_round_trips_exactly() {
        // The baseline plus an energy-only-masked disk covers all four
        // outcome kinds' encodings except `Unmodelled` (covered below).
        use memstream_device::{DiskDevice, EnergyOnly};
        let grid = ScenarioGrid::paper_baseline(6).device(crate::spec::DeviceEntry::new(
            "disk-breakeven",
            EnergyOnly::new(DiskDevice::calibrated_1p8_inch()),
        ));
        let results = GridExecutor::serial().explore(&grid).unwrap();
        let keys = grid_keys(&grid);
        let mut seen_kinds = std::collections::HashSet::new();
        for ((cell, outcome), (series, rate)) in results.records().zip(&keys) {
            let parsed = round_trip(series, *rate, outcome);
            assert_eq!(&parsed.series, series);
            assert_eq!(parsed.entries, vec![(*rate, outcome.clone())], "{cell:?}");
            seen_kinds.insert(std::mem::discriminant(outcome));
        }
        // Feasible, infeasible and (masked-disk) energy-only all appear.
        assert_eq!(seen_kinds.len(), 3);
        // The fourth kind, `Unmodelled`, has no grid cell here; check its
        // encoding directly.
        let unmodelled = unmodelled("missing capability: wear");
        assert_eq!(round_trip("k", 1, &unmodelled).entries[0].1, unmodelled);
    }

    #[test]
    fn unbounded_lifetimes_survive_the_roundtrip() {
        let outcome = CellOutcome::Feasible(PlannedPoint {
            buffer: DataSize::from_kibibytes(12.0),
            dominant: "Lpe",
            saving: Some(0.75),
            utilization: Ratio::from_fraction(0.93),
            lifetime: Years::unbounded(),
            energy_per_bit: None,
        });
        assert_eq!(round_trip("k", 1, &outcome).entries[0].1, outcome);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let path = temp_path("roundtrip.cache");
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        let results = GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        assert_eq!(cache.misses(), results.unique_evaluations());
        cache.save(&path).unwrap();

        let mut loaded = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        let warm = GridExecutor::parallel(4)
            .explore_cached(&grid, &mut loaded)
            .unwrap();
        assert_eq!(loaded.hits(), warm.unique_evaluations());
        assert_eq!(loaded.misses(), 0);
        assert_eq!(
            crate::report::cells_csv(&results),
            crate::report::cells_csv(&warm),
            "warm cache must reproduce cold bytes"
        );
        fs::remove_file(path).unwrap();
    }

    /// The byte offset of row `row`'s tag in the first block of saved v3
    /// bytes whose series token is `series`.
    fn row_tag(bytes: &[u8], series: &str, row: usize) -> usize {
        let at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let block = V3_MAGIC.len() + 8;
        assert_eq!(
            &bytes[block + 8..block + 8 + series.len()],
            series.as_bytes()
        );
        let len_pos = block + 8 + at(block + 4);
        let rows = len_pos + 8 + 8 * at(len_pos);
        rows + crate::block::ROW_BYTES * row
    }

    #[test]
    fn corrupt_lines_become_misses() {
        // A row whose tag no decoder accepts: framing, rate order and the
        // index stay intact, so only the row's own decode notices.
        let path = temp_path("corrupt.cache");
        let mut cache = ResultCache::new();
        cache.insert_series("s", (1..=3).map(|r| (r, unmodelled(&r.to_string()))));
        cache.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let tag = row_tag(&bytes, "s", 1);
        bytes[tag] = b'?';
        fs::write(&path, &bytes).unwrap();

        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        let mut found = Vec::new();
        lazy.lookup_series("s", &[1, 2, 3], &mut found);
        assert_eq!(found, [Some(unmodelled("1")), None, Some(unmodelled("3"))]);
        assert_eq!((lazy.hits(), lazy.misses()), (2, 1));
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_header_is_an_empty_cache() {
        let path = temp_path("future.cache");
        fs::write(&path, "memstream-grid-cache v99\nwhatever\n").unwrap();
        let cache = ResultCache::load_lazy(&path).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stale_header(), Some("memstream-grid-cache v99"));
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let cache = ResultCache::load_lazy(temp_path("does-not-exist.cache")).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stale_header(), None);
    }

    #[test]
    fn union_of_disjoint_shard_caches_is_order_independent_and_byte_identical() {
        // One single-process cache; the same cells split into three
        // contiguous shard caches over the canonical dedup'd range.
        let grid = ScenarioGrid::paper_baseline(5);
        let mut whole = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut whole)
            .unwrap();

        let unique = grid.unique_cells();
        let bounds = [0, unique.len() / 3, 2 * unique.len() / 3, unique.len()];
        let shards: Vec<ResultCache> = bounds
            .windows(2)
            .map(|w| {
                let mut shard = ResultCache::new();
                GridExecutor::serial().resolve_cells(&grid, &unique[w[0]..w[1]], &mut shard);
                shard
            })
            .collect();

        // Union in two different orders: same entry set either way.
        let mut forward = ResultCache::new();
        let mut backward = ResultCache::new();
        for shard in &shards {
            let stats = forward.merge(shard).unwrap();
            assert_eq!(stats.duplicates, 0, "shards are disjoint");
        }
        for shard in shards.iter().rev() {
            backward.merge(shard).unwrap();
        }

        // And the merged file bytes equal the single-process cache file.
        let (p1, p2, p3) = (
            temp_path("union-whole.cache"),
            temp_path("union-fwd.cache"),
            temp_path("union-bwd.cache"),
        );
        whole.save(&p1).unwrap();
        forward.save(&p2).unwrap();
        backward.save(&p3).unwrap();
        let reference = fs::read(&p1).unwrap();
        assert_eq!(reference, fs::read(&p2).unwrap());
        assert_eq!(reference, fs::read(&p3).unwrap());
        for p in [p1, p2, p3] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_counts_added_and_duplicate_entries() {
        let outcome = unmodelled("x");
        let mut a = ResultCache::new();
        a.insert("k", 1, outcome.clone());
        let mut b = ResultCache::new();
        b.insert("k", 1, outcome.clone());
        b.insert("k", 2, outcome);
        let stats = a.merge(&b).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 1,
                duplicates: 1
            }
        );
        assert_eq!(a.len(), 2);
        assert_eq!((a.hits(), a.misses()), (0, 0), "merging is not a lookup");
    }

    #[test]
    fn merge_conflicts_are_attributed_and_byte_level() {
        let mut a = ResultCache::new();
        a.insert("cell", 5, unmodelled("ours"));
        let mut b = ResultCache::new();
        b.insert("cell", 5, unmodelled("theirs"));
        b.insert("aaa-sorts-first", 5, unmodelled("new"));
        let conflict = a.merge(&b).unwrap_err();
        assert_eq!((conflict.series.as_str(), conflict.rate_bits), ("cell", 5));
        assert!(conflict.ours.contains("ours"));
        assert!(conflict.theirs.contains("theirs"));
        assert!(conflict.to_string().contains("`cell@r="));
        // Atomicity: the failed merge must not have touched the target —
        // not even with `other`'s non-conflicting, lower-sorting entry.
        assert_eq!(a.len(), 1);
        assert!(!a.contains_key("aaa-sorts-first", 5));
    }

    #[test]
    fn merge_conflicts_on_signed_zeros_and_nan_payloads() {
        // Structurally these pairs are "the same number"; their encoded
        // bytes are not, and byte-equality is the rule.
        let feasible = |saving: f64| {
            CellOutcome::Feasible(PlannedPoint {
                buffer: DataSize::from_bits(1.0),
                dominant: "E",
                saving: Some(saving),
                utilization: Ratio::from_fraction(0.5),
                lifetime: Years::new(1.0),
                energy_per_bit: None,
            })
        };
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        for (ours, theirs) in [(0.0, -0.0), (nan_a, nan_b)] {
            let mut a = ResultCache::new();
            a.insert("s", 1, feasible(ours));
            let mut b = ResultCache::new();
            b.insert("s", 1, feasible(theirs));
            assert!(a.merge(&b).is_err(), "{ours:?} vs {theirs:?}");
            // The same bits on both sides are duplicates, NaN included.
            let mut c = ResultCache::new();
            c.insert("s", 1, feasible(ours));
            assert_eq!(a.merge(&c).unwrap().duplicates, 1);
        }
    }

    #[test]
    fn strict_load_rejects_version_mismatch_and_corruption() {
        let versioned = temp_path("strict-version.cache");
        fs::write(&versioned, "memstream-grid-cache v99\nanything\n").unwrap();
        match ResultCache::load_strict(&versioned).unwrap_err() {
            CacheFileError::VersionMismatch { found } => {
                assert_eq!(found, "memstream-grid-cache v99");
            }
            other => panic!("expected version mismatch, got {other}"),
        }
        fs::remove_file(versioned).unwrap();

        let corrupt = temp_path("strict-corrupt.cache");
        let mut cache = ResultCache::new();
        cache.insert("k", 1, unmodelled("ok"));
        cache.insert("l", 1, unmodelled("broken"));
        cache.save(&corrupt).unwrap();
        let mut bytes = fs::read(&corrupt).unwrap();
        // The second block's only row: its tag sits a fixed distance
        // from the end of the block, before the one detail (`broken`).
        let index = bytes.len() - 8 - 2 * 8;
        let tag = index - "broken".len() - 4 - crate::block::ROW_BYTES;
        bytes[tag] = b'?';
        fs::write(&corrupt, &bytes).unwrap();
        match ResultCache::load_strict(&corrupt).unwrap_err() {
            CacheFileError::Malformed { block } => assert_eq!(block, 1),
            other => panic!("expected a malformed block, got {other}"),
        }
        fs::remove_file(corrupt).unwrap();

        assert!(matches!(
            ResultCache::load_strict(temp_path("strict-missing.cache")).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    /// Files of another key generation (Debug-rendered keys, bare
    /// `v1`/`v2` headers) or of the retired v1 text and v2 record
    /// encodings must never load as a silent total miss.
    #[test]
    fn old_generation_headers_are_refused_and_attributed() {
        let gen1_v1 = temp_path("gen1-v1.cache");
        fs::write(
            &gen1_v1,
            "memstream-grid-cache v1\nmems:MemsDevice { name: \"x\" }\tU\td\n",
        )
        .unwrap();
        let gen1_v2 = temp_path("gen1-v2.cache");
        let mut bytes = b"memstream-grid-cache v2\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0, 0, 0, 0, 0, 0]);
        fs::write(&gen1_v2, bytes).unwrap();
        let text_v1 = temp_path("k2-v1.cache");
        fs::write(&text_v1, "memstream-grid-cache v1 k2\nkind:1:x,w\tU\td\n").unwrap();
        let records_v2 = temp_path("k2-v2.cache");
        fs::write(&records_v2, v2_record_file()).unwrap();
        for (path, header) in [
            (&gen1_v1, "memstream-grid-cache v1"),
            (&gen1_v2, "memstream-grid-cache v2"),
            (&text_v1, "memstream-grid-cache v1 k2"),
            (&records_v2, "memstream-grid-cache v2 k2"),
        ] {
            match ResultCache::load_strict(path).unwrap_err() {
                CacheFileError::VersionMismatch { found } => assert_eq!(found, header),
                other => panic!("expected version mismatch, got {other}"),
            }
            let cache = ResultCache::load_lazy(path).unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.stale_header(), Some(header));
            assert!(cache.needs_save());
            fs::remove_file(path).unwrap();
        }
        assert_eq!(CACHE_HEADER, "memstream-grid-cache v3 k2");
        assert_eq!(V3_MAGIC, format!("{CACHE_HEADER}\n").as_bytes());
    }

    /// A one-record file in the retired `v2 k2` record encoding: magic,
    /// `u64` count, one `u32`-framed record (key string, `U` tag, detail
    /// string), the record index and the trailer.
    fn v2_record_file() -> Vec<u8> {
        let mut bytes = b"memstream-grid-cache v2 k2\n".to_vec();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        let record_offset = bytes.len() as u64;
        let mut body = Vec::new();
        for (tag, s) in [(None, "k"), (Some(b'U'), "d")] {
            body.extend(tag);
            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
            body.extend_from_slice(s.as_bytes());
        }
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        let index_offset = bytes.len() as u64;
        bytes.extend_from_slice(&record_offset.to_le_bytes());
        bytes.extend_from_slice(&index_offset.to_le_bytes());
        bytes
    }

    #[test]
    fn an_unchanged_warm_cache_needs_no_save_in_its_own_format() {
        let grid = ScenarioGrid::paper_baseline(3);
        let mut cold = ResultCache::new();
        assert!(cold.needs_save(), "a new cache writes its file");
        GridExecutor::serial()
            .explore_cached(&grid, &mut cold)
            .unwrap();
        let path = temp_path("unchanged.cache");
        cold.save(&path).unwrap();
        for load in [ResultCache::load_lazy, |p| {
            ResultCache::load_strict(p).map_err(|e| io::Error::other(e.to_string()))
        }] {
            let mut warm = load(&path).unwrap();
            assert_eq!(warm.stale_header(), None);
            GridExecutor::serial()
                .explore_cached(&grid, &mut warm)
                .unwrap();
            assert_eq!(warm.misses(), 0);
            assert!(!warm.needs_save(), "all-hit run");
            warm.insert("new-series", 1, unmodelled("d"));
            assert!(warm.needs_save(), "an insert dirties the cache");
        }

        // A merge that only meets duplicates changes nothing; one that
        // adds an entry does.
        let mut warm = ResultCache::load_lazy(&path).unwrap();
        warm.merge(&cold).unwrap();
        assert!(!warm.needs_save());
        let mut extra = ResultCache::new();
        extra.insert("zz-extra", 1, unmodelled("d"));
        warm.merge(&extra).unwrap();
        assert!(warm.needs_save());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_load_that_dropped_damage_needs_its_save() {
        // A v3 file with its index torn off loads its blocks leniently,
        // but the file is not intact.
        let v3 = temp_path("damaged-v3.cache");
        let mut cache = ResultCache::new();
        cache.insert("k", 1, unmodelled("d"));
        cache.save(&v3).unwrap();
        let bytes = fs::read(&v3).unwrap();
        fs::write(&v3, &bytes[..bytes.len() - 16]).unwrap();
        let cache = ResultCache::load_lazy(&v3).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.needs_save());
        fs::remove_file(v3).unwrap();
    }

    /// Entries of the kinds a paper grid lacks, under hostile series
    /// tokens and details: tabs, newlines, backslashes, `|` and `r=`
    /// travel unescaped in v3 strings.
    fn hostile_entries() -> Vec<(&'static str, u64, CellOutcome)> {
        vec![
            (
                "key\twith\ttabs\nand\\newlines|r=1.0|",
                7,
                CellOutcome::Infeasible {
                    region: "X",
                    detail: "tab\there\nnewline\\backslash".to_owned(),
                },
            ),
            ("unmodelled", 1, unmodelled("missing capability: wear")),
            (
                "energy-only",
                1,
                CellOutcome::EnergyOnly(EnergyOnlyPoint {
                    break_even: Some(DataSize::from_kibibytes(3.5)),
                    buffer_for_saving: None,
                    saving: Some(0.5),
                }),
            ),
        ]
    }

    /// A cache holding every outcome kind: a small paper grid plus
    /// [`hostile_entries`].
    fn hostile_cache() -> ResultCache {
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        for (series, rate, outcome) in hostile_entries() {
            cache.insert(series, rate, outcome);
        }
        cache
    }

    #[test]
    fn lazy_view_hits_decode_in_place_and_match_the_eager_load() {
        let path = temp_path("view-hits.cache");
        hostile_cache().save(&path).unwrap();
        let eager = ResultCache::load_strict(&path).unwrap();
        let keys: Vec<(String, u64)> = eager.keys().map(|(s, r)| (s.to_owned(), r)).collect();
        let metrics = Metrics::enabled();
        let counter = |name: &str| metrics.snapshot().counter(name).unwrap_or(0);
        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        lazy.set_metrics(&metrics);
        let len = lazy.len();
        assert_eq!(len, keys.len());

        assert!(keys.iter().all(|(s, r)| lazy.contains_key(s, *r)));
        assert_eq!(
            counter("cache.records_decoded"),
            0,
            "index probes decode nothing"
        );

        let mut kinds = std::collections::HashSet::new();
        let mut found = Vec::new();
        for (series, rate) in &keys {
            found.clear();
            lazy.lookup_series(series, &[*rate, *rate], &mut found);
            let [Some(first), Some(second)] = &found[..] else {
                panic!("every key hits twice under {series:?}");
            };
            assert_eq!(Some(first), eager.get(series, *rate).as_ref(), "{series:?}");
            assert_eq!(first, second, "repeat lookups agree under {series:?}");
            kinds.insert(std::mem::discriminant(first));
        }
        assert_eq!(kinds.len(), 4, "every outcome kind went through a view hit");
        assert!(
            keys.iter().any(|(s, _)| s.contains('\t')),
            "hostile key covered"
        );
        assert_eq!((lazy.hits(), lazy.misses()), (2 * keys.len(), 0));
        assert_eq!(counter("cache.hits"), 2 * keys.len() as u64);
        assert_eq!(
            counter("cache.records_decoded"),
            2 * keys.len() as u64,
            "one in-place decode per hit, nothing memoized"
        );
        assert!(lazy.entries.is_empty(), "the overlay holds inserts only");
        assert_eq!(lazy.len(), len);
        assert!(!lazy.needs_save(), "an all-hit pass changes nothing");

        // A caller that re-reads cells asks for each row to decode once.
        let metrics = Metrics::enabled();
        let mut kept = ResultCache::load_lazy(&path).unwrap();
        kept.set_metrics(&metrics);
        kept.keep_decoded();
        for (series, rate) in keys.iter().chain(&keys) {
            found.clear();
            kept.lookup_series(series, &[*rate], &mut found);
            assert_eq!(found[0], eager.get(series, *rate));
        }
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter("cache.records_decoded"),
            Some(keys.len() as u64)
        );
        assert_eq!(kept.hits(), 2 * keys.len());
        assert!(!kept.needs_save());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_save_load_round_trips_in_both_readers() {
        // (Named for the retired v2 encoding; exercises its successor.)
        let path = temp_path("v3-roundtrip.cache");
        let cache = hostile_cache();
        cache.save(&path).unwrap();
        assert!(
            fs::read(&path).unwrap().starts_with(V3_MAGIC),
            "v3 files carry the sniffable magic"
        );
        for loaded in [
            ResultCache::load_lazy(&path).unwrap(),
            ResultCache::load_strict(&path).unwrap(),
        ] {
            assert_eq!(loaded.len(), cache.len());
            for (series, rate) in cache.keys() {
                assert_eq!(
                    loaded.get(series, rate),
                    cache.get(series, rate),
                    "drift under {series:?}"
                );
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_lenient_load_keeps_the_prefix_of_a_truncated_file() {
        // (Named for the retired v2 encoding; exercises its successor.)
        let path = temp_path("v3-truncated.cache");
        let mut cache = ResultCache::new();
        for series in ["a", "b", "c"] {
            cache.insert(series, 1, unmodelled(&format!("detail {series}")));
        }
        cache.save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Keep the magic, the count and the first block only.
        let start = V3_MAGIC.len() + 8;
        let first_len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
        fs::write(&path, &bytes[..start + 4 + first_len]).unwrap();

        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 1, "the intact prefix survives");
        assert!(lenient.contains_key("a", 1), "blocks sort by series");
        // Truncation tears off the block index entirely, so the strict
        // reader attributes the damage to the (garbage) trailer bytes.
        let len = fs::metadata(&path).unwrap().len();
        match ResultCache::load_strict(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => assert_eq!(offset, len - 8),
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn every_prefix_of_a_small_file_is_refused_strictly_and_kept_leniently() {
        // Neither reader may panic on any truncation. The strict reader
        // refuses every proper prefix with an attributed error; the
        // lenient reader keeps a prefix of the blocks — whole blocks,
        // each exactly as saved.
        let path = temp_path("every-prefix.cache");
        let mut cache = ResultCache::new();
        for (series, rate, outcome) in hostile_entries() {
            cache.insert(series, rate, outcome);
        }
        cache.insert_series("s", (1..4).map(|r| (r, unmodelled("shared"))));
        cache.save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        let reference = ResultCache::load_strict(&path).unwrap();
        let series: Vec<&str> = reference.series_tokens();
        for end in 0..bytes.len() {
            fs::write(&path, &bytes[..end]).unwrap();
            match ResultCache::load_strict(&path) {
                Err(
                    CacheFileError::VersionMismatch { .. }
                    | CacheFileError::Malformed { .. }
                    | CacheFileError::MalformedIndex { .. },
                ) => {}
                other => panic!("prefix of {end} bytes: {other:?}"),
            }
            let lenient = ResultCache::load_lazy(&path).unwrap();
            let kept = lenient.series_tokens();
            assert_eq!(kept[..], series[..kept.len()], "prefix of {end} bytes");
            for s in kept {
                let whole: Vec<(u64, Option<CellOutcome>)> = reference
                    .series(s)
                    .slots()
                    .into_iter()
                    .map(|(rate, _)| (rate, reference.get(s, rate)))
                    .collect();
                let got: Vec<(u64, Option<CellOutcome>)> = whole
                    .iter()
                    .map(|(rate, _)| (*rate, lenient.get(s, *rate)))
                    .collect();
                assert_eq!(got, whole, "block {s:?} at a prefix of {end} bytes");
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_strict_load_verifies_the_record_index() {
        // (Named for the retired v2 encoding; exercises its successor.)
        let path = temp_path("v3-bad-index.cache");
        hostile_cache().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // The blocks themselves are intact: the lenient reader falls
        // back to the block scan (which never consults the index) and
        // still loads everything.
        assert_eq!(
            ResultCache::load_lazy(&path).unwrap().len(),
            hostile_cache().len()
        );
        match ResultCache::load_strict(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, bytes.len() as u64 - 8, "attributed at the trailer");
            }
            other => panic!("expected malformed index, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_accepts_what_save_wrote() {
        let path = temp_path("strict-roundtrip.cache");
        let grid = ScenarioGrid::paper_baseline(3);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.save(&path).unwrap();
        let strict = ResultCache::load_strict(&path).unwrap();
        assert_eq!(strict.len(), cache.len());
        for (series, rate) in cache.keys() {
            assert_eq!(strict.get(series, rate), cache.get(series, rate));
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_paper_grid_cache_costs_at_most_100_bytes_per_entry() {
        // The size gate: one block per series stores each series token
        // once and each distinct detail once per block.
        let path = temp_path("size-gate.cache");
        let grid = ScenarioGrid::paper_baseline(200);
        let mut cache = ResultCache::new();
        GridExecutor::parallel(2)
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.save(&path).unwrap();
        let bytes = fs::metadata(&path).unwrap().len();
        let per_entry = bytes as f64 / cache.len() as f64;
        assert!(per_entry <= 100.0, "{per_entry:.1} B per entry");
        fs::remove_file(path).unwrap();
    }

    fn block(series: &str, rates: &[u64]) -> SeriesBlock {
        SeriesBlock {
            series: series.to_owned(),
            entries: rates
                .iter()
                .map(|&r| (r, unmodelled(&format!("{series}{r}"))))
                .collect(),
        }
    }

    fn polled_keys(poll: &FlushPoll) -> Vec<(String, u64)> {
        poll.blocks
            .iter()
            .flat_map(|b| b.entries.iter().map(|(r, _)| (b.series.clone(), *r)))
            .collect()
    }

    #[test]
    fn flush_stream_is_incrementally_readable_and_leniently_loadable() {
        let path = temp_path("flush-basic.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let mut reader = FlushReader::new(&path);

        assert_eq!(
            writer
                .append(&[block("a", &[2, 1]), block("b", &[1])])
                .unwrap(),
            3
        );
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged);
        assert_eq!(
            polled_keys(&poll),
            [("a".into(), 1), ("a".into(), 2), ("b".into(), 1)],
            "a block's rates come back sorted"
        );

        // A second batch arrives only on the next poll — nothing is
        // returned twice.
        assert_eq!(writer.append(&[block("a", &[3])]).unwrap(), 1);
        assert_eq!(writer.count(), 3);
        let poll = reader.poll().unwrap();
        assert_eq!(polled_keys(&poll), [("a".into(), 3)]);
        assert!(reader.poll().unwrap().blocks.is_empty());

        // The stream doubles as a lenient warm file but is rejected by
        // the strict interchange reader (no index — scratch only).
        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 4);
        assert!(ResultCache::load_strict(&path).is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_flush_tail_is_dropped_but_the_committed_prefix_survives() {
        // A writer that died mid-append leaves a length prefix promising
        // more bytes than the file holds. The tail must never surface:
        // not from the tailing reader, not from the lenient loader.
        let path = temp_path("flush-torn.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        writer.append(&[block("a", &[1, 2])]).unwrap();
        let mut torn = 64u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xAB; 7]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&torn).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged, "a tear is not damage");
        assert_eq!(poll.entries(), 2);
        // The tear never completes: later polls stay empty and undamaged.
        let poll = reader.poll().unwrap();
        assert!(poll.blocks.is_empty() && !poll.damaged);

        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 2, "count covers only committed blocks");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_resumes_once_a_partial_record_completes() {
        // The same byte split as a torn tail — but the writer is alive
        // and finishes the block, so the reader must pick it up whole.
        let path = temp_path("flush-resume.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        writer.append(&[block("a", &[1])]).unwrap();
        let full = fs::read(&path).unwrap();

        // Replay the file one byte at a time into a sibling path.
        let partial = temp_path("flush-resume-partial.cache");
        let mut reader = FlushReader::new(&partial);
        let mut seen = Vec::new();
        for end in 0..=full.len() {
            fs::write(&partial, &full[..end]).unwrap();
            let poll = reader.poll().unwrap();
            assert!(!poll.damaged, "a growing file is never damage");
            seen.extend(polled_keys(&poll));
        }
        assert_eq!(seen, [("a".into(), 1)]);
        for p in [path, partial] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn corrupt_flush_record_marks_the_stream_damaged_keeping_the_prefix() {
        let path = temp_path("flush-corrupt.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        writer.append(&[block("a", &[1])]).unwrap();
        // A complete but undecodable block: well-formed length, garbage
        // body.
        let mut garbage = 8u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xAB; 8]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&garbage).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(poll.damaged, "a decodable-length garbage block is damage");
        assert_eq!(poll.entries(), 1, "the valid prefix is returned");
        // Damage is sticky: the writer appending more afterwards changes
        // nothing.
        writer.append(&[block("b", &[1])]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.damaged && poll.blocks.is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_rejects_a_wrong_magic() {
        let path = temp_path("flush-magic.cache");
        fs::write(&path, b"memstream-grid-cache v99\nxxxxxxxxxxx").unwrap();
        let mut reader = FlushReader::new(&path);
        assert!(reader.poll().unwrap().damaged);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_tolerates_a_missing_or_headerless_file() {
        let path = temp_path("flush-missing.cache");
        let _ = fs::remove_file(&path);
        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(poll.blocks.is_empty() && !poll.damaged);
        // A file shorter than the header is "not ready", not damage.
        fs::write(&path, &V3_MAGIC[..4]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.blocks.is_empty() && !poll.damaged);
        fs::remove_file(path).unwrap();
    }
}
