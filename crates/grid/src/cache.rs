//! Cross-run result caching: persist evaluated cell outcomes keyed by
//! [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key) so repeated
//! explorations (CI re-runs, interactive sweeps) skip already-evaluated
//! cells across process boundaries.
//!
//! There is one on-disk encoding, specified in `docs/CACHE_FORMAT.md` at
//! the repository root: `memstream-grid-cache v2 k2`, a length-prefixed
//! binary record store with a sorted key index. Floats are raw IEEE-754
//! bits, keys raw UTF-8; reading needs no float parsing or unescaping.
//! A warm-cache exploration reproduces the cold run's reports
//! **byte-identically** — the property the CI determinism smoke asserts.
//!
//! Two readers:
//!
//! * [`ResultCache::load_lazy`], the lenient warm-start reader, holds a
//!   valid file as a [`CacheView`] and a hit decodes only that record's
//!   outcome, in place. A file whose index is missing or damaged (a
//!   shard flush stream, a torn write) keeps the records before the
//!   first damage — they simply become cache misses — so damage never
//!   poisons a run.
//! * [`ResultCache::load_strict`], the validating interchange reader:
//!   a file that is not intact is an attributed error, never a smaller
//!   cache. Tests use it as the reference decode.
//!
//! The `k2` in the header is the key generation: keys are the canonical
//! field encodings of [`ScenarioGrid::dedup_key`](crate::ScenarioGrid::dedup_key)
//! (about 220 bytes; no Rust field or type names). A file with any other
//! header — the first generation's bare `v1`/`v2` headers, the retired
//! `memstream-grid-cache v1 k2` text encoding, another program's file —
//! is refused whole: [`ResultCache::load_strict`] returns
//! [`CacheFileError::VersionMismatch`], and [`ResultCache::load_lazy`]
//! starts empty and reports the header it found through
//! [`ResultCache::stale_header`].
//!
//! A warm run that changed nothing need not rewrite its file:
//! [`ResultCache::needs_save`] is false when nothing was inserted or
//! merged in and the loader read the file back intact.
//!
//! The shard coordinator reassembles a sharded run by
//! [`ResultCache::merge`]-union of the records it tails from the
//! workers' flush streams ([`FlushReader`]); the union's conflict rule
//! is byte-equality of the v2 record encoding (see
//! `docs/CACHE_FORMAT.md` § "Union/merge semantics").

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use memstream_core::Requirement;
use memstream_telemetry::{Counter, Histogram, Metrics, SpanHandle};
use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};
use crate::view::{header_line, validate_v2, CacheView};

/// The header line every cache file starts with. The `k2` suffix names
/// the key generation: the canonical field encoding of
/// `docs/CACHE_FORMAT.md` § "Keys". Files with any other header are
/// refused.
pub const CACHE_HEADER: &str = "memstream-grid-cache v2 k2";
/// The sniffable magic: the header line including its terminator.
pub(crate) const V2_MAGIC: &[u8] = b"memstream-grid-cache v2 k2\n";

/// The encoding [`ResultCache::save_as`] writes. There is only one, v2,
/// and [`ResultCache::save`] writes it.
///
/// This type and `save_as` stay only because the benchmark's replay
/// program (`perfbench/driver`) calls `CacheFormat::default()` and
/// `save_as`, and that program changes only together with the
/// benchmark. The next benchmark change drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheFormat {
    /// The length-prefixed binary format (`memstream-grid-cache v2 k2`).
    #[default]
    V2,
}

/// Why a strict cache read ([`ResultCache::load_strict`]) rejected a file.
///
/// The lenient reader ([`ResultCache::load_lazy`]) maps every non-I/O
/// failure below to "empty cache" or "records after the damage are
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
    /// A record's key framing is broken or out of order, or its payload
    /// fails to decode.
    Malformed {
        /// 1-based position of the offending record: `record ordinal +
        /// 2`, counting the header as position 1.
        line: usize,
    },
    /// The v2 structure around the records — the count field, the
    /// trailing record index, or the trailer — is damaged: truncated,
    /// pointing outside the file, or disagreeing with the record
    /// framing. Attributed by byte offset because this damage has no
    /// meaningful record ordinal.
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
            CacheFileError::Malformed { line } => {
                write!(f, "cache file line {line} is not a valid entry")
            }
            CacheFileError::MalformedIndex { offset } => {
                write!(
                    f,
                    "cache file record index is damaged at byte offset {offset}"
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

/// A union conflict: two caches carry the same dedup key with entries
/// whose v2 record encodings are **not byte-equal**.
///
/// Because evaluation is pure and floats round-trip exactly, two honest
/// explorations of the same scenario can never disagree — a conflict
/// means the caches came from different grids, code versions or corrupted
/// files, and the merge must fail rather than pick a side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConflict {
    /// The dedup key both caches claim.
    pub key: String,
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
            self.key, self.ours, self.theirs
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

/// A persistent map from scenario dedup keys to evaluated outcomes.
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
    /// The overlay map: inserted and merged-in entries only. Without a
    /// view this is simply *the* map.
    entries: HashMap<String, CellOutcome>,
    /// The lazy backing file ([`ResultCache::load_lazy`]): probes hit
    /// its index, and each hit decodes its record's outcome in place.
    view: Option<Arc<CacheView>>,
    /// View outcomes by record ordinal, kept after their first decode
    /// once [`ResultCache::keep_decoded`] asked for it; empty otherwise.
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
/// null-check per lookup and nothing more.
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
    /// Records decoded on demand from a lazy [`CacheView`] — the number
    /// a warm run must keep proportional to the work requested, not the
    /// cache size. Strict loads do not count here.
    records_decoded: Counter,
    /// Binary-search probes into a lazy view's record index.
    index_lookups: Counter,
    /// Per-lookup latency distribution (`cache.lookup`); the clock is
    /// only read when the histogram is live.
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

    fn is_enabled(&self) -> bool {
        self.merge_bytes.is_live()
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
    /// record index is read — and each lookup hit decodes that one
    /// record's outcome in place (no key string and, unless
    /// [`ResultCache::keep_decoded`], no memo: a cell looked up twice
    /// decodes twice). Probes ([`ResultCache::contains_key`], planning)
    /// never decode at all.
    ///
    /// Only an I/O error fails the load: a missing file is an empty
    /// cache; a file with another header starts empty and names that
    /// header in [`ResultCache::stale_header`]; a file the view cannot
    /// validate (a flush stream, which has no index, or structural
    /// damage) keeps every record before the first malformed one — the
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
        if !bytes.starts_with(V2_MAGIC) {
            if !bytes.is_empty() {
                cache.stale_header = Some(header_line(&bytes));
            }
        } else if let Ok(offsets) = validate_v2(&bytes) {
            cache.view = Some(Arc::new(CacheView::from_validated(bytes, offsets)));
            cache.loaded = true;
        } else {
            cache.entries = parse_v2_lenient(&bytes);
        }
        Ok(cache)
    }

    /// Loads a cache file as an **interchange file**: unlike
    /// [`ResultCache::load_lazy`], a missing file, another header, or
    /// any structural or record damage is an attributed error, and every
    /// record is decoded up front. A file that half-parses must never
    /// silently shrink a result; tests also use this reader as the
    /// reference decode the lazy view must agree with.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not found"),
    /// [`CacheFileError::VersionMismatch`] if the header line is not
    /// `memstream-grid-cache v2 k2`, [`CacheFileError::MalformedIndex`]
    /// (attributed by byte offset) if the count, record index or trailer
    /// disagrees with the records actually present, and
    /// [`CacheFileError::Malformed`] on the first record that fails to
    /// decode.
    pub fn load_strict(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let view = CacheView::open(path)?;
        let mut cache = ResultCache::new();
        cache.entries = HashMap::with_capacity(view.len());
        for ordinal in 0..view.len() {
            let outcome = view
                .outcome_at(ordinal)
                .ok_or(CacheFileError::Malformed { line: ordinal + 2 })?;
            cache
                .entries
                .insert(view.key_at(ordinal).to_owned(), outcome);
        }
        cache.loaded = true;
        Ok(cache)
    }

    /// Unions `other` into `self`. Keys held by both caches must encode to
    /// byte-identical v2 records; the union is therefore order-independent —
    /// merging shard caches in any order yields the same entry set, and
    /// [`ResultCache::save`] (which sorts by key) the same file bytes.
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
        let count_bytes = self.telemetry.is_enabled();
        // Detect pass, read-only: it completes before any mutation, so a
        // conflict leaves `self` untouched.
        let mut tally = ViewTally::default();
        let mut additions: Vec<(&str, CellOutcome)> = Vec::new();
        let mut duplicates = 0usize;
        let mut bytes = 0u64;
        let mut conflict: Option<CacheConflict> = None;
        let (mut ours_record, mut theirs_record) = (Vec::new(), Vec::new());
        for key in other.keys() {
            let theirs = fetch_quiet(other, key, &mut tally)
                .expect("listed keys resolve in their own cache");
            match fetch_quiet(self, key, &mut tally) {
                Some(ours) => {
                    // The conflict rule is byte-equality of the encoded
                    // record, not structural equality: it is the file
                    // bytes two shards must agree on, and it treats equal
                    // NaN payloads as the duplicates they are.
                    ours_record.clear();
                    theirs_record.clear();
                    push_record(&mut ours_record, key, &ours);
                    push_record(&mut theirs_record, key, &theirs);
                    if ours_record == theirs_record {
                        duplicates += 1;
                    } else if conflict.as_ref().is_none_or(|held| key < held.key.as_str()) {
                        conflict = Some(CacheConflict {
                            key: key.to_owned(),
                            ours: format!("{ours:?}"),
                            theirs: format!("{theirs:?}"),
                        });
                    }
                }
                None => {
                    if count_bytes {
                        theirs_record.clear();
                        push_record(&mut theirs_record, key, &theirs);
                        bytes += theirs_record.len() as u64;
                    }
                    additions.push((key, theirs));
                }
            }
        }
        self.telemetry.index_lookups.add(tally.probes);
        self.telemetry.records_decoded.add(tally.decoded);
        if let Some(conflict) = conflict {
            return Err(conflict);
        }
        let stats = MergeStats {
            added: additions.len(),
            duplicates,
        };
        for (key, outcome) in additions {
            self.entries.insert(key.to_owned(), outcome);
        }
        // Every addition was absent from view *and* overlay (the detect
        // pass checked), so the length bookkeeping is a plain bump.
        self.overlay_new += stats.added;
        self.dirty |= stats.added > 0;
        self.telemetry.merge_bytes.add(bytes);
        self.telemetry.merges.incr();
        self.telemetry.merge_added.add(stats.added as u64);
        self.telemetry.merge_duplicates.add(stats.duplicates as u64);
        Ok(stats)
    }

    /// Writes the cache to `path`, sorted by key for reproducible
    /// bytes. Entries stream through a [`io::BufWriter`], each encoded
    /// into one reused buffer — the whole file is never materialised in
    /// memory.
    ///
    /// A lazily loaded cache that was never extended or shadowed
    /// re-saves **verbatim**: the view's validation guarantees its
    /// entries re-encode to exactly the bytes it was opened over, so the
    /// file is rewritten without decoding a single record.
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
        // Overlay entries are borrowed; only view-held records the
        // overlay does not shadow are decoded.
        let decoded: Vec<(&str, CellOutcome)> = match self.view.as_deref() {
            Some(view) => (0..view.len())
                .map(|ordinal| (view.key_at(ordinal), ordinal))
                .filter(|(key, _)| !self.entries.contains_key(*key))
                .filter_map(|(key, ordinal)| Some((key, view.outcome_at(ordinal)?)))
                .collect(),
            None => Vec::new(),
        };
        self.telemetry.records_decoded.add(decoded.len() as u64);
        let mut entries: Vec<(&str, &CellOutcome)> =
            Vec::with_capacity(self.entries.len() + decoded.len());
        entries.extend(
            self.entries
                .iter()
                .map(|(key, outcome)| (key.as_str(), outcome)),
        );
        entries.extend(decoded.iter().map(|(key, outcome)| (*key, outcome)));
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        let written = write_v2(&mut out, &entries)?;
        out.flush()?;
        self.telemetry.save_bytes.add(written);
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
            CacheFormat::V2 => self.save(path),
        }
    }

    /// Number of cached outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.view.as_deref() {
            Some(view) => view.len() + self.overlay_new,
            None => self.entries.len(),
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
    /// (no damaged record dropped). A new cache, or one over a missing
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

    /// Looks up an outcome, counting the hit/miss and timing the probe
    /// into the `cache.lookup` histogram when telemetry is enabled.
    ///
    /// On a lazy cache, a view hit decodes that one record's outcome in
    /// place and keeps nothing (unless [`ResultCache::keep_decoded`]):
    /// the grid looks each unique cell up once, so
    /// `cache.records_decoded` equals the view hits.
    pub(crate) fn lookup(&mut self, key: &str) -> Option<CellOutcome> {
        let started = self
            .telemetry
            .lookup_latency
            .is_live()
            .then(std::time::Instant::now);
        let found = match self.entries.get(key) {
            Some(outcome) => Some(outcome.clone()),
            None => self.view_outcome(key).map(|(ordinal, outcome)| {
                if let Some(slot @ None) = self.decoded.get_mut(ordinal) {
                    *slot = Some(outcome.clone());
                }
                outcome
            }),
        };
        if let Some(started) = started {
            self.telemetry.lookup_latency.record(started.elapsed());
        }
        match found {
            Some(outcome) => {
                self.hits += 1;
                self.telemetry.hits.incr();
                Some(outcome)
            }
            None => {
                self.misses += 1;
                self.telemetry.misses.incr();
                None
            }
        }
    }

    /// The view's record for `key` and its outcome: one index binary
    /// search, then the outcome kept by [`ResultCache::keep_decoded`],
    /// or else the record's outcome decoded in place. Counts the probe
    /// and any decode.
    fn view_outcome(&self, key: &str) -> Option<(usize, CellOutcome)> {
        let view = self.view.as_deref()?;
        self.telemetry.index_lookups.incr();
        let ordinal = view.find(key)?;
        if let Some(Some(kept)) = self.decoded.get(ordinal) {
            return Some((ordinal, kept.clone()));
        }
        let outcome = view.outcome_at(ordinal)?;
        self.telemetry.records_decoded.incr();
        Some((ordinal, outcome))
    }

    /// Peeks at an outcome without touching the hit/miss counters (the
    /// shard planner asks "is this cell already known?" without it being
    /// a lookup of record). On a lazy cache a view-held record is found
    /// by one index binary search and its outcome decoded in place;
    /// both count (`cache.index_lookups`, `cache.records_decoded`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        match self.entries.get(key) {
            Some(outcome) => Some(outcome.clone()),
            None => self.view_outcome(key).map(|(_, outcome)| outcome),
        }
    }

    /// Keeps each view record's outcome after its first decode, so a
    /// later lookup of the same cell clones it instead of decoding
    /// again. For callers that look cells up more than once: the
    /// refinement loop re-assembles every round over its grown grid. A
    /// grid run looks each cell up once and leaves this off. A no-op
    /// without a lazy view.
    pub fn keep_decoded(&mut self) {
        if let Some(view) = self.view.as_deref() {
            if self.decoded.is_empty() {
                self.decoded = vec![None; view.len()];
            }
        }
    }

    /// Whether `key` is cached, without counting a hit or miss. On a
    /// lazy cache this is an index probe — no record is decoded, which
    /// is what keeps fully-warm planning decode-free.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        if self.entries.contains_key(key) {
            return true;
        }
        match self.view.as_deref() {
            Some(view) => {
                self.telemetry.index_lookups.incr();
                view.find(key).is_some()
            }
            None => false,
        }
    }

    /// Iterates the cached dedup keys in arbitrary order (sort before
    /// relying on the order for anything user-visible).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let view = self.view.as_deref();
        self.entries
            .keys()
            .map(String::as_str)
            .filter(move |key| match view {
                Some(view) => view.find(key).is_none(),
                None => true,
            })
            .chain(view.into_iter().flat_map(CacheView::keys))
    }

    /// Makes room for `additional` inserts in one allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Inserts an outcome under `key`, replacing any previous entry.
    ///
    /// The executor records each fresh evaluation with this; for
    /// unioning whole caches prefer
    /// [`ResultCache::merge`], which refuses conflicting entries instead
    /// of overwriting.
    pub fn insert(&mut self, key: String, outcome: CellOutcome) {
        self.telemetry.inserts.incr();
        self.dirty = true;
        let in_view = match self.view.as_deref() {
            Some(view) => {
                self.telemetry.index_lookups.incr();
                view.find(&key).is_some()
            }
            None => false,
        };
        let replaced = self.entries.insert(key, outcome).is_some();
        if in_view {
            // Overwriting a view-held key: the file bytes are no longer
            // the truth, so the verbatim re-save fast path must not run.
            self.shadowed = true;
        } else if self.view.is_some() && !replaced {
            self.overlay_new += 1;
        }
    }
}

/// Maps a parsed region/dominant label back to the `&'static str` the
/// outcome types carry. Only labels the evaluator can produce round-trip;
/// anything else rejects the line.
fn static_label(s: &str) -> Option<&'static str> {
    for requirement in Requirement::ALL {
        if requirement.label() == s {
            return Some(requirement.label());
        }
    }
    match s {
        "X" => Some("X"),
        "disk" => Some("disk"),
        "-" => Some("-"),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// The v2 binary encoding (docs/CACHE_FORMAT.md § "File layout").
// Scalars are little-endian; floats are raw IEEE-754 bits, so the
// round-trip through v2 is exact by construction. Strings are
// `u32 length + UTF-8 bytes`, unescaped. Each record is
// `u32 body length + body`, body = `key string, tag byte, payload`.
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            push_f64(out, v);
        }
        None => out.push(0),
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(
        out,
        u32::try_from(s.len()).expect("cache string exceeds u32 length"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Appends one entry's framed record (`u32` body length, then the body)
/// to `out`. The body is encoded in place and its length patched in.
fn push_record(out: &mut Vec<u8>, key: &str, outcome: &CellOutcome) {
    let start = out.len();
    push_u32(out, 0);
    push_str(out, key);
    match outcome {
        CellOutcome::Feasible(p) => {
            out.push(b'F');
            push_f64(out, p.buffer.bits());
            push_str(out, p.dominant);
            push_opt_f64(out, p.saving);
            push_f64(out, p.utilization.fraction());
            push_f64(out, p.lifetime.get());
            push_opt_f64(out, p.energy_per_bit.map(EnergyPerBit::joules_per_bit));
        }
        CellOutcome::Infeasible { region, detail } => {
            out.push(b'X');
            push_str(out, region);
            push_str(out, detail);
        }
        CellOutcome::EnergyOnly(p) => {
            out.push(b'D');
            push_opt_f64(out, p.break_even.map(DataSize::bits));
            push_opt_f64(out, p.buffer_for_saving.map(DataSize::bits));
            push_opt_f64(out, p.saving);
        }
        CellOutcome::Unmodelled { detail } => {
            out.push(b'U');
            push_str(out, detail);
        }
    }
    let len = u32::try_from(out.len() - start - 4).expect("cache record exceeds u32 length");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A bounds-checked cursor over a v2 byte stream. Every reader returns
/// `None` past the end — truncation surfaces as a parse failure, never
/// a panic.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn opt_f64(&mut self) -> Option<Option<f64>> {
        match self.take(1)?[0] {
            0 => Some(None),
            1 => self.f64().map(Some),
            _ => None,
        }
    }

    fn str_slice(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.str_slice().map(str::to_owned)
    }

    /// A region/dominant label, interned to the evaluator's static set.
    fn label(&mut self) -> Option<&'static str> {
        self.str_slice().and_then(static_label)
    }

    /// A record payload: the tag byte and its fields.
    fn outcome(&mut self) -> Option<CellOutcome> {
        Some(match self.take(1)?[0] {
            b'F' => CellOutcome::Feasible(PlannedPoint {
                buffer: DataSize::from_bits(self.f64()?),
                dominant: self.label()?,
                saving: self.opt_f64()?,
                utilization: Ratio::from_fraction(self.f64()?),
                lifetime: Years::new(self.f64()?),
                energy_per_bit: self.opt_f64()?.map(EnergyPerBit::from_joules_per_bit),
            }),
            b'X' => CellOutcome::Infeasible {
                region: self.label()?,
                detail: self.string()?,
            },
            b'D' => CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: self.opt_f64()?.map(DataSize::from_bits),
                buffer_for_saving: self.opt_f64()?.map(DataSize::from_bits),
                saving: self.opt_f64()?,
            }),
            b'U' => CellOutcome::Unmodelled {
                detail: self.string()?,
            },
            _ => return None,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes one record body. Trailing garbage within the body rejects the
/// record — the length prefix and the payload must agree exactly.
pub(crate) fn decode_record(body: &[u8]) -> Option<(String, CellOutcome)> {
    let mut r = ByteReader {
        bytes: body,
        pos: 0,
    };
    let key = r.string()?;
    let outcome = r.outcome()?;
    r.done().then_some((key, outcome))
}

/// Decodes only the outcome of one record body: the key bytes are
/// skipped, never copied or checked (a view's validation already read
/// them). Rejects trailing garbage like [`decode_record`].
pub(crate) fn decode_outcome(body: &[u8]) -> Option<CellOutcome> {
    let mut r = ByteReader {
        bytes: body,
        pos: 0,
    };
    let key_len = r.u32()? as usize;
    r.take(key_len)?;
    let outcome = r.outcome()?;
    r.done().then_some(outcome)
}

/// Leniently scans the records of a v2 file (`bytes` starts with
/// [`V2_MAGIC`]): every entry parsed before the first malformation is
/// kept, damage and everything after it is dropped. This reader never
/// consults the index, which lets it double as the flush-stream loader
/// (flush streams have no index at all).
///
/// The map is pre-sized from the header count, capped against the
/// honest minimum record footprint so a hostile count cannot balloon the
/// allocation past the actual file size.
fn parse_v2_lenient(bytes: &[u8]) -> HashMap<String, CellOutcome> {
    let mut r = ByteReader {
        bytes,
        pos: V2_MAGIC.len(),
    };
    let Some(count) = r.u64().and_then(|c| usize::try_from(c).ok()) else {
        return HashMap::new();
    };
    let mut entries = HashMap::with_capacity(count.min(bytes.len() / 10));
    for _ in 0..count {
        let entry = r
            .u32()
            .and_then(|len| r.take(len as usize))
            .and_then(decode_record);
        match entry {
            Some((key, outcome)) => {
                entries.insert(key, outcome);
            }
            None => break,
        }
    }
    entries
}

/// Lazy-view index probes and record decodes a merge made against
/// either cache, added to the target's counters in one step.
#[derive(Default)]
struct ViewTally {
    probes: u64,
    decoded: u64,
}

/// Resolves `key` in `cache` without touching its telemetry or its
/// kept decodes, tallying any view probe and decode.
fn fetch_quiet(cache: &ResultCache, key: &str, tally: &mut ViewTally) -> Option<CellOutcome> {
    if let Some(outcome) = cache.entries.get(key) {
        return Some(outcome.clone());
    }
    let view = cache.view.as_deref()?;
    tally.probes += 1;
    let outcome = view.outcome_at(view.find(key)?)?;
    tally.decoded += 1;
    Some(outcome)
}

/// Streams the v2 binary encoding (records then index) of sorted
/// entries, returning the bytes written.
fn write_v2(out: &mut impl io::Write, entries: &[(&str, &CellOutcome)]) -> io::Result<u64> {
    out.write_all(V2_MAGIC)?;
    out.write_all(&(entries.len() as u64).to_le_bytes())?;
    let mut offset = V2_MAGIC.len() as u64 + 8;
    let mut index: Vec<u64> = Vec::with_capacity(entries.len());
    let mut record = Vec::new();
    for (key, outcome) in entries {
        index.push(offset);
        record.clear();
        push_record(&mut record, key, outcome);
        out.write_all(&record)?;
        offset += record.len() as u64;
    }
    let index_offset = offset;
    for record_offset in &index {
        out.write_all(&record_offset.to_le_bytes())?;
    }
    out.write_all(&index_offset.to_le_bytes())?;
    Ok(offset + 8 * (index.len() as u64 + 1))
}

// ---------------------------------------------------------------------
// Incremental flush streams (docs/SHARD_PROTOCOL.md § "Flush files"):
// an append-only v2-record stream shard workers write between leases and
// the coordinator tails while the worker is still running.
// ---------------------------------------------------------------------

/// An append-only incremental writer of v2 cache records — the shard
/// workers' **flush stream**.
///
/// The file layout is a v2 prefix without the trailing index: magic,
/// `u64` record count, then length-prefixed records. Each [`CacheAppender::append`]
/// writes the new records at the end of the file *first* and only then
/// rewrites the count field, so a writer dying mid-append leaves the
/// count pointing at the last fully-flushed batch: the lenient
/// [`ResultCache::load_lazy`] reads exactly the valid prefix, and a
/// [`FlushReader`] tailing the stream drops the torn bytes. The strict
/// [`ResultCache::load_strict`] rejects flush streams (no index) —
/// deliberately, they are scratch, not interchange.
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
        file.write_all(V2_MAGIC)?;
        file.write_all(&0u64.to_le_bytes())?;
        Ok(CacheAppender { file, count: 0 })
    }

    /// Appends one batch of records and then commits it by rewriting the
    /// header count. Returns the number of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the batch is not committed (the
    /// count still covers only previously committed records).
    pub fn append<'a, I>(&mut self, entries: I) -> io::Result<usize>
    where
        I: IntoIterator<Item = (&'a str, &'a CellOutcome)>,
    {
        use std::io::Seek as _;
        let mut batch = Vec::new();
        let mut appended = 0usize;
        for (key, outcome) in entries {
            push_record(&mut batch, key, outcome);
            appended += 1;
        }
        if appended == 0 {
            return Ok(0);
        }
        self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(&batch)?;
        self.count += appended as u64;
        self.file.seek(io::SeekFrom::Start(V2_MAGIC.len() as u64))?;
        self.file.write_all(&self.count.to_le_bytes())?;
        Ok(appended)
    }

    /// Records committed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// What one [`FlushReader::poll`] yielded.
#[derive(Debug, Default)]
pub struct FlushPoll {
    /// Records fully flushed since the previous poll, in file order.
    pub records: Vec<(String, CellOutcome)>,
    /// A *complete* record failed to decode (or the magic is wrong): the
    /// length-prefixed stream cannot be resynchronised past damage, so
    /// the reader is permanently stuck — everything before the damage
    /// was returned, nothing after it ever will be.
    pub damaged: bool,
}

/// An incremental tail-reader over a [`CacheAppender`] flush stream,
/// tolerant of a writer that is still appending (or died mid-append).
///
/// Records are self-delimiting, so the reader ignores the header count
/// entirely: a length prefix promising more bytes than the file holds is
/// treated as *not flushed yet* and re-examined on the next poll — if the
/// writer is dead, those torn trailing bytes are simply never returned.
/// A complete record that fails to decode marks the stream damaged
/// (sticky; see [`FlushPoll::damaged`]).
#[derive(Debug)]
pub struct FlushReader {
    path: std::path::PathBuf,
    offset: u64,
    damaged: bool,
    /// The tail-read scratch buffer, reused across polls: the
    /// coordinator polls every heartbeat tick, and most polls read a
    /// few records (or nothing) — reallocating per poll is pure churn.
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

    /// Reads every record fully flushed since the last poll.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found" (a missing file is an
    /// empty poll — the writer just hasn't created it yet).
    pub fn poll(&mut self) -> io::Result<FlushPoll> {
        if self.damaged {
            return Ok(FlushPoll {
                records: Vec::new(),
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
            let header = V2_MAGIC.len() + 8;
            if buf.len() < header {
                return Ok(FlushPoll::default());
            }
            if !buf.starts_with(V2_MAGIC) {
                self.damaged = true;
                return Ok(FlushPoll {
                    records: Vec::new(),
                    damaged: true,
                });
            }
            pos = header;
        }
        let mut records = Vec::new();
        loop {
            let rest = &buf[pos..];
            let Some(len) = rest
                .get(..4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            else {
                break;
            };
            let Some(body) = rest.get(4..4 + len) else {
                break; // torn or still being written: retry next poll
            };
            match decode_record(body) {
                Some(entry) => {
                    records.push(entry);
                    pos += 4 + len;
                }
                None => {
                    self.damaged = true;
                    break;
                }
            }
        }
        self.offset += pos as u64;
        Ok(FlushPoll {
            records,
            damaged: self.damaged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GridExecutor;
    use crate::spec::ScenarioGrid;

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

    /// One entry through the v2 record encoding and back.
    fn round_trip(key: &str, outcome: &CellOutcome) -> (String, CellOutcome) {
        let mut record = Vec::new();
        push_record(&mut record, key, outcome);
        decode_record(&record[4..]).expect("record decodes")
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
        let mut seen_kinds = std::collections::HashSet::new();
        for (cell, outcome) in results.records() {
            let key = grid.dedup_key(&cell);
            let (parsed_key, parsed) = round_trip(&key, outcome);
            assert_eq!(parsed_key, key);
            assert_eq!(&parsed, outcome, "roundtrip drift for {key}");
            seen_kinds.insert(std::mem::discriminant(outcome));
        }
        // Feasible, infeasible and (masked-disk) energy-only all appear.
        assert_eq!(seen_kinds.len(), 3);
        // The fourth kind, `Unmodelled`, has no grid cell here; check its
        // encoding directly.
        let unmodelled = CellOutcome::Unmodelled {
            detail: "missing capability: wear".to_owned(),
        };
        assert_eq!(round_trip("k", &unmodelled).1, unmodelled);
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
        assert_eq!(round_trip("k", &outcome).1, outcome);
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

    /// Overwrites the outcome tag of record `ordinal` in saved v2 bytes
    /// with a byte no decoder accepts. Key framing, key order and the
    /// index stay intact, so only a payload decode notices.
    fn corrupt_tag(bytes: &mut [u8], ordinal: usize) {
        let u32_at =
            |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let mut pos = V2_MAGIC.len() + 8;
        for _ in 0..ordinal {
            pos += 4 + u32_at(pos);
        }
        let tag = pos + 8 + u32_at(pos + 4);
        bytes[tag] = b'?';
    }

    #[test]
    fn corrupt_lines_become_misses() {
        let path = temp_path("corrupt.cache");
        let mut cache = ResultCache::new();
        for key in ["a", "b", "c"] {
            cache.insert(key.to_owned(), unmodelled(key));
        }
        cache.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        corrupt_tag(&mut bytes, 1);
        fs::write(&path, &bytes).unwrap();

        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lazy.lookup("a"), Some(unmodelled("a")));
        assert_eq!(lazy.lookup("b"), None, "the damaged record is a miss");
        assert_eq!(lazy.lookup("c"), Some(unmodelled("c")));
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
        let outcome = CellOutcome::Unmodelled {
            detail: "x".to_owned(),
        };
        let mut a = ResultCache::new();
        a.insert("k1".to_owned(), outcome.clone());
        let mut b = ResultCache::new();
        b.insert("k1".to_owned(), outcome.clone());
        b.insert("k2".to_owned(), outcome);
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
        a.insert(
            "cell".to_owned(),
            CellOutcome::Unmodelled {
                detail: "ours".to_owned(),
            },
        );
        let mut b = ResultCache::new();
        b.insert(
            "cell".to_owned(),
            CellOutcome::Unmodelled {
                detail: "theirs".to_owned(),
            },
        );
        b.insert(
            "aaa-sorts-first".to_owned(),
            CellOutcome::Unmodelled {
                detail: "new".to_owned(),
            },
        );
        let conflict = a.merge(&b).unwrap_err();
        assert_eq!(conflict.key, "cell");
        assert!(conflict.ours.contains("ours"));
        assert!(conflict.theirs.contains("theirs"));
        assert!(conflict.to_string().contains("`cell`"));
        // Atomicity: the failed merge must not have touched the target —
        // not even with `other`'s non-conflicting, lower-sorting entry.
        assert_eq!(a.len(), 1);
        assert!(!a.contains_key("aaa-sorts-first"));
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
        cache.insert("k".to_owned(), unmodelled("ok"));
        cache.insert("l".to_owned(), unmodelled("broken"));
        cache.save(&corrupt).unwrap();
        let mut bytes = fs::read(&corrupt).unwrap();
        corrupt_tag(&mut bytes, 1);
        fs::write(&corrupt, &bytes).unwrap();
        match ResultCache::load_strict(&corrupt).unwrap_err() {
            CacheFileError::Malformed { line } => assert_eq!(line, 3),
            other => panic!("expected malformed line, got {other}"),
        }
        fs::remove_file(corrupt).unwrap();

        assert!(matches!(
            ResultCache::load_strict(temp_path("strict-missing.cache")).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    /// Files of another key generation (Debug-rendered keys, bare
    /// `v1`/`v2` headers) or of the retired v1 text encoding must never
    /// load as a silent total miss.
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
        for (path, header) in [
            (&gen1_v1, "memstream-grid-cache v1"),
            (&gen1_v2, "memstream-grid-cache v2"),
            (&text_v1, "memstream-grid-cache v1 k2"),
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
        assert_eq!(CACHE_HEADER, "memstream-grid-cache v2 k2");
        assert_eq!(V2_MAGIC, format!("{CACHE_HEADER}\n").as_bytes());
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
            warm.insert(
                "new-key".into(),
                CellOutcome::Unmodelled { detail: "d".into() },
            );
            assert!(warm.needs_save(), "an insert dirties the cache");
        }

        // A merge that only meets duplicates changes nothing; one that
        // adds an entry does.
        let mut warm = ResultCache::load_lazy(&path).unwrap();
        warm.merge(&cold).unwrap();
        assert!(!warm.needs_save());
        let mut extra = ResultCache::new();
        extra.insert(
            "zz-extra".into(),
            CellOutcome::Unmodelled { detail: "d".into() },
        );
        warm.merge(&extra).unwrap();
        assert!(warm.needs_save());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_load_that_dropped_damage_needs_its_save() {
        // A v2 file with its index torn off loads its records leniently,
        // but the file is not intact.
        let v2 = temp_path("damaged-v2.cache");
        let mut cache = ResultCache::new();
        cache.insert("k".into(), CellOutcome::Unmodelled { detail: "d".into() });
        cache.save(&v2).unwrap();
        let bytes = fs::read(&v2).unwrap();
        fs::write(&v2, &bytes[..bytes.len() - 16]).unwrap();
        let cache = ResultCache::load_lazy(&v2).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.needs_save());
        fs::remove_file(v2).unwrap();
    }

    /// A cache holding every outcome kind plus hostile keys/details:
    /// tabs, newlines and backslashes travel unescaped in v2 strings.
    fn hostile_cache() -> ResultCache {
        let grid = ScenarioGrid::paper_baseline(4);
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        cache.insert(
            "key\twith\ttabs\nand\\newlines".to_owned(),
            CellOutcome::Infeasible {
                region: "X",
                detail: "tab\there\nnewline\\backslash".to_owned(),
            },
        );
        cache.insert(
            "unmodelled".to_owned(),
            CellOutcome::Unmodelled {
                detail: "missing capability: wear".to_owned(),
            },
        );
        cache.insert(
            "energy-only".to_owned(),
            CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: Some(DataSize::from_kibibytes(3.5)),
                buffer_for_saving: None,
                saving: Some(0.5),
            }),
        );
        cache
    }

    #[test]
    fn lazy_view_hits_decode_in_place_and_match_the_eager_load() {
        let path = temp_path("view-hits.cache");
        hostile_cache().save(&path).unwrap();
        let eager = ResultCache::load_strict(&path).unwrap();
        let keys: Vec<String> = eager.keys().map(str::to_owned).collect();
        let metrics = Metrics::enabled();
        let decoded = || {
            metrics
                .snapshot()
                .counter("cache.records_decoded")
                .unwrap_or(0)
        };
        let mut lazy = ResultCache::load_lazy(&path).unwrap();
        lazy.set_metrics(&metrics);
        let len = lazy.len();
        assert_eq!(len, keys.len());

        assert!(keys.iter().all(|key| lazy.contains_key(key)));
        assert_eq!(decoded(), 0, "index probes decode nothing");

        let mut kinds = std::collections::HashSet::new();
        for key in &keys {
            let first = lazy.lookup(key).expect("every key hits");
            let second = lazy.lookup(key).expect("and hits again");
            assert_eq!(Some(&first), eager.get(key).as_ref(), "drift under {key:?}");
            assert_eq!(first, second, "repeat lookups agree under {key:?}");
            kinds.insert(std::mem::discriminant(&first));
        }
        assert_eq!(kinds.len(), 4, "every outcome kind went through a view hit");
        assert!(
            keys.iter().any(|key| key.contains('\t')),
            "hostile key covered"
        );
        assert_eq!((lazy.hits(), lazy.misses()), (2 * keys.len(), 0));
        assert_eq!(
            decoded(),
            2 * keys.len() as u64,
            "one in-place decode per hit, nothing memoized"
        );
        assert!(lazy.entries.is_empty(), "the overlay holds inserts only");
        assert_eq!(lazy.len(), len);
        assert!(!lazy.needs_save(), "an all-hit pass changes nothing");

        // A caller that re-reads cells asks for each record to decode once.
        let metrics = Metrics::enabled();
        let mut kept = ResultCache::load_lazy(&path).unwrap();
        kept.set_metrics(&metrics);
        kept.keep_decoded();
        for key in keys.iter().chain(&keys) {
            assert_eq!(kept.lookup(key), eager.get(key));
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
        let path = temp_path("v2-roundtrip.cache");
        let cache = hostile_cache();
        cache.save(&path).unwrap();
        assert!(
            fs::read(&path).unwrap().starts_with(V2_MAGIC),
            "v2 files carry the sniffable magic"
        );
        for loaded in [
            ResultCache::load_lazy(&path).unwrap(),
            ResultCache::load_strict(&path).unwrap(),
        ] {
            assert_eq!(loaded.len(), cache.len());
            for key in cache.keys() {
                assert_eq!(loaded.get(key), cache.get(key), "drift under key {key}");
            }
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_lenient_load_keeps_the_prefix_of_a_truncated_file() {
        let path = temp_path("v2-truncated.cache");
        let mut cache = ResultCache::new();
        for key in ["a", "b", "c"] {
            cache.insert(
                key.to_owned(),
                CellOutcome::Unmodelled {
                    detail: format!("detail {key}"),
                },
            );
        }
        cache.save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Keep the magic, the count and the first record only.
        let first_len = u32::from_le_bytes(
            bytes[V2_MAGIC.len() + 8..V2_MAGIC.len() + 12]
                .try_into()
                .unwrap(),
        ) as usize;
        fs::write(&path, &bytes[..V2_MAGIC.len() + 8 + 4 + first_len]).unwrap();

        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 1, "the intact prefix survives");
        assert!(lenient.contains_key("a"), "records sort by key");
        // Truncation tears off the record index entirely, so the strict
        // reader attributes the damage to the (garbage) trailer bytes.
        let len = fs::metadata(&path).unwrap().len();
        match ResultCache::load_strict(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => assert_eq!(offset, len - 8),
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_strict_load_verifies_the_record_index() {
        let path = temp_path("v2-bad-index.cache");
        hostile_cache().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // The records themselves are intact: the lenient reader falls
        // back to the record scan (which never consults the index) and
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
        for key in cache.keys() {
            assert_eq!(strict.get(key), cache.get(key));
        }
        fs::remove_file(path).unwrap();
    }

    fn unmodelled(detail: &str) -> CellOutcome {
        CellOutcome::Unmodelled {
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn flush_stream_is_incrementally_readable_and_leniently_loadable() {
        let path = temp_path("flush-basic.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let mut reader = FlushReader::new(&path);

        let (a, b, c) = (unmodelled("a"), unmodelled("b"), unmodelled("c"));
        assert_eq!(writer.append([("a", &a), ("b", &b)]).unwrap(), 2);
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged);
        assert_eq!(
            poll.records
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"]
        );

        // A second batch arrives only on the next poll — nothing is
        // returned twice.
        assert_eq!(writer.append([("c", &c)]).unwrap(), 1);
        assert_eq!(writer.count(), 3);
        let poll = reader.poll().unwrap();
        assert_eq!(poll.records.len(), 1);
        assert_eq!(poll.records[0].0, "c");
        assert!(reader.poll().unwrap().records.is_empty());

        // The stream doubles as a lenient warm file but is rejected by
        // the strict interchange reader (no index — scratch only).
        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 3);
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
        let (a, b) = (unmodelled("a"), unmodelled("b"));
        writer.append([("a", &a), ("b", &b)]).unwrap();
        let mut torn = 64u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xAB; 7]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&torn).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged, "a tear is not damage");
        assert_eq!(poll.records.len(), 2);
        // The tear never completes: later polls stay empty and undamaged.
        let poll = reader.poll().unwrap();
        assert!(poll.records.is_empty() && !poll.damaged);

        let lenient = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(lenient.len(), 2, "count covers only committed records");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_reader_resumes_once_a_partial_record_completes() {
        // The same byte split as a torn tail — but the writer is alive
        // and finishes the record, so the reader must pick it up whole.
        let path = temp_path("flush-resume.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let a = unmodelled("a");
        writer.append([("a", &a)]).unwrap();
        let full = fs::read(&path).unwrap();

        // Replay the file one byte at a time into a sibling path.
        let partial = temp_path("flush-resume-partial.cache");
        let mut reader = FlushReader::new(&partial);
        let mut seen = Vec::new();
        for end in 0..=full.len() {
            fs::write(&partial, &full[..end]).unwrap();
            let poll = reader.poll().unwrap();
            assert!(!poll.damaged, "a growing file is never damage");
            seen.extend(poll.records);
        }
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "a");
        for p in [path, partial] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn corrupt_flush_record_marks_the_stream_damaged_keeping_the_prefix() {
        let path = temp_path("flush-corrupt.cache");
        let mut writer = CacheAppender::create(&path).unwrap();
        let a = unmodelled("a");
        writer.append([("a", &a)]).unwrap();
        // A complete but undecodable record: well-formed length, garbage
        // body.
        let mut garbage = 8u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xAB; 8]);
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&garbage).unwrap();
        drop(raw);

        let mut reader = FlushReader::new(&path);
        let poll = reader.poll().unwrap();
        assert!(poll.damaged, "a decodable-length garbage record is damage");
        assert_eq!(poll.records.len(), 1, "the valid prefix is returned");
        // Damage is sticky: the writer appending more afterwards changes
        // nothing.
        writer.append([("b", &a)]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.damaged && poll.records.is_empty());
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
        assert!(poll.records.is_empty() && !poll.damaged);
        // A file shorter than the header is "not ready", not damage.
        fs::write(&path, &V2_MAGIC[..4]).unwrap();
        let poll = reader.poll().unwrap();
        assert!(poll.records.is_empty() && !poll.damaged);
        fs::remove_file(path).unwrap();
    }
}
