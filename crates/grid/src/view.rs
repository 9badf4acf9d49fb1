//! Lazy, index-backed reading of v3 cache files (`docs/CACHE_FORMAT.md`
//! § "Block index and lazy decode").
//!
//! A [`CacheView`] holds the raw file bytes plus the validated block
//! index and nothing else: opening one reads the magic, the count, the
//! trailing index and the trailer, checks that they agree with each
//! other and with the block framing, checks each block's structure, and
//! stops — **no outcome row is decoded**. A lookup finds its series'
//! block by one binary search over the (strictly ascending) series
//! tokens, then its row by a binary search over that block's rate
//! column, and a hit decodes only that row, in place. A warm start is
//! therefore proportional to the work actually requested, not to the
//! cache size.
//!
//! The validation performed by [`CacheView::open`] is the strict
//! loader's structural pass ([`ResultCache::load_strict`](crate::ResultCache::load_strict)
//! opens a view, then decodes every row): a view is only ever
//! constructed over a file whose index provably describes its blocks.
//! Consequently an unmodified view can be re-saved *verbatim* —
//! byte-for-byte — without decoding, which
//! [`ResultCache::save`](crate::ResultCache::save) exploits for warm-run
//! re-saves.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::block::{frame_at, Block, BlockMeta, Frame};
use crate::cache::{CacheFileError, V3_MAGIC};
use crate::eval::CellOutcome;

/// Reads a little-endian `u64` at `pos`, if the file holds one there.
fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let slice = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

/// The first line of a file, rendered lossily: how a refused file's
/// header is attributed.
pub(crate) fn header_line(bytes: &[u8]) -> String {
    let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
    String::from_utf8_lossy(first).into_owned()
}

/// One validated block of a view: where its body sits in the file, its
/// column layout, and the file-wide ordinal of its first row.
#[derive(Debug, Clone)]
pub(crate) struct IndexedBlock {
    body: std::ops::Range<usize>,
    meta: BlockMeta,
    first_row: usize,
}

/// Structurally validates a v3 cache file (`bytes` starts with the v3
/// magic) and returns its blocks, in file order.
///
/// Checked, in order: the count field is readable; the trailer points at
/// an index of exactly `count` entries sitting between the blocks and
/// the trailer; every index entry equals the offset where the framing
/// actually puts that block (blocks are contiguous — no gaps, no
/// overlap, none past the index); every block is structurally valid
/// and the series tokens are strictly ascending. Outcome rows are not
/// decoded — that is the entire point of the lazy path.
///
/// # Errors
///
/// [`CacheFileError::MalformedIndex`] at the byte offset of the damaged
/// structure (count, trailer, or index entry), or
/// [`CacheFileError::Malformed`] for a block whose body is invalid or
/// out of order.
pub(crate) fn validate_v3(bytes: &[u8]) -> Result<Vec<IndexedBlock>, CacheFileError> {
    debug_assert!(bytes.starts_with(V3_MAGIC));
    let header_end = V3_MAGIC.len() + 8;
    let Some(count) = u64_at(bytes, V3_MAGIC.len()).and_then(|c| usize::try_from(c).ok()) else {
        return Err(CacheFileError::MalformedIndex {
            offset: V3_MAGIC.len() as u64,
        });
    };
    if bytes.len() < header_end + 8 {
        // No room for the trailer: the index is torn off entirely.
        return Err(CacheFileError::MalformedIndex {
            offset: bytes.len() as u64,
        });
    }
    let trailer_pos = bytes.len() - 8;
    let index_offset = u64_at(bytes, trailer_pos).expect("trailer bounds checked");
    let expected_index = count
        .checked_mul(8)
        .and_then(|index_bytes| trailer_pos.checked_sub(index_bytes))
        .filter(|&off| off >= header_end);
    if expected_index != usize::try_from(index_offset).ok() || expected_index.is_none() {
        return Err(CacheFileError::MalformedIndex {
            offset: trailer_pos as u64,
        });
    }
    let index_offset = expected_index.expect("checked above");
    let records = &bytes[..index_offset];

    let mut blocks: Vec<IndexedBlock> = Vec::with_capacity(count);
    let mut cursor = header_end;
    let mut rows = 0usize;
    for ordinal in 0..count {
        let entry_pos = index_offset + 8 * ordinal;
        let recorded = u64_at(bytes, entry_pos).expect("index bounds checked");
        if recorded != cursor as u64 {
            return Err(CacheFileError::MalformedIndex {
                offset: entry_pos as u64,
            });
        }
        let (meta, body) = match frame_at(records, cursor) {
            Frame::Block(meta, body) => (meta, body),
            // The frame runs past the index (or off the file): the
            // index entry points at something that is not a block.
            Frame::Incomplete => {
                return Err(CacheFileError::MalformedIndex {
                    offset: entry_pos as u64,
                })
            }
            Frame::Damaged => return Err(CacheFileError::Malformed { block: ordinal }),
        };
        let block = Block::new(&bytes[body.clone()], meta);
        if let Some(prev) = blocks.last() {
            let prev = Block::new(&bytes[prev.body.clone()], prev.meta);
            if prev.series_bytes() >= block.series_bytes() {
                return Err(CacheFileError::Malformed { block: ordinal });
            }
        }
        cursor = body.end;
        blocks.push(IndexedBlock {
            body,
            meta,
            first_row: rows,
        });
        rows += block.len();
    }
    if cursor != index_offset {
        // Slack bytes between the last block and the index.
        return Err(CacheFileError::MalformedIndex {
            offset: index_offset as u64,
        });
    }
    Ok(blocks)
}

/// A lazy, read-only view of a v3 cache file: the raw bytes plus the
/// validated block index. See the module docs for the contract.
///
/// ```
/// use memstream_grid::{CacheView, CellOutcome, ResultCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("memstream-view-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("view.cache");
/// let mut cache = ResultCache::new();
/// let rate = 1024.0f64.to_bits();
/// cache.insert("series-a", rate, CellOutcome::Unmodelled { detail: "doc".into() });
/// cache.save(&path)?;
///
/// let view = CacheView::open(&path)?;
/// assert_eq!(view.len(), 1);
/// assert!(view.contains_key("series-a", rate)); // index probe, no decode
/// assert!(view.get("series-a", rate).is_some()); // decodes exactly one row
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
pub struct CacheView {
    bytes: Vec<u8>,
    blocks: Vec<IndexedBlock>,
    rows: usize,
}

impl fmt::Debug for CacheView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheView")
            .field("blocks", &self.blocks.len())
            .field("rows", &self.rows)
            .field("file_bytes", &self.bytes.len())
            .finish()
    }
}

/// A block of a view, with the file-wide ordinal of its first row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViewBlock<'a> {
    pub(crate) block: Block<'a>,
    pub(crate) first_row: usize,
}

impl CacheView {
    /// Opens a v3 cache file lazily: reads the bytes, validates the
    /// structure (magic, count, index, trailer, block framing, series
    /// and rate order) and decodes **nothing**.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not
    /// found"), [`CacheFileError::VersionMismatch`] if the file does not
    /// carry the v3 magic, and [`CacheFileError::MalformedIndex`] /
    /// [`CacheFileError::Malformed`] attributions for structural damage
    /// (see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let bytes = fs::read(path)?;
        if !bytes.starts_with(V3_MAGIC) {
            return Err(CacheFileError::VersionMismatch {
                found: header_line(&bytes),
            });
        }
        let blocks = validate_v3(&bytes)?;
        Ok(CacheView::from_validated(bytes, blocks))
    }

    /// Wraps already-validated bytes (`blocks` must come from
    /// [`validate_v3`] over the same buffer).
    pub(crate) fn from_validated(bytes: Vec<u8>, blocks: Vec<IndexedBlock>) -> Self {
        let rows = blocks.last().map_or(0, |b| b.first_row + b.meta.len());
        CacheView {
            bytes,
            blocks,
            rows,
        }
    }

    /// Number of entries (rows over all blocks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the file holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn at(&self, i: usize) -> ViewBlock<'_> {
        let indexed = &self.blocks[i];
        ViewBlock {
            block: Block::new(&self.bytes[indexed.body.clone()], indexed.meta),
            first_row: indexed.first_row,
        }
    }

    /// The block of `series`: one binary search over the series tokens,
    /// compared as raw bytes (exact, because they are stored strictly
    /// ascending).
    pub(crate) fn block(&self, series: &str) -> Option<ViewBlock<'_>> {
        let i = self
            .blocks
            .binary_search_by(|indexed| {
                Block::new(&self.bytes[indexed.body.clone()], indexed.meta)
                    .series_bytes()
                    .cmp(series.as_bytes())
            })
            .ok()?;
        Some(self.at(i))
    }

    /// Every block, in file (series token) order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = ViewBlock<'_>> + '_ {
        (0..self.blocks.len()).map(|i| self.at(i))
    }

    /// Whether (`series`, `rate_bits`) is present — index probes, no
    /// decode.
    #[must_use]
    pub fn contains_key(&self, series: &str, rate_bits: u64) -> bool {
        self.block(series)
            .is_some_and(|b| b.block.find(rate_bits).is_some())
    }

    /// Decodes the outcome stored under (`series`, `rate_bits`), if
    /// present and well formed. Exactly one row is decoded.
    #[must_use]
    pub fn get(&self, series: &str, rate_bits: u64) -> Option<CellOutcome> {
        let b = self.block(series)?;
        b.block.outcome(b.block.find(rate_bits)?)
    }

    /// Iterates the keys in file order (series, then rate bits,
    /// ascending).
    pub fn keys(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.blocks().flat_map(|b| {
            let series = b.block.series();
            (0..b.block.len()).map(move |i| (series, b.block.rate(i)))
        })
    }

    /// The raw file bytes the view was opened over — the verbatim
    /// re-save payload.
    pub(crate) fn file_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memstream-grid-view-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// One entry per series token, all at rate bits 7.
    fn fixture(series: &[&str]) -> ResultCache {
        let mut cache = ResultCache::new();
        for s in series {
            cache.insert(
                s,
                7,
                CellOutcome::Unmodelled {
                    detail: format!("detail {s}"),
                },
            );
        }
        cache
    }

    #[test]
    fn view_probes_and_decodes_match_the_eager_map() {
        let path = temp_path("view-basic.cache");
        let cache = fixture(&["alpha", "beta", "gamma"]);
        cache.save(&path).unwrap();
        let view = CacheView::open(&path).unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(
            view.keys().collect::<Vec<_>>(),
            [("alpha", 7), ("beta", 7), ("gamma", 7)]
        );
        for s in ["alpha", "beta", "gamma"] {
            assert!(view.contains_key(s, 7));
            assert!(!view.contains_key(s, 8));
            assert_eq!(view.get(s, 7), cache.get(s, 7), "drift under {s}");
        }
        assert!(!view.contains_key("delta", 7));
        assert!(view.get("delta", 7).is_none());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_rejects_v1_and_missing_files() {
        let path = temp_path("view-v1.cache");
        fs::write(&path, "memstream-grid-cache v1 k2\na\tU\tdetail a\n").unwrap();
        assert!(matches!(
            CacheView::open(&path).unwrap_err(),
            CacheFileError::VersionMismatch { .. }
        ));
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            CacheView::open(&path).unwrap_err(),
            CacheFileError::Io(_)
        ));
    }

    #[test]
    fn torn_index_is_attributed_by_byte_offset() {
        // Truncating mid-index leaves intact blocks but a trailer that
        // can no longer describe an index of `count` entries.
        let path = temp_path("view-torn-index.cache");
        fixture(&["a", "b", "c"]).save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        let torn = &bytes[..bytes.len() - 12]; // lose the trailer + part of the index
        fs::write(&path, torn).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, torn.len() as u64 - 8, "attributed at the trailer");
            }
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn index_entry_past_eof_is_attributed_by_byte_offset() {
        let path = temp_path("view-index-past-eof.cache");
        fixture(&["a", "b", "c"]).save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Patch the second index entry to point far past the end.
        let trailer_pos = bytes.len() - 8;
        let index_offset = trailer_pos - 3 * 8;
        let entry_pos = index_offset + 8;
        bytes[entry_pos..entry_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::MalformedIndex { offset } => {
                assert_eq!(offset, entry_pos as u64, "attributed at the bad entry");
            }
            other => panic!("expected index damage, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_of_order_keys_are_attributed_to_the_record() {
        // Swap two blocks *and* their index entries: framing stays
        // coherent, but the series order the block search relies on is
        // gone — the view must refuse, naming the second block.
        let path = temp_path("view-unsorted.cache");
        let (pa, pb) = (temp_path("view-unsorted-a"), temp_path("view-unsorted-b"));
        fixture(&["aa"]).save(&pa).unwrap();
        fixture(&["bb"]).save(&pb).unwrap();
        let (ba, bb) = (fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        let block = |bytes: &[u8]| {
            let start = V3_MAGIC.len() + 8;
            let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
            bytes[start..start + 4 + len].to_vec()
        };
        let (ra, rb) = (block(&ba), block(&bb));
        assert_eq!(ra.len(), rb.len(), "fixtures frame identically");
        let mut swapped = Vec::new();
        swapped.extend_from_slice(V3_MAGIC);
        swapped.extend_from_slice(&2u64.to_le_bytes());
        let first = swapped.len();
        swapped.extend_from_slice(&rb);
        let second = swapped.len();
        swapped.extend_from_slice(&ra);
        let index_offset = swapped.len() as u64;
        swapped.extend_from_slice(&(first as u64).to_le_bytes());
        swapped.extend_from_slice(&(second as u64).to_le_bytes());
        swapped.extend_from_slice(&index_offset.to_le_bytes());
        fs::write(&path, &swapped).unwrap();
        match CacheView::open(&path).unwrap_err() {
            CacheFileError::Malformed { block } => assert_eq!(block, 1, "second block"),
            other => panic!("expected block attribution, got {other}"),
        }
        for p in [path, pa, pb] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn empty_v2_file_is_a_valid_empty_view() {
        // (The name predates the v3 encoding: an empty cache file is a
        // valid, empty view.)
        let path = temp_path("view-empty.cache");
        ResultCache::new().save(&path).unwrap();
        let view = CacheView::open(&path).unwrap();
        assert!(view.is_empty());
        assert!(!view.contains_key("anything", 0));
        fs::remove_file(path).unwrap();
    }
}
