//! Lazy, index-backed reading of v2 cache files (`docs/CACHE_FORMAT.md`
//! § "Record index and lazy decode").
//!
//! A [`CacheView`] holds the raw file bytes plus the validated record
//! index and nothing else: opening one reads the magic, the count, the
//! trailing index and the trailer, checks that they agree with each
//! other and with the record framing, and stops — **no record payload is
//! decoded**. Key probes binary-search the index (keys are stored in
//! strictly ascending byte order, so raw-byte comparison is exact), and
//! a hit decodes only its record's outcome, in place from the recorded
//! offset: the key bytes are skipped and nothing is kept, so a cell
//! looked up twice decodes twice. This is what makes a warm start
//! proportional to the work actually requested instead of the cache
//! size: a fully-warm exploration that only *plans* against the cache
//! touches the index alone, and a fully-warm run decodes one outcome
//! per hit. v2 is the only cache encoding, so this is the read path of
//! every `--cache` re-run.
//!
//! The validation performed by [`CacheView::open`] is the strict
//! loader's structural pass ([`ResultCache::load_strict`](crate::ResultCache::load_strict)
//! opens a view, then decodes every record): a view is only ever
//! constructed over a file whose index provably describes its records.
//! Consequently an unmodified view can be re-saved *verbatim* —
//! byte-for-byte — without decoding, which
//! [`ResultCache::save`](crate::ResultCache::save) exploits for warm-run
//! re-saves.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::cache::{decode_outcome, CacheFileError, V2_MAGIC};
use crate::eval::CellOutcome;

/// Reads a little-endian `u32` at `pos`, if the file holds one there.
fn u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let slice = bytes.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u64` at `pos`, if the file holds one there.
fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let slice = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

/// The body slice (everything after the `u32` length prefix) of the
/// record starting at `offset`. Only valid for offsets produced by
/// [`validate_v2`] over the same bytes.
pub(crate) fn record_body(bytes: &[u8], offset: usize) -> &[u8] {
    let len = u32_at(bytes, offset).expect("validated record offset") as usize;
    &bytes[offset + 4..offset + 4 + len]
}

/// The first line of a file, rendered lossily: how a refused file's
/// header is attributed.
pub(crate) fn header_line(bytes: &[u8]) -> String {
    let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
    String::from_utf8_lossy(first).into_owned()
}

/// The raw key bytes of a record body (`u32 length + UTF-8`), if the
/// framing is intact.
fn body_key(body: &[u8]) -> Option<&[u8]> {
    let len = u32_at(body, 0)? as usize;
    body.get(4..4usize.checked_add(len)?)
}

/// Structurally validates a v2 cache file (`bytes` starts with the v2
/// magic) and returns the byte offset of every record, in file order.
///
/// Checked, in order: the count field is readable; the trailer points at
/// an index of exactly `count` entries sitting between the records and
/// the trailer; every index entry equals the offset where the record
/// framing actually puts that record (records are contiguous — no gaps,
/// no overlap, none past the index); every record's key is readable
/// UTF-8 and the keys are strictly ascending. Record *payloads* are not
/// decoded — that is the entire point of the lazy path.
///
/// # Errors
///
/// [`CacheFileError::MalformedIndex`] at the byte offset of the damaged
/// structure (count, trailer, or index entry), or
/// [`CacheFileError::Malformed`] for a record whose key framing is
/// broken or out of order (attributed like the strict record decoders:
/// `record ordinal + 2`).
pub(crate) fn validate_v2(bytes: &[u8]) -> Result<Vec<usize>, CacheFileError> {
    debug_assert!(bytes.starts_with(V2_MAGIC));
    let header_end = V2_MAGIC.len() + 8;
    let Some(count) = u64_at(bytes, V2_MAGIC.len()).and_then(|c| usize::try_from(c).ok()) else {
        return Err(CacheFileError::MalformedIndex {
            offset: V2_MAGIC.len() as u64,
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

    let mut offsets = Vec::with_capacity(count);
    let mut cursor = header_end;
    let mut prev_key: Option<&[u8]> = None;
    for ordinal in 0..count {
        let entry_pos = index_offset + 8 * ordinal;
        let recorded = u64_at(bytes, entry_pos).expect("index bounds checked");
        if recorded != cursor as u64 {
            return Err(CacheFileError::MalformedIndex {
                offset: entry_pos as u64,
            });
        }
        let body_end = u32_at(bytes, cursor)
            .and_then(|len| cursor.checked_add(4)?.checked_add(len as usize))
            .filter(|&end| end <= index_offset);
        let Some(body_end) = body_end else {
            // The framed record runs past the index (or off the file):
            // the index entry points at something that is not a record.
            return Err(CacheFileError::MalformedIndex {
                offset: entry_pos as u64,
            });
        };
        let key = body_key(&bytes[cursor + 4..body_end])
            .filter(|key| std::str::from_utf8(key).is_ok())
            .ok_or(CacheFileError::Malformed { line: ordinal + 2 })?;
        if prev_key.is_some_and(|prev| prev >= key) {
            return Err(CacheFileError::Malformed { line: ordinal + 2 });
        }
        prev_key = Some(key);
        offsets.push(cursor);
        cursor = body_end;
    }
    if cursor != index_offset {
        // Slack bytes between the last record and the index.
        return Err(CacheFileError::MalformedIndex {
            offset: index_offset as u64,
        });
    }
    Ok(offsets)
}

/// A lazy, read-only view of a v2 cache file: the raw bytes plus the
/// validated record index. See the module docs for the contract.
///
/// ```
/// use memstream_grid::{CacheView, ResultCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("memstream-view-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("view.cache");
/// let mut cache = ResultCache::new();
/// cache.insert("cell-a".into(), memstream_grid::CellOutcome::Unmodelled {
///     detail: "doc".into(),
/// });
/// cache.save(&path)?;
///
/// let view = CacheView::open(&path)?;
/// assert_eq!(view.len(), 1);
/// assert!(view.contains_key("cell-a")); // index probe, no decode
/// assert!(view.get("cell-a").is_some()); // decodes exactly one record
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
pub struct CacheView {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl fmt::Debug for CacheView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheView")
            .field("records", &self.offsets.len())
            .field("file_bytes", &self.bytes.len())
            .finish()
    }
}

impl CacheView {
    /// Opens a v2 cache file lazily: reads the bytes, validates the
    /// structure (magic, count, index, trailer, record framing, key
    /// order) and decodes **nothing**.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] on any read failure (including "not
    /// found"), [`CacheFileError::VersionMismatch`] if the file does not
    /// carry the v2 magic, and [`CacheFileError::MalformedIndex`] /
    /// [`CacheFileError::Malformed`] attributions for structural damage
    /// (see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheFileError> {
        let bytes = fs::read(path)?;
        if !bytes.starts_with(V2_MAGIC) {
            return Err(CacheFileError::VersionMismatch {
                found: header_line(&bytes),
            });
        }
        let offsets = validate_v2(&bytes)?;
        Ok(CacheView { bytes, offsets })
    }

    /// Wraps already-validated bytes (offsets must come from
    /// [`validate_v2`] over the same buffer).
    pub(crate) fn from_validated(bytes: Vec<u8>, offsets: Vec<usize>) -> Self {
        CacheView { bytes, offsets }
    }

    /// Number of records in the file (from the validated index).
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the file holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Binary-searches the index for `key`, returning its record
    /// ordinal. Compares raw key bytes — exact, because v2 stores keys
    /// in strictly ascending byte order.
    pub(crate) fn find(&self, key: &str) -> Option<usize> {
        self.offsets
            .binary_search_by(|&offset| {
                body_key(record_body(&self.bytes, offset))
                    .expect("validated key framing")
                    .cmp(key.as_bytes())
            })
            .ok()
    }

    /// Whether `key` is present — an index probe, no decode.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// Decodes the outcome of the record at `ordinal` in place: the key
    /// bytes are skipped, no key `String` is built. `None` if the
    /// payload is malformed — structural validation does not cover
    /// payloads.
    pub(crate) fn outcome_at(&self, ordinal: usize) -> Option<CellOutcome> {
        decode_outcome(record_body(&self.bytes, self.offsets[ordinal]))
    }

    /// Decodes the outcome stored under `key`, if present and well
    /// formed. Exactly one record's outcome is decoded.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<CellOutcome> {
        self.outcome_at(self.find(key)?)
    }

    /// The key at `ordinal`, straight from the file bytes (no decode).
    pub(crate) fn key_at(&self, ordinal: usize) -> &str {
        let key = body_key(record_body(&self.bytes, self.offsets[ordinal]))
            .expect("validated key framing");
        std::str::from_utf8(key).expect("validated UTF-8 key")
    }

    /// Iterates the keys in file order (which is sorted order).
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.offsets.len()).map(|ordinal| self.key_at(ordinal))
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

    fn fixture(keys: &[&str]) -> ResultCache {
        let mut cache = ResultCache::new();
        for key in keys {
            cache.insert(
                (*key).to_owned(),
                CellOutcome::Unmodelled {
                    detail: format!("detail {key}"),
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
        assert_eq!(view.keys().collect::<Vec<_>>(), ["alpha", "beta", "gamma"]);
        for key in ["alpha", "beta", "gamma"] {
            assert!(view.contains_key(key));
            assert_eq!(view.get(key), cache.get(key), "drift under {key}");
        }
        assert!(!view.contains_key("delta"));
        assert!(view.get("delta").is_none());
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
        // Truncating mid-index leaves intact records but a trailer that
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
        // Swap two records *and* their index entries: framing stays
        // coherent, but the sort invariant binary search relies on is
        // gone — the view must refuse.
        let path = temp_path("view-unsorted.cache");
        let a = fixture(&["aa"]);
        let b = fixture(&["bb"]);
        let (pa, pb) = (temp_path("view-unsorted-a"), temp_path("view-unsorted-b"));
        a.save(&pa).unwrap();
        b.save(&pb).unwrap();
        let (ba, bb) = (fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        let record = |bytes: &[u8]| {
            let start = V2_MAGIC.len() + 8;
            let len = u32_at(bytes, start).unwrap() as usize;
            bytes[start..start + 4 + len].to_vec()
        };
        let (ra, rb) = (record(&ba), record(&bb));
        assert_eq!(ra.len(), rb.len(), "fixtures frame identically");
        let mut swapped = Vec::new();
        swapped.extend_from_slice(V2_MAGIC);
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
            CacheFileError::Malformed { line } => assert_eq!(line, 3, "second record"),
            other => panic!("expected record attribution, got {other}"),
        }
        for p in [path, pa, pb] {
            fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn empty_v2_file_is_a_valid_empty_view() {
        let path = temp_path("view-empty.cache");
        ResultCache::new().save(&path).unwrap();
        let view = CacheView::open(&path).unwrap();
        assert!(view.is_empty());
        assert!(!view.contains_key("anything"));
        fs::remove_file(path).unwrap();
    }
}
