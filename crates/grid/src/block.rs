//! The v3 series block (`docs/CACHE_FORMAT.md` § "Blocks"): one rate
//! series — a device, workload, goal and `dram`/`pol` suffix — stored
//! column-wise.
//!
//! A block holds its series token once, a column of rate bits sorted
//! strictly ascending, a column of fixed-width outcome rows, and a table
//! of the variable-length `Infeasible`/`Unmodelled` detail strings,
//! de-duplicated within the block. Cache files and shard flush streams
//! are both sequences of these blocks; only files add a block index.
//!
//! Scalars are little-endian and floats raw IEEE-754 bits, so a round
//! trip is exact by construction: NaN payloads and signed zeros survive.
//! Parsing a block ([`parse_block`]) checks its structure only — framing,
//! UTF-8, rate order, detail table — and decodes no row; a row is
//! decoded on demand ([`Block::outcome`]) and a malformed one reads as
//! `None`.

use std::collections::HashMap;

use memstream_units::{DataSize, EnergyPerBit, Ratio, Years};

use crate::eval::{CellOutcome, EnergyOnlyPoint, PlannedPoint};

/// Bytes of one outcome row: tag, presence bits, label index, and five
/// 8-byte slots.
pub(crate) const ROW_BYTES: usize = 3 + 8 * SLOTS;
const SLOTS: usize = 5;

/// The region/dominant labels a row can carry, by index. The order is
/// part of the format: append only.
const LABELS: [&str; 8] = ["E", "C", "Lsp", "Lpb", "Lpe", "X", "disk", "-"];
/// The label index of a label outside [`LABELS`]: written so that the
/// row fails to decode (a miss), as an unknown label always has.
const UNKNOWN_LABEL: u8 = u8::MAX;

fn label_index(label: &str) -> u8 {
    LABELS
        .iter()
        .position(|&known| known == label)
        .map_or(UNKNOWN_LABEL, |i| i as u8)
}

fn u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let slice = bytes.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

fn u64_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let slice = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

/// One entry's fixed-width row. `detail` is the entry's index into the
/// block's detail table (ignored by `Feasible`/`EnergyOnly`).
fn encode_row(outcome: &CellOutcome, detail: u32) -> [u8; ROW_BYTES] {
    let mut slots = [0u64; SLOTS];
    let mut present = 0u8;
    let mut opt = |slot: &mut u64, bit: u8, value: Option<f64>| {
        if let Some(value) = value {
            present |= bit;
            *slot = value.to_bits();
        }
    };
    let (tag, label) = match outcome {
        CellOutcome::Feasible(p) => {
            let [buffer, saving, utilization, lifetime, energy] = &mut slots;
            *buffer = p.buffer.bits().to_bits();
            opt(saving, 1, p.saving);
            *utilization = p.utilization.fraction().to_bits();
            *lifetime = p.lifetime.get().to_bits();
            opt(
                energy,
                2,
                p.energy_per_bit.map(EnergyPerBit::joules_per_bit),
            );
            (b'F', label_index(p.dominant))
        }
        CellOutcome::EnergyOnly(p) => {
            let [break_even, for_saving, saving, _, _] = &mut slots;
            opt(break_even, 1, p.break_even.map(DataSize::bits));
            opt(for_saving, 2, p.buffer_for_saving.map(DataSize::bits));
            opt(saving, 4, p.saving);
            (b'D', 0)
        }
        CellOutcome::Infeasible { region, .. } => {
            slots[0] = u64::from(detail);
            (b'X', label_index(region))
        }
        CellOutcome::Unmodelled { .. } => {
            slots[0] = u64::from(detail);
            (b'U', 0)
        }
    };
    let mut row = [0u8; ROW_BYTES];
    row[0] = tag;
    row[1] = present;
    row[2] = label;
    for (i, slot) in slots.iter().enumerate() {
        row[3 + 8 * i..11 + 8 * i].copy_from_slice(&slot.to_le_bytes());
    }
    row
}

fn detail_of(outcome: &CellOutcome) -> Option<&str> {
    match outcome {
        CellOutcome::Infeasible { detail, .. } | CellOutcome::Unmodelled { detail } => Some(detail),
        CellOutcome::Feasible(_) | CellOutcome::EnergyOnly(_) => None,
    }
}

/// The bytes the merge conflict rule compares: the outcome's row with
/// its detail index zeroed, then its labels and its detail string. Two
/// outcomes are duplicates iff these are equal — so `0.0` and `-0.0`,
/// or two NaNs with different payloads, conflict.
pub(crate) fn outcome_bytes(outcome: &CellOutcome, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&encode_row(outcome, 0));
    let label = match outcome {
        CellOutcome::Feasible(p) => p.dominant,
        CellOutcome::Infeasible { region, .. } => region,
        CellOutcome::EnergyOnly(_) | CellOutcome::Unmodelled { .. } => "",
    };
    out.extend_from_slice(label.as_bytes());
    out.push(0);
    out.extend_from_slice(detail_of(outcome).unwrap_or_default().as_bytes());
}

/// The framed size of `outcome` in a block: rate, row and its detail
/// bytes (counted as if unshared) — the `merge_bytes` measure.
pub(crate) fn entry_bytes(outcome: &CellOutcome) -> u64 {
    (8 + ROW_BYTES + detail_of(outcome).map_or(0, |d| 4 + d.len())) as u64
}

/// Appends one framed block (`u32` body length, then the body) holding
/// `entries`, which must be sorted strictly ascending by rate bits.
///
/// # Panics
///
/// Panics if the body would exceed `u32` framing (about 70 million
/// rows in one series), or if `entries` is not strictly ascending.
pub(crate) fn encode_block(out: &mut Vec<u8>, series: &str, entries: &[(u64, &CellOutcome)]) {
    debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    let to_u32 = |n: usize| u32::try_from(n).expect("cache block exceeds u32 framing");
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&to_u32(series.len()).to_le_bytes());
    out.extend_from_slice(series.as_bytes());
    out.extend_from_slice(&to_u32(entries.len()).to_le_bytes());
    let mut details: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    let rows: Vec<[u8; ROW_BYTES]> = entries
        .iter()
        .map(|(_, outcome)| {
            let detail = detail_of(outcome).map_or(0, |d| {
                *index.entry(d).or_insert_with(|| {
                    details.push(d);
                    to_u32(details.len() - 1)
                })
            });
            encode_row(outcome, detail)
        })
        .collect();
    out.extend_from_slice(&to_u32(details.len()).to_le_bytes());
    for (rate, _) in entries {
        out.extend_from_slice(&rate.to_le_bytes());
    }
    for row in &rows {
        out.extend_from_slice(row);
    }
    let mut end = 0usize;
    for detail in &details {
        end += detail.len();
        out.extend_from_slice(&to_u32(end).to_le_bytes());
    }
    for detail in &details {
        out.extend_from_slice(detail.as_bytes());
    }
    let len = to_u32(out.len() - start - 4);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Where a structurally valid block's columns sit, as offsets into its
/// body (the bytes after the `u32` length prefix).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockMeta {
    series_end: usize,
    len: usize,
    details: usize,
    rates: usize,
    rows: usize,
    ends: usize,
    blob: usize,
}

const SERIES_START: usize = 4;

impl BlockMeta {
    /// Entries in the block.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Structurally validates one block body: the framing adds up exactly,
/// the series token and detail strings are UTF-8, the rate column is
/// strictly ascending and the detail ends are non-decreasing. Decodes
/// no row.
pub(crate) fn parse_block(body: &[u8]) -> Option<BlockMeta> {
    let series_end = SERIES_START.checked_add(u32_at(body, 0)? as usize)?;
    std::str::from_utf8(body.get(SERIES_START..series_end)?).ok()?;
    let len = u32_at(body, series_end)? as usize;
    let details = u32_at(body, series_end + 4)? as usize;
    let rates = series_end + 8;
    let rows = rates.checked_add(len.checked_mul(8)?)?;
    let ends = rows.checked_add(len.checked_mul(ROW_BYTES)?)?;
    let blob = ends.checked_add(details.checked_mul(4)?)?;
    let blob_len = match details {
        0 => 0,
        d => u32_at(body, ends + 4 * (d - 1))? as usize,
    };
    if blob.checked_add(blob_len)? != body.len() {
        return None;
    }
    let meta = BlockMeta {
        series_end,
        len,
        details,
        rates,
        rows,
        ends,
        blob,
    };
    let text = std::str::from_utf8(&body[blob..]).ok()?;
    let mut prev_end = 0usize;
    for j in 0..details {
        let end = u32_at(body, ends + 4 * j).expect("bounds checked") as usize;
        if end < prev_end || !text.is_char_boundary(end) {
            return None;
        }
        prev_end = end;
    }
    let block = Block { body, meta };
    if (1..len).any(|i| block.rate(i - 1) >= block.rate(i)) {
        return None;
    }
    Some(meta)
}

/// A structurally valid block: its body bytes and column offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    body: &'a [u8],
    meta: BlockMeta,
}

impl<'a> Block<'a> {
    /// Wraps a body [`parse_block`] accepted as `meta`.
    pub(crate) fn new(body: &'a [u8], meta: BlockMeta) -> Self {
        Block { body, meta }
    }

    /// The series token bytes (validated UTF-8).
    pub(crate) fn series_bytes(&self) -> &'a [u8] {
        &self.body[SERIES_START..self.meta.series_end]
    }

    pub(crate) fn series(&self) -> &'a str {
        std::str::from_utf8(self.series_bytes()).expect("validated series token")
    }

    pub(crate) fn len(&self) -> usize {
        self.meta.len()
    }

    /// The rate bits of row `i`.
    pub(crate) fn rate(&self, i: usize) -> u64 {
        u64_at(self.body, self.meta.rates + 8 * i).expect("validated rate column")
    }

    /// Binary-searches the rate column for `rate`, returning its row.
    pub(crate) fn find(&self, rate: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.meta.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rate(mid).cmp(&rate) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    fn detail(&self, index: u64) -> Option<String> {
        let j = usize::try_from(index)
            .ok()
            .filter(|&j| j < self.meta.details)?;
        let end = u32_at(self.body, self.meta.ends + 4 * j)? as usize;
        let start = match j {
            0 => 0,
            j => u32_at(self.body, self.meta.ends + 4 * (j - 1))? as usize,
        };
        let text = &self.body[self.meta.blob..];
        Some(std::str::from_utf8(&text[start..end]).ok()?.to_owned())
    }

    /// Decodes row `i` in place; `None` if the row is malformed (an
    /// unknown tag, label, presence bit or detail index).
    pub(crate) fn outcome(&self, i: usize) -> Option<CellOutcome> {
        let at = self.meta.rows + ROW_BYTES * i;
        let row = &self.body[at..at + ROW_BYTES];
        let (tag, present, label) = (row[0], row[1], row[2]);
        let slot = |k: usize| u64::from_le_bytes(row[3 + 8 * k..11 + 8 * k].try_into().expect("8"));
        let float = |k: usize| f64::from_bits(slot(k));
        let opt = |k: usize, bit: u8| (present & bit != 0).then(|| float(k));
        let label = || LABELS.get(usize::from(label)).copied();
        let allowed = match tag {
            b'F' => 0b11,
            b'D' => 0b111,
            _ => 0,
        };
        if present & !allowed != 0 {
            return None;
        }
        // The unit constructors panic on out-of-domain values; a damaged
        // row must read as `None` instead.
        let size = |v: f64| DataSize::try_from_bits(v).ok();
        // An optional size: `Some(None)` when absent, `None` when invalid.
        let opt_size = |k: usize, bit: u8| match opt(k, bit) {
            None => Some(None),
            Some(v) => size(v).map(Some),
        };
        Some(match tag {
            b'F' => CellOutcome::Feasible(PlannedPoint {
                buffer: size(float(0))?,
                dominant: label()?,
                saving: opt(1, 1),
                utilization: Ratio::try_from_fraction(float(2)).ok()?,
                lifetime: Some(float(3)).filter(|y| *y >= 0.0).map(Years::new)?,
                energy_per_bit: match opt(4, 2) {
                    Some(j) if !(j.is_finite() && j >= 0.0) => return None,
                    j => j.map(EnergyPerBit::from_joules_per_bit),
                },
            }),
            b'D' => CellOutcome::EnergyOnly(EnergyOnlyPoint {
                break_even: opt_size(0, 1)?,
                buffer_for_saving: opt_size(1, 2)?,
                saving: opt(2, 4),
            }),
            b'X' => CellOutcome::Infeasible {
                region: label()?,
                detail: self.detail(slot(0))?,
            },
            b'U' => CellOutcome::Unmodelled {
                detail: self.detail(slot(0))?,
            },
            _ => return None,
        })
    }

    /// Every row decoded, or `None` at the first malformed one.
    pub(crate) fn decode_all(&self) -> Option<Vec<(u64, CellOutcome)>> {
        (0..self.len())
            .map(|i| Some((self.rate(i), self.outcome(i)?)))
            .collect()
    }
}

/// What the bytes at one position of a block stream hold.
#[derive(Debug)]
pub(crate) enum Frame {
    /// A complete, structurally valid block: its layout and body range.
    Block(BlockMeta, std::ops::Range<usize>),
    /// The bytes end before the frame does: torn, or still being
    /// written.
    Incomplete,
    /// A complete frame whose body is not a valid block.
    Damaged,
}

/// Reads the framed block (`u32` body length, then the body) at `pos`.
pub(crate) fn frame_at(bytes: &[u8], pos: usize) -> Frame {
    let Some(len) = u32_at(bytes, pos) else {
        return Frame::Incomplete;
    };
    let start = pos + 4;
    let Some(end) = start
        .checked_add(len as usize)
        .filter(|&e| e <= bytes.len())
    else {
        return Frame::Incomplete;
    };
    match parse_block(&bytes[start..end]) {
        Some(meta) => Frame::Block(meta, start..end),
        None => Frame::Damaged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(series: &str, entries: &[(u64, CellOutcome)]) -> Vec<u8> {
        let refs: Vec<(u64, &CellOutcome)> = entries.iter().map(|(r, o)| (*r, o)).collect();
        let mut out = Vec::new();
        encode_block(&mut out, series, &refs);
        out
    }

    fn decoded(bytes: &[u8]) -> (String, Vec<(u64, CellOutcome)>) {
        let Frame::Block(meta, range) = frame_at(bytes, 0) else {
            panic!("not a block");
        };
        assert_eq!(range.end, bytes.len());
        let block = Block::new(&bytes[range], meta);
        (block.series().to_owned(), block.decode_all().unwrap())
    }

    #[test]
    fn details_are_shared_within_a_block() {
        let detail = "x".repeat(100);
        let entries: Vec<(u64, CellOutcome)> = (0..10u64)
            .map(|r| {
                (
                    r,
                    CellOutcome::Infeasible {
                        region: "X",
                        detail: detail.clone(),
                    },
                )
            })
            .collect();
        let bytes = block_of("s", &entries);
        assert!(bytes.len() < 10 * (8 + ROW_BYTES) + 200, "{}", bytes.len());
        assert_eq!(decoded(&bytes), ("s".to_owned(), entries));
    }

    #[test]
    fn unknown_labels_and_presence_bits_do_not_decode() {
        let weird = CellOutcome::Infeasible {
            region: "not-a-label",
            detail: String::new(),
        };
        let bytes = block_of("s", &[(1, weird)]);
        let Frame::Block(meta, range) = frame_at(&bytes, 0) else {
            panic!("not a block");
        };
        assert!(Block::new(&bytes[range], meta).outcome(0).is_none());

        let ok = CellOutcome::Unmodelled { detail: "d".into() };
        let mut bytes = block_of("s", &[(1, ok)]);
        let row = 4 + 4 + 1 + 8 + 8;
        bytes[row + 1] = 1; // a presence bit `Unmodelled` has no slot for
        let Frame::Block(meta, range) = frame_at(&bytes, 0) else {
            panic!("not a block");
        };
        assert!(Block::new(&bytes[range], meta).outcome(0).is_none());
    }

    #[test]
    fn unsorted_rates_and_bad_framing_are_not_blocks() {
        let u = CellOutcome::Unmodelled { detail: "d".into() };
        let mut bytes = block_of("s", &[(1, u.clone()), (2, u)]);
        let rates = 4 + 4 + 1 + 8;
        bytes[rates..rates + 8].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(frame_at(&bytes, 0), Frame::Damaged));
        assert!(matches!(
            frame_at(&bytes[..bytes.len() - 1], 0),
            Frame::Incomplete
        ));
    }
}
