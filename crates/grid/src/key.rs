//! Interned dedup keys: axis-class identifiers for the cell hot path.
//!
//! [`ScenarioGrid::dedup_key`] formats a `String` per cell — five
//! fragments holding two dozen `f64` shortest-roundtrip renderings.
//! On every `resolve_cells`/`explore` that cost multiplies by the full
//! cell count. The [`KeyInterner`] computes each fragment **once per axis
//! value**, collapses content-identical axis entries into *classes* (two
//! registered devices with equal dedup tokens share a class, exactly as
//! they share a dedup key), and hands out [`CellKey`] identifiers — four
//! `u32` class indices — that are `Eq`/`Hash` in a few machine words.
//!
//! The result cache keys a cell by its **series** — device, workload,
//! goal and the grid-wide suffix, everything but the rate — and the rate's
//! `f64` bits. The interner numbers the series once per grid
//! ([`KeyInterner::series_id`]) and formats each series token once
//! ([`KeyInterner::series_token`]), so a cache lookup resolves a series
//! once and then compares rate bits; no per-cell key string is built.
//!
//! Full canonical strings are materialised only at report boundaries via
//! [`KeyInterner::resolve`], which concatenates the pre-formatted
//! fragments and is **byte-identical** to [`ScenarioGrid::dedup_key`] for
//! every cell (the equivalence suite in
//! `crates/grid/tests/key_equivalence.rs` pins this). [`split_dedup_key`]
//! and [`render_cache_key`] convert between the two forms.

use std::collections::HashMap;

use crate::spec::{goal_key, grid_key_suffix, rate_key, GridCell, ScenarioGrid};

/// A cell's dedup identity as four axis-**class** indices
/// (device, workload, rate, goal).
///
/// Two cells compare equal iff their legacy dedup-key strings are
/// byte-equal: the class maps are built by string equality of the
/// per-axis key fragments, and the grid-wide `dram`/`policy` suffix is
/// shared by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u32, pub u32, pub u32, pub u32);

/// Pre-computed key fragments and axis-class maps for one
/// [`ScenarioGrid`].
///
/// Build once per exploration; [`KeyInterner::key`] is then index
/// arithmetic and [`KeyInterner::resolve`] pure concatenation.
#[derive(Debug, Clone)]
pub struct KeyInterner {
    device_class: Vec<u32>,
    workload_class: Vec<u32>,
    rate_class: Vec<u32>,
    goal_class: Vec<u32>,
    device_fragments: Vec<String>,
    workload_fragments: Vec<String>,
    rate_fragments: Vec<String>,
    goal_fragments: Vec<String>,
    /// The grid-wide `dram=…|pol=…` tail shared by every key.
    suffix: String,
    /// The `f64` bits of each rate-axis entry: the rate half of a cache
    /// key.
    rate_bits: Vec<u64>,
    /// The series token of each series id (device, workload and goal
    /// class, goal innermost): the series half of a cache key.
    series_tokens: Vec<String>,
}

/// Maps each axis entry to a class id by fragment string equality,
/// returning (entry → class, class → fragment) with classes numbered in
/// first-occurrence order.
fn classify(fragments: impl Iterator<Item = String>) -> (Vec<u32>, Vec<String>) {
    let mut by_fragment: HashMap<String, u32> = HashMap::new();
    let mut classes = Vec::new();
    let mut canonical = Vec::new();
    for fragment in fragments {
        let next = canonical.len() as u32;
        let class = *by_fragment.entry(fragment.clone()).or_insert_with(|| {
            canonical.push(fragment);
            next
        });
        classes.push(class);
    }
    (classes, canonical)
}

impl KeyInterner {
    /// Builds the interner for `grid`: formats every axis fragment once
    /// and assigns content classes.
    #[must_use]
    pub fn new(grid: &ScenarioGrid) -> Self {
        let (device_class, device_fragments) =
            classify(grid.devices().iter().map(|d| d.device().dedup_token()));
        let (workload_class, workload_fragments) = classify(
            grid.workloads()
                .iter()
                .map(crate::spec::WorkloadProfile::dedup_key),
        );
        let (rate_class, rate_fragments) = classify(grid.rates().iter().copied().map(rate_key));
        let (goal_class, goal_fragments) = classify(grid.goals().iter().map(goal_key));
        let suffix = grid_key_suffix(grid.dram_enabled(), grid.best_effort_policy());
        let mut series_tokens = Vec::new();
        for device in &device_fragments {
            for workload in &workload_fragments {
                for goal in &goal_fragments {
                    series_tokens.push(format!("{device}|{workload}|{goal}|{suffix}"));
                }
            }
        }
        KeyInterner {
            device_class,
            workload_class,
            rate_class,
            goal_class,
            device_fragments,
            workload_fragments,
            rate_fragments,
            goal_fragments,
            suffix,
            rate_bits: grid
                .rates()
                .iter()
                .map(|rate| rate.bits_per_second().to_bits())
                .collect(),
            series_tokens,
        }
    }

    /// Number of series ids: the product of the device, workload and
    /// goal class counts.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.series_tokens.len()
    }

    /// The series id of `cell`: a dense index over its device, workload
    /// and goal classes. Cells share a series id iff their dedup keys
    /// agree everywhere but the rate.
    ///
    /// # Panics
    ///
    /// Panics if `cell`'s axis indices are out of range for the grid the
    /// interner was built from.
    #[must_use]
    pub fn series_id(&self, cell: &GridCell) -> usize {
        let [_, w, _, g] = self.class_counts();
        (self.device_class[cell.device] as usize * w + self.workload_class[cell.workload] as usize)
            * g
            + self.goal_class[cell.goal] as usize
    }

    /// The series token of series `id`:
    /// `device|workload|goal|dram=…|pol=…` — the dedup key without its
    /// rate fragment.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.series_count()`.
    #[must_use]
    pub fn series_token(&self, id: usize) -> &str {
        &self.series_tokens[id]
    }

    /// The `f64` bits of `cell`'s rate, in bits per second.
    #[must_use]
    pub fn rate_bits(&self, cell: &GridCell) -> u64 {
        self.rate_bits[cell.rate]
    }

    /// The interned key of `cell` — pure index arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `cell`'s axis indices are out of range for the grid the
    /// interner was built from.
    #[must_use]
    pub fn key(&self, cell: &GridCell) -> CellKey {
        CellKey(
            self.device_class[cell.device],
            self.workload_class[cell.workload],
            self.rate_class[cell.rate],
            self.goal_class[cell.goal],
        )
    }

    /// The canonical key string for `key`, byte-identical to
    /// [`ScenarioGrid::dedup_key`] of any cell that interns to `key`.
    #[must_use]
    pub fn resolve(&self, key: CellKey) -> String {
        let mut out = String::with_capacity(self.resolved_capacity(key));
        self.resolve_into(key, &mut out);
        out
    }

    /// Appends the canonical key string to `out` (cleared first), reusing
    /// its allocation — the cache-lookup loop's zero-garbage variant.
    pub fn resolve_into(&self, key: CellKey, out: &mut String) {
        out.clear();
        out.reserve(self.resolved_capacity(key));
        out.push_str(&self.device_fragments[key.0 as usize]);
        out.push('|');
        out.push_str(&self.workload_fragments[key.1 as usize]);
        out.push('|');
        out.push_str(&self.rate_fragments[key.2 as usize]);
        out.push('|');
        out.push_str(&self.goal_fragments[key.3 as usize]);
        out.push('|');
        out.push_str(&self.suffix);
    }

    fn resolved_capacity(&self, key: CellKey) -> usize {
        self.device_fragments[key.0 as usize].len()
            + self.workload_fragments[key.1 as usize].len()
            + self.rate_fragments[key.2 as usize].len()
            + self.goal_fragments[key.3 as usize].len()
            + self.suffix.len()
            + 4
    }

    /// Number of distinct classes per axis, in
    /// (device, workload, rate, goal) order.
    #[must_use]
    pub fn class_counts(&self) -> [usize; 4] {
        [
            self.device_fragments.len(),
            self.workload_fragments.len(),
            self.rate_fragments.len(),
            self.goal_fragments.len(),
        ]
    }

    /// Total interned fragments across all axes (plus the shared suffix)
    /// — the `grid.interner.keys` telemetry payload.
    #[must_use]
    pub fn interned_strings(&self) -> usize {
        self.device_fragments.len()
            + self.workload_fragments.len()
            + self.rate_fragments.len()
            + self.goal_fragments.len()
            + 1
    }

    /// The dense-table capacity: the product of the class counts. Every
    /// [`KeyInterner::class_index`] is below this.
    #[must_use]
    pub(crate) fn class_capacity(&self) -> usize {
        let [d, w, r, g] = self.class_counts();
        d * w * r * g
    }

    /// A dense linear index over classes (device outermost, goal
    /// innermost) — the dedup planner's replacement for hashing key
    /// strings.
    #[must_use]
    pub(crate) fn class_index(&self, cell: &GridCell) -> usize {
        let [_, w, r, g] = self.class_counts();
        ((self.device_class[cell.device] as usize * w
            + self.workload_class[cell.workload] as usize)
            * r
            + self.rate_class[cell.rate] as usize)
            * g
            + self.goal_class[cell.goal] as usize
    }
}

/// Splits a canonical dedup key ([`ScenarioGrid::dedup_key`]) into its
/// cache key: the series token and the rate's `f64` bits. Parses from the
/// right — the workload, rate, goal and suffix fragments hold no `|`, so
/// a device token may hold anything. `None` if `key` is not canonical.
#[must_use]
pub fn split_dedup_key(key: &str) -> Option<(String, u64)> {
    let mut fields = key.rsplitn(5, '|');
    let (policy, dram, goal, rate, head) = (
        fields.next()?,
        fields.next()?,
        fields.next()?,
        fields.next()?,
        fields.next()?,
    );
    let bits = rate.strip_prefix("r=")?.parse::<f64>().ok()?.to_bits();
    Some((format!("{head}|{goal}|{dram}|{policy}"), bits))
}

/// Renders a cache key as its canonical dedup key, re-inserting the rate
/// fragment; the inverse of [`split_dedup_key`]. A series token that is
/// not of the canonical shape renders as `series@r=rate`.
#[must_use]
pub fn render_cache_key(series: &str, rate_bits: u64) -> String {
    // `rate_key`'s rendering, without its non-negative `BitRate`.
    let rate = format!("r={:?}", f64::from_bits(rate_bits));
    let mut fields = series.rsplitn(4, '|');
    match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(policy), Some(dram), Some(goal), Some(head)) => {
            format!("{head}|{rate}|{goal}|{dram}|{policy}")
        }
        _ => format!("{series}@{rate}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceEntry, ScenarioGrid};
    use memstream_core::DesignGoal;
    use memstream_device::MemsDevice;

    #[test]
    fn interned_keys_resolve_to_legacy_bytes() {
        for grid in [
            ScenarioGrid::paper_baseline(7),
            ScenarioGrid::paper_classic(5),
            ScenarioGrid::paper_baseline(4).without_dram(),
            ScenarioGrid::paper_baseline(3)
                .policy(memstream_core::BestEffortPolicy::Excluded)
                .goal(DesignGoal::new()),
        ] {
            let interner = KeyInterner::new(&grid);
            for cell in grid.cells() {
                assert_eq!(interner.resolve(interner.key(&cell)), grid.dedup_key(&cell));
            }
        }
    }

    #[test]
    fn content_identical_devices_share_a_class() {
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("a", MemsDevice::table1()))
            .device(DeviceEntry::new("b", MemsDevice::table1()))
            .device(DeviceEntry::new(
                "c",
                MemsDevice::table1().with_probe_write_cycles(200.0),
            ))
            .workload(crate::spec::WorkloadProfile::paper())
            .rate_span(32.0, 4096.0, 3)
            .goal(DesignGoal::fig3b());
        let interner = KeyInterner::new(&grid);
        assert_eq!(interner.class_counts(), [2, 1, 3, 1]);
        let (a, b, c) = (grid.cell(0), grid.cell(3), grid.cell(6));
        assert_eq!(interner.key(&a), interner.key(&b));
        assert_ne!(interner.key(&a), interner.key(&c));
    }

    #[test]
    fn key_equality_matches_string_equality() {
        let grid = ScenarioGrid::paper_baseline(5);
        let interner = KeyInterner::new(&grid);
        for a in grid.cells() {
            for b in grid.cells().take(40) {
                assert_eq!(
                    interner.key(&a) == interner.key(&b),
                    grid.dedup_key(&a) == grid.dedup_key(&b),
                );
            }
        }
    }

    #[test]
    fn series_keys_split_and_render_the_dedup_key() {
        let grid = ScenarioGrid::paper_baseline(4);
        let interner = KeyInterner::new(&grid);
        for cell in grid.cells() {
            let key = grid.dedup_key(&cell);
            let series = interner.series_token(interner.series_id(&cell));
            let rate = interner.rate_bits(&cell);
            assert_eq!(split_dedup_key(&key), Some((series.to_owned(), rate)));
            assert_eq!(render_cache_key(series, rate), key);
        }
        assert_eq!(split_dedup_key("not a key"), None);
        assert_eq!(render_cache_key("s", 0), "s@r=0.0");
    }

    #[test]
    fn resolve_into_reuses_the_buffer() {
        let grid = ScenarioGrid::paper_baseline(3);
        let interner = KeyInterner::new(&grid);
        let mut buf = String::new();
        for cell in grid.cells() {
            interner.resolve_into(interner.key(&cell), &mut buf);
            assert_eq!(buf, grid.dedup_key(&cell));
        }
    }
}
