//! Result storage: cell→job deduplication and Pareto aggregation.

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;

use crate::eval::{CellOutcome, PlannedPoint};
use crate::key::KeyInterner;
use crate::spec::{GridCell, ScenarioGrid};

/// Deduplicated outcome storage.
///
/// Physically identical cells (equal [`ScenarioGrid::dedup_key`]) map to
/// one *job*; each job is evaluated once and its outcome shared by every
/// cell that references it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultStore {
    cell_to_job: Vec<usize>,
    job_cells: Vec<GridCell>,
    outcomes: Vec<CellOutcome>,
}

impl ResultStore {
    /// Plans the job list for `grid`: the representative (first-occurring)
    /// cell of every distinct dedup key, in canonical order, plus the
    /// cell→job map. Outcomes are attached later by the executor.
    #[must_use]
    pub(crate) fn plan(grid: &ScenarioGrid) -> (Vec<GridCell>, Vec<usize>) {
        ResultStore::plan_with(grid, &KeyInterner::new(grid))
    }

    /// [`ResultStore::plan`] against a pre-built interner: no key strings
    /// are formatted or hashed — deduplication is a dense lookup table
    /// over axis-class indices, which represent exactly the legacy
    /// string-equality classes.
    #[must_use]
    pub(crate) fn plan_with(
        grid: &ScenarioGrid,
        interner: &KeyInterner,
    ) -> (Vec<GridCell>, Vec<usize>) {
        let mut by_class: Vec<usize> = vec![usize::MAX; interner.class_capacity()];
        let mut job_cells: Vec<GridCell> = Vec::new();
        let mut cell_to_job = Vec::with_capacity(grid.len());
        for cell in grid.cells() {
            let slot = &mut by_class[interner.class_index(&cell)];
            if *slot == usize::MAX {
                *slot = job_cells.len();
                job_cells.push(cell);
            }
            cell_to_job.push(*slot);
        }
        (job_cells, cell_to_job)
    }

    pub(crate) fn new(
        cell_to_job: Vec<usize>,
        job_cells: Vec<GridCell>,
        outcomes: Vec<CellOutcome>,
    ) -> Self {
        debug_assert_eq!(job_cells.len(), outcomes.len());
        ResultStore {
            cell_to_job,
            job_cells,
            outcomes,
        }
    }

    /// Number of cells the store covers.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.cell_to_job.len()
    }

    /// Number of distinct evaluations performed.
    #[must_use]
    pub fn unique_evaluations(&self) -> usize {
        self.outcomes.len()
    }

    /// The outcome of the cell at canonical index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &CellOutcome {
        &self.outcomes[self.cell_to_job[index]]
    }

    /// Iterates `(representative cell, outcome)` over the unique jobs, in
    /// canonical order of first occurrence.
    pub fn jobs(&self) -> impl Iterator<Item = (&GridCell, &CellOutcome)> {
        self.job_cells.iter().zip(self.outcomes.iter())
    }

    /// The Pareto frontier over the jobs whose outcomes carry
    /// [`PlannedPoint::objectives`], in job order. Sorts `u32` job
    /// indices, never copies of the objectives, so the transient buffer
    /// stays at 4 bytes per candidate.
    #[must_use]
    pub(crate) fn pareto_frontier(&self) -> Vec<ParetoPoint> {
        let objectives = |job: u32| {
            self.outcomes[job as usize]
                .planned()
                .and_then(PlannedPoint::objectives)
        };
        let jobs = u32::try_from(self.outcomes.len()).expect("job count fits in u32");
        let candidates = (0..jobs).filter(|&job| objectives(job).is_some()).collect();
        sweep_frontier(candidates, |job| {
            objectives(job).expect("candidates carry objectives")
        })
        .into_iter()
        .filter_map(|job| {
            let point = self.outcomes[job as usize].planned()?;
            Some(ParetoPoint {
                cell: self.job_cells[job as usize],
                objectives: point.objectives()?,
                point: point.clone(),
            })
        })
        .collect()
    }
}

/// One point of the Pareto frontier: a feasible scenario no other feasible
/// scenario strictly improves on in all three paper metrics at once.
///
/// Only constructed by the frontier extraction (the private `objectives`
/// field keeps the "saving is measurable" invariant enforceable rather
/// than merely documented).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The representative cell (first in canonical order among duplicates).
    pub cell: GridCell,
    /// Its planned metrics.
    pub point: PlannedPoint,
    objectives: [f64; 3],
}

impl ParetoPoint {
    /// The maximised objective vector:
    /// `(energy saving, capacity utilisation, lifetime years)`.
    #[must_use]
    pub fn objectives(&self) -> [f64; 3] {
        self.objectives
    }
}

/// Returns `true` if `a` dominates `b`: at least as good in every
/// objective (maximisation) and strictly better in at least one.
#[must_use]
fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// Indices of the non-dominated entries of `points` (maximising every
/// coordinate), in input order. Duplicate objective vectors are all kept:
/// equal points do not dominate each other.
#[must_use]
pub fn non_dominated(points: &[[f64; 3]]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|other| dominates(other, &points[i])))
        .collect()
}

/// A total order on non-NaN floats under which `-0.0 == 0.0`, exactly
/// as [`dominates`] compares them. `f64::total_cmp` would order the two
/// zeros apart and split one tie group into two.
#[derive(Clone, Copy, PartialEq)]
struct Coord(f64);

impl Eq for Coord {}

impl PartialOrd for Coord {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coord {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("NaN points never reach the sweep")
    }
}

/// The non-dominated members of `candidates` (maximising every
/// coordinate of `objectives`), ascending. The same set as
/// [`non_dominated`], in `O(n log n)`: the d=3 maxima sweep of Kung,
/// Luccio & Preparata (JACM 1975).
///
/// Candidates are visited in descending (saving, utilisation, lifetime)
/// order, so every point that could dominate a candidate has been visited
/// before it. The visited points' (utilisation, lifetime) maxima are kept
/// as a staircase — lifetime falls as utilisation rises — and a
/// candidate is dominated exactly when the first step at or above its
/// utilisation reaches its lifetime. Runs of identical triples are
/// decided as one group, since equal points never dominate each other.
/// A point with a NaN coordinate compares false both ways, so it is
/// always kept and never shields another.
fn sweep_frontier<I: Copy + Ord>(
    mut candidates: Vec<I>,
    objectives: impl Fn(I) -> [f64; 3],
) -> Vec<I> {
    let mut survivors = Vec::new();
    candidates.retain(|&i| {
        let nan = objectives(i).iter().any(|x| x.is_nan());
        if nan {
            survivors.push(i);
        }
        !nan
    });
    let key = |i: I| objectives(i).map(Coord);
    candidates.sort_unstable_by_key(|&i| Reverse(key(i)));

    let mut staircase: BTreeMap<Coord, Coord> = BTreeMap::new();
    for group in candidates.chunk_by(|&a, &b| key(a) == key(b)) {
        let [_, utilisation, lifetime] = key(group[0]);
        if staircase
            .range(utilisation..)
            .next()
            .is_some_and(|(_, &held)| held >= lifetime)
        {
            continue;
        }
        while let Some((&step, &held)) = staircase.range(..=utilisation).next_back() {
            if held > lifetime {
                break;
            }
            staircase.remove(&step);
        }
        staircase.insert(utilisation, lifetime);
        survivors.extend_from_slice(group);
    }
    survivors.sort_unstable();
    survivors
}

/// A Pareto frontier over points offered one at a time (maximising every
/// coordinate). Offers are only buffered; [`FrontierBuilder::finish`]
/// runs the same sort-and-sweep as the executor, so its survivors equal
/// the batch [`non_dominated`] scan of the same points for any offer
/// order.
#[derive(Debug, Clone, Default)]
pub struct FrontierBuilder {
    points: Vec<(usize, [f64; 3])>,
}

impl FrontierBuilder {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Self {
        FrontierBuilder::default()
    }

    /// Offers one point, tagged with the caller's `index` (typically a
    /// job ordinal).
    pub fn insert(&mut self, index: usize, objectives: [f64; 3]) {
        self.points.push((index, objectives));
    }

    /// Offers an outcome: only feasible, fully modelled points with a
    /// measurable saving carry objectives; everything else is a no-op.
    pub fn insert_outcome(&mut self, index: usize, outcome: &CellOutcome) {
        if let Some(objectives) = outcome.planned().and_then(PlannedPoint::objectives) {
            self.insert(index, objectives);
        }
    }

    /// The surviving `(index, objectives)` pairs, sorted ascending by
    /// index — the canonical order.
    #[must_use]
    pub fn finish(mut self) -> Vec<(usize, [f64; 3])> {
        self.points.sort_unstable_by_key(|&(index, _)| index);
        let points = self.points;
        sweep_frontier((0..points.len()).collect(), |slot| points[slot].1)
            .into_iter()
            .map(|slot| points[slot])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_dominated_drops_strictly_worse_points() {
        let pts = vec![[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [2.0, 0.1, 0.1]];
        assert_eq!(non_dominated(&pts), vec![0, 2]);
    }

    #[test]
    fn equal_points_are_mutually_kept() {
        let pts = vec![[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]];
        assert_eq!(non_dominated(&pts), vec![0, 1]);
    }

    #[test]
    fn single_point_is_the_frontier() {
        assert_eq!(non_dominated(&[[0.0, 0.0, 0.0]]), vec![0]);
    }

    #[test]
    fn frontier_of_empty_input_is_empty() {
        assert!(non_dominated(&[]).is_empty());
    }

    /// The builder's surviving set must equal the batch scan, in index
    /// order, for any insertion order.
    fn assert_builder_matches_batch(points: &[[f64; 3]]) {
        let mut builder = FrontierBuilder::new();
        for (i, &p) in points.iter().enumerate() {
            builder.insert(i, p);
        }
        let survivors: Vec<usize> = builder.finish().into_iter().map(|(i, _)| i).collect();
        assert_eq!(survivors, non_dominated(points));
    }

    #[test]
    fn incremental_frontier_matches_batch_scan() {
        assert_builder_matches_batch(&[[1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [2.0, 0.1, 0.1]]);
        // Reversed: the dominating point arrives last.
        assert_builder_matches_batch(&[[0.5, 0.5, 0.5], [2.0, 0.1, 0.1], [1.0, 1.0, 1.0]]);
        // Equal points are mutually kept.
        assert_builder_matches_batch(&[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]);
        assert_builder_matches_batch(&[]);
    }
}
