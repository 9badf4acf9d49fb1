//! Property and equivalence tests for the Pareto-frontier extraction.

use memstream_grid::{non_dominated, FrontierBuilder, GridCell, GridExecutor, ScenarioGrid};
use proptest::prelude::*;

fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

proptest! {
    #[test]
    fn frontier_points_are_mutually_non_dominated(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..60)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let frontier = non_dominated(&points);
        prop_assert!(!frontier.is_empty());
        for &i in &frontier {
            for &j in &frontier {
                prop_assert!(
                    !dominates(&points[i], &points[j]),
                    "frontier point {:?} dominates {:?}",
                    points[i],
                    points[j]
                );
            }
        }
    }

    #[test]
    fn dropped_points_are_dominated_by_some_frontier_point(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..40)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let frontier = non_dominated(&points);
        for i in 0..points.len() {
            if !frontier.contains(&i) {
                prop_assert!(
                    frontier.iter().any(|&f| dominates(&points[f], &points[i])),
                    "dropped point {:?} is not dominated",
                    points[i]
                );
            }
        }
    }

    #[test]
    fn frontier_is_order_invariant_as_a_set(
        raw in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..20.0f64), 1..30)
    ) {
        let points: Vec<[f64; 3]> = raw.iter().map(|&(a, b, c)| [a, b, c]).collect();
        let reversed: Vec<[f64; 3]> = points.iter().rev().copied().collect();
        let mut a: Vec<[u64; 3]> = non_dominated(&points)
            .into_iter()
            .map(|i| points[i].map(f64::to_bits))
            .collect();
        let mut b: Vec<[u64; 3]> = non_dominated(&reversed)
            .into_iter()
            .map(|i| reversed[i].map(f64::to_bits))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn builder_keeps_tied_copies_and_treats_signed_zeros_as_equal() {
    // Equal triples survive together, -0.0 ties 0.0, and a NaN
    // coordinate neither dominates nor is dominated.
    let points = [
        [0.5, 0.0, 1.0],
        [0.5, -0.0, 1.0],
        [0.5, 0.0, 0.5],
        [0.4, 1.0, 1.0],
        [f64::NAN, 0.0, 0.0],
        [0.4, 1.0, 1.0],
        [0.5, 1.0, -0.0],
    ];
    assert_eq!(non_dominated(&points), vec![0, 1, 3, 4, 5, 6]);
    let mut builder = FrontierBuilder::new();
    for (i, &p) in points.iter().enumerate().rev() {
        builder.insert(i, p);
    }
    let survivors: Vec<usize> = builder.finish().into_iter().map(|(i, _)| i).collect();
    assert_eq!(survivors, non_dominated(&points));
}

#[test]
fn executor_frontier_equals_batch_non_domination_over_the_store() {
    // `paper_baseline(1)` panics by design (a rate span needs two
    // points), so the smallest grid checked has 2 rates.
    for rates in [2, 7, 50] {
        let results = GridExecutor::parallel(2)
            .explore(&ScenarioGrid::paper_baseline(rates))
            .unwrap();
        let (cells, objectives): (Vec<GridCell>, Vec<[f64; 3]>) = results
            .store()
            .jobs()
            .filter_map(|(cell, outcome)| Some((*cell, outcome.planned()?.objectives()?)))
            .unzip();
        let expected: Vec<(GridCell, [f64; 3])> = non_dominated(&objectives)
            .into_iter()
            .map(|i| (cells[i], objectives[i]))
            .collect();
        let frontier: Vec<(GridCell, [f64; 3])> = results
            .pareto_frontier()
            .iter()
            .map(|p| (p.cell, p.objectives()))
            .collect();
        assert!(!frontier.is_empty());
        assert_eq!(frontier, expected, "paper_baseline({rates})");
    }
}
