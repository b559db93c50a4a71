//! Bit-identity of table-driven posterior rows.
//!
//! `TransitionMatrix` reads every `ln K` term from a cached log-weight
//! table. The oracle here is the direct per-cell formula: one
//! `DecayKernel::log_weight` call per cell for the prior, then one per
//! cell for each observed destination in increasing cell order. Rows and
//! scores must match it bit for bit, for every kernel and row format,
//! after growth, forgetting and a serde round trip.

use gridwatch_core::fitness::score_row;
use gridwatch_core::prior::normalize_log_row;
use gridwatch_core::{DecayKernel, TransitionMatrix};
use gridwatch_grid::rows::{materialize_levels, quantize_row};
use gridwatch_grid::{CellId, GridStructure, RowFormat};
use proptest::prelude::*;

const FORMATS: [RowFormat; 3] = [RowFormat::Dense, RowFormat::Quantized, RowFormat::Sparse];

fn grid(columns: usize, rows: usize) -> GridStructure {
    GridStructure::uniform((0.0, columns as f64), (0.0, rows as f64), columns, rows)
}

/// The per-cell posterior row, computed without any table.
fn oracle_row(v: &TransitionMatrix, grid: &GridStructure, from: CellId) -> Vec<f64> {
    let (kernel, w) = (v.kernel(), v.decay_rate());
    let mut log_row: Vec<f64> = grid
        .cells()
        .map(|to| {
            let (dx, dy) = grid.offset(from, to);
            -kernel.log_weight(w, dx, dy)
        })
        .collect();
    for h in grid.cells() {
        let n = v.count(from, h);
        if n == 0 {
            continue;
        }
        let n = n as f64;
        for (j, l) in log_row.iter_mut().enumerate() {
            let (dx, dy) = grid.offset(h, CellId(j));
            *l -= n * kernel.log_weight(w, dx, dy);
        }
    }
    normalize_log_row(&log_row)
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|p| p.to_bits()).collect()
}

/// The rows worth checking: every observed source plus a few fixed ones.
fn rows_to_check(v: &TransitionMatrix, grid: &GridStructure) -> Vec<CellId> {
    let s = grid.cell_count();
    let mut rows: Vec<CellId> = v.observed_sources().filter(|c| c.index() < s).collect();
    rows.extend([CellId(0), CellId(s / 2), CellId(s - 1)]);
    rows
}

/// Asserts `compute_row` and `score` agree bitwise with the oracle.
fn assert_matches_oracle(v: &mut TransitionMatrix, grid: &GridStructure) {
    let s = grid.cell_count();
    for from in rows_to_check(v, grid) {
        let want = oracle_row(v, grid, from);
        assert_eq!(
            bits(&v.compute_row(grid, from)),
            bits(&want),
            "{:?} row {from} on {grid}",
            v.kernel()
        );
        let scored = match v.row_format() {
            RowFormat::Dense => want.clone(),
            _ => {
                let (levels, denom) = quantize_row(&want);
                materialize_levels(&levels, denom)
            }
        };
        for to in [CellId(0), CellId(s / 3), CellId(s - 1), from] {
            assert_eq!(
                v.score(grid, from, to),
                score_row(&scored, to),
                "{:?} {:?} {from}→{to} on {grid}",
                v.kernel(),
                v.row_format()
            );
        }
        // The `&self` path agrees once the `&mut` path cached the table.
        assert_eq!(bits(&v.compute_row(grid, from)), bits(&want));
    }
}

fn arb_case() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, u8)>, f64)> {
    (
        1usize..=30,
        1usize..=30,
        prop::collection::vec((0usize..900, 0usize..900, 1u8..6), 0..24),
        1.1f64..4.0,
    )
}

fn observed(
    kernel: DecayKernel,
    format: RowFormat,
    w: f64,
    s: usize,
    obs: &[(usize, usize, u8)],
) -> TransitionMatrix {
    let mut v = TransitionMatrix::with_format(kernel, w, format);
    for &(from, to, n) in obs {
        for _ in 0..n {
            v.observe(CellId(from % s), CellId(to % s));
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rows_and_scores_match_the_per_cell_formula(
        (columns, rows, obs, w) in arb_case(),
    ) {
        let g = grid(columns, rows);
        for kernel in DecayKernel::ALL {
            for format in FORMATS {
                let mut v = observed(kernel, format, w, g.cell_count(), &obs);
                assert_matches_oracle(&mut v, &g);
            }
        }
    }

    #[test]
    fn rows_match_after_growth(
        (columns, rows, obs, w) in arb_case(),
        (prepended_cols, appended_cols, prepended_rows, appended_rows) in
            (0usize..3, 0usize..3, 0usize..3, 0usize..3),
    ) {
        prop_assume!(prepended_cols + appended_cols + prepended_rows + appended_rows > 0);
        let old = grid(columns, rows);
        let new = grid(
            columns + prepended_cols + appended_cols,
            rows + prepended_rows + appended_rows,
        );
        for kernel in DecayKernel::ALL {
            for format in FORMATS {
                let mut v = observed(kernel, format, w, old.cell_count(), &obs);
                // Cache a table of the old shape before the grid grows.
                v.score(&old, CellId(0), CellId(0));
                v.remap_after_growth(columns, prepended_cols, appended_cols, prepended_rows);
                // `&self` first: the stale table must not be read.
                for from in rows_to_check(&v, &new) {
                    prop_assert_eq!(
                        bits(&v.compute_row(&new, from)),
                        bits(&oracle_row(&v, &new, from))
                    );
                }
                assert_matches_oracle(&mut v, &new);
            }
        }
    }

    #[test]
    fn rows_match_after_forgetting_and_a_serde_round_trip(
        (columns, rows, obs, w) in arb_case(),
        factor in 0.3f64..0.99,
    ) {
        let g = grid(columns, rows);
        for kernel in DecayKernel::ALL {
            for format in FORMATS {
                let mut v = observed(kernel, format, w, g.cell_count(), &obs);
                v.score(&g, CellId(0), CellId(0));
                v.decay_counts(factor);
                assert_matches_oracle(&mut v, &g);
                let json = serde_json::to_string(&v).expect("serialize");
                let mut back: TransitionMatrix = serde_json::from_str(&json).expect("parse");
                prop_assert!(back == v);
                assert_matches_oracle(&mut back, &g);
            }
        }
    }
}
