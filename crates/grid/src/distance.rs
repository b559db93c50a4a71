use serde::{Deserialize, Serialize};

/// The spatial-closeness decay kernel: how fast transition probability
/// decays with the distance between grid cells.
///
/// The paper defines the prior as `P(c_i → c_j) ∝ P(c_i → c_i) /
/// w^{d(c_i, c_j)}` and reuses the same exponential-decay shape for the
/// likelihood of Eq. (2). The printed example matrix (Figure 5) pins down
/// the exact kernel: for per-axis cell offsets `(dx, dy)` the decay weight
/// is the *arithmetic mean of per-axis decays*, `(w^dx + w^dy) / 2` —
/// every entry of the paper's 9×9 matrix matches this formula with
/// `w = 2`. That variant is [`DecayKernel::MeanAxis`], the default.
///
/// The other variants use a scalar cell distance `d` in `w^d`, offered for
/// ablation studies.
///
/// # Example
///
/// ```
/// use gridwatch_grid::DecayKernel;
///
/// let k = DecayKernel::default(); // MeanAxis
/// assert_eq!(k.weight(2.0, 0, 0), 1.0);
/// assert_eq!(k.weight(2.0, 1, 0), 1.5);  // (2^1 + 2^0)/2
/// assert_eq!(k.weight(2.0, 1, 1), 2.0);
/// assert_eq!(k.weight(2.0, 2, 2), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DecayKernel {
    /// Weight `(w^|dx| + w^|dy|) / 2` — the kernel implied by the paper's
    /// printed prior matrix.
    #[default]
    MeanAxis,
    /// Weight `w^max(|dx|, |dy|)` (Chebyshev distance).
    Chebyshev,
    /// Weight `w^(|dx| + |dy|)` (Manhattan distance).
    Manhattan,
    /// Weight `w^sqrt(dx² + dy²)` (Euclidean distance).
    Euclidean,
}

impl DecayKernel {
    /// The decay weight between two cells offset by `(dx, dy)` rows and
    /// columns, for decay rate `w`.
    ///
    /// The weight is `1` at zero offset and grows with the offset; the
    /// prior transition probability is proportional to its reciprocal.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w <= 1` (the decay would not decay).
    pub fn weight(self, w: f64, dx: i64, dy: i64) -> f64 {
        debug_assert!(w > 1.0, "decay rate must exceed 1, got {w}");
        let dx = dx.unsigned_abs() as f64;
        let dy = dy.unsigned_abs() as f64;
        match self {
            DecayKernel::MeanAxis => (w.powf(dx) + w.powf(dy)) / 2.0,
            DecayKernel::Chebyshev => w.powf(dx.max(dy)),
            DecayKernel::Manhattan => w.powf(dx + dy),
            DecayKernel::Euclidean => w.powf((dx * dx + dy * dy).sqrt()),
        }
    }

    /// Natural log of [`DecayKernel::weight`], used for the additive
    /// log-space updates of Eq. (1) ("we take log over all the
    /// probabilities, and the updates can be performed using additive
    /// operations").
    pub fn log_weight(self, w: f64, dx: i64, dy: i64) -> f64 {
        self.weight(w, dx, dy).ln()
    }

    /// [`DecayKernel::log_weight`] for every cell offset of a
    /// `columns × rows` grid, indexed `[|dy| * columns + |dx|]`.
    ///
    /// Every kernel depends only on `(|dx|, |dy|)`, so this table holds
    /// all the transcendental work a posterior row needs: building it
    /// costs `columns × rows` calls, after which each row is lookups
    /// and multiply-adds. Entries are bitwise equal to `log_weight`.
    ///
    /// # Example
    ///
    /// ```
    /// use gridwatch_grid::DecayKernel;
    ///
    /// let k = DecayKernel::MeanAxis;
    /// let table = k.log_weight_table(2.0, 3, 2);
    /// assert_eq!(table.len(), 6);
    /// assert_eq!(table[1 * 3 + 2], k.log_weight(2.0, 2, 1));
    /// ```
    pub fn log_weight_table(self, w: f64, columns: usize, rows: usize) -> Vec<f64> {
        (0..rows as i64)
            .flat_map(|dy| (0..columns as i64).map(move |dx| self.log_weight(w, dx, dy)))
            .collect()
    }

    /// All kernel variants, for ablation sweeps.
    pub const ALL: [DecayKernel; 4] = [
        DecayKernel::MeanAxis,
        DecayKernel::Chebyshev,
        DecayKernel::Manhattan,
        DecayKernel::Euclidean,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_axis_matches_figure5_ratios() {
        // Figure 5's row c1 (corner cell of a 3x3 grid): the probability
        // ratios P(c1→c1)/P(c1→cj) are exactly these weights with w = 2.
        let k = DecayKernel::MeanAxis;
        let cases = [
            ((0, 0), 1.0), // c1 itself
            ((0, 1), 1.5), // c2
            ((0, 2), 2.5), // c3
            ((1, 0), 1.5), // c4
            ((1, 1), 2.0), // c5
            ((1, 2), 3.0), // c6
            ((2, 0), 2.5), // c7
            ((2, 1), 3.0), // c8
            ((2, 2), 4.0), // c9
        ];
        for ((dx, dy), want) in cases {
            assert_eq!(k.weight(2.0, dx, dy), want, "offset ({dx},{dy})");
        }
    }

    #[test]
    fn kernels_are_symmetric_in_sign_and_axis_order_where_expected() {
        for k in DecayKernel::ALL {
            for (dx, dy) in [(0, 0), (1, 2), (3, 1)] {
                let w = k.weight(2.0, dx, dy);
                assert_eq!(w, k.weight(2.0, -dx, dy));
                assert_eq!(w, k.weight(2.0, dx, -dy));
                assert_eq!(w, k.weight(2.0, dy, dx));
            }
        }
    }

    #[test]
    fn weight_is_one_at_origin_and_increases() {
        for k in DecayKernel::ALL {
            assert_eq!(k.weight(2.0, 0, 0), 1.0);
            let mut prev = 1.0;
            for d in 1..6 {
                let w = k.weight(2.0, d, d);
                assert!(w > prev, "{k:?} at offset {d}");
                prev = w;
            }
        }
    }

    #[test]
    fn scalar_kernels_match_their_metric() {
        assert_eq!(DecayKernel::Chebyshev.weight(3.0, 2, 1), 9.0);
        assert_eq!(DecayKernel::Manhattan.weight(3.0, 2, 1), 27.0);
        let e = DecayKernel::Euclidean.weight(2.0, 3, 4);
        assert!((e - 32.0).abs() < 1e-12); // 2^5
    }

    #[test]
    fn log_weight_consistency() {
        for k in DecayKernel::ALL {
            let lw = k.log_weight(2.0, 2, 1);
            assert!((lw - k.weight(2.0, 2, 1).ln()).abs() < 1e-15);
        }
    }

    #[test]
    fn log_weight_table_entries_are_bitwise_log_weight() {
        for k in DecayKernel::ALL {
            for w in [1.5, 2.0, 3.7] {
                for (columns, rows) in [(1, 1), (3, 3), (7, 2), (1, 9), (13, 11)] {
                    let table = k.log_weight_table(w, columns, rows);
                    assert_eq!(table.len(), columns * rows);
                    for dy in 0..rows {
                        for dx in 0..columns {
                            let want = k.log_weight(w, dx as i64, dy as i64);
                            assert_eq!(
                                table[dy * columns + dx].to_bits(),
                                want.to_bits(),
                                "{k:?} w={w} ({dx},{dy}) in {columns}x{rows}"
                            );
                        }
                    }
                }
            }
        }
    }
}
