use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, Timestamp};

/// The three-level fitness aggregation of Section 5: pair scores
/// `Q^{a,b}_t`, per-measurement scores `Q^a_t`, and the system score
/// `Q_t`, plus the per-machine averages used for localization
/// (Figure 14).
///
/// # Example
///
/// ```
/// use gridwatch_detect::ScoreBoard;
/// use gridwatch_timeseries::{
///     MachineId, MeasurementId, MeasurementPair, MetricKind, Timestamp,
/// };
///
/// let a = MeasurementId::new(MachineId::new(0), MetricKind::CpuUtilization);
/// let b = MeasurementId::new(MachineId::new(0), MetricKind::MemoryUsage);
/// let c = MeasurementId::new(MachineId::new(1), MetricKind::CpuUtilization);
/// let mut board = ScoreBoard::new(Timestamp::EPOCH);
/// board.record(MeasurementPair::new(a, b).unwrap(), 1.0);
/// board.record(MeasurementPair::new(a, c).unwrap(), 0.5);
/// assert_eq!(board.measurement_score(a), Some(0.75));
/// assert_eq!(board.machine_score(MachineId::new(1)), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreBoard {
    at: Timestamp,
    pair_scores: BTreeMap<MeasurementPair, f64>,
}

impl ScoreBoard {
    /// Creates an empty board for one sampling instant.
    pub fn new(at: Timestamp) -> Self {
        ScoreBoard {
            at,
            pair_scores: BTreeMap::new(),
        }
    }

    /// The sampling instant.
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// Records the fitness score of one pair.
    pub fn record(&mut self, pair: MeasurementPair, fitness: f64) {
        self.pair_scores.insert(pair, fitness);
    }

    /// Number of recorded pair scores.
    pub fn len(&self) -> usize {
        self.pair_scores.len()
    }

    /// Whether the board has no scores.
    pub fn is_empty(&self) -> bool {
        self.pair_scores.is_empty()
    }

    /// The pair-level score `Q^{a,b}_t`.
    pub fn pair_score(&self, pair: MeasurementPair) -> Option<f64> {
        self.pair_scores.get(&pair).copied()
    }

    /// All pair scores.
    pub fn pair_scores(&self) -> impl ExactSizeIterator<Item = (MeasurementPair, f64)> + '_ {
        self.pair_scores.iter().map(|(&p, &s)| (p, s))
    }

    /// The measurement-level score `Q^a_t`: the mean of the scores of all
    /// pairs involving `a`, or `None` if no such pair was recorded.
    pub fn measurement_score(&self, a: MeasurementId) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&pair, &s) in &self.pair_scores {
            if pair.contains(a) {
                sum += s;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// All measurement-level scores, in sorted measurement order.
    pub fn measurement_scores(&self) -> BTreeMap<MeasurementId, f64> {
        let mut acc: BTreeMap<MeasurementId, (f64, usize)> = BTreeMap::new();
        for (&pair, &s) in &self.pair_scores {
            for id in [pair.first(), pair.second()] {
                let e = acc.entry(id).or_insert((0.0, 0));
                e.0 += s;
                e.1 += 1;
            }
        }
        acc.into_iter()
            .map(|(id, (sum, n))| (id, sum / n as f64))
            .collect()
    }

    /// The system-level score `Q_t`: the mean of all measurement scores,
    /// or `None` if the board is empty.
    pub fn system_score(&self) -> Option<f64> {
        let per_measurement = self.measurement_scores();
        if per_measurement.is_empty() {
            return None;
        }
        Some(per_measurement.values().sum::<f64>() / per_measurement.len() as f64)
    }

    /// Importance-weighted system score: the paper notes that "for less
    /// important system components, we may merge their fitness scores"
    /// into the single administrator-facing number — this generalizes
    /// [`ScoreBoard::system_score`] with per-measurement weights.
    ///
    /// Measurements missing from `weights` default to weight 1; weights
    /// must be non-negative. Returns `None` when no positive total
    /// weight exists.
    ///
    /// # Panics
    ///
    /// Panics if any supplied weight is negative or non-finite.
    pub fn weighted_system_score(&self, weights: &BTreeMap<MeasurementId, f64>) -> Option<f64> {
        let mut total = 0.0;
        let mut sum = 0.0;
        for (id, q) in self.measurement_scores() {
            let w = weights.get(&id).copied().unwrap_or(1.0);
            assert!(
                w.is_finite() && w >= 0.0,
                "importance weight for {id} must be finite and non-negative, got {w}"
            );
            total += w;
            sum += w * q;
        }
        (total > 0.0).then(|| sum / total)
    }

    /// The per-machine average of measurement scores — "the average
    /// fitness score among measurements collected from the same machine"
    /// (Figure 14).
    pub fn machine_scores(&self) -> BTreeMap<MachineId, f64> {
        let mut acc: BTreeMap<MachineId, (f64, usize)> = BTreeMap::new();
        for (id, s) in self.measurement_scores() {
            let e = acc.entry(id.machine()).or_insert((0.0, 0));
            e.0 += s;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(m, (sum, n))| (m, sum / n as f64))
            .collect()
    }

    /// The average score of one machine's measurements.
    pub fn machine_score(&self, machine: MachineId) -> Option<f64> {
        self.machine_scores().get(&machine).copied()
    }

    /// Absorbs another board's pair scores. Because the three-level
    /// aggregation is a pure function of the pair-score map, merging
    /// partial boards built from disjoint pair subsets reproduces the
    /// board a single engine would have produced — this is what makes
    /// pair-sharded scoring exact.
    ///
    /// # Panics
    ///
    /// Panics when the boards are for different instants or share a pair
    /// (shards must partition the pair set).
    pub fn merge(&mut self, other: ScoreBoard) {
        assert_eq!(
            self.at, other.at,
            "cannot merge score boards from different instants"
        );
        let merged = self.try_merge(other);
        assert!(merged.is_ok(), "{merged:?}: shards must be disjoint");
    }

    /// Fallible [`ScoreBoard::merge`] for boards of untrusted origin
    /// (e.g. received over the network from a remote shard worker): a
    /// mismatched instant or overlapping pair is a protocol violation
    /// to report, not a programming bug to panic on. On error, `self`
    /// is left unchanged.
    pub fn try_merge(&mut self, other: ScoreBoard) -> Result<(), MergeError> {
        if self.at != other.at {
            return Err(MergeError::InstantMismatch {
                ours: self.at,
                theirs: other.at,
            });
        }
        if let Some(pair) = other
            .pair_scores
            .keys()
            .find(|p| self.pair_scores.contains_key(*p))
        {
            return Err(MergeError::OverlappingPair(*pair));
        }
        // One bulk build instead of an insert per pair: bulk-built nodes
        // are full, so the merged board (the one a `StepReport` keeps)
        // holds about two thirds of the memory.
        let ours = std::mem::take(&mut self.pair_scores);
        self.pair_scores = ours.into_iter().chain(other.pair_scores).collect();
        Ok(())
    }
}

/// Why [`ScoreBoard::try_merge`] refused a partial board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The boards describe different sampling instants.
    InstantMismatch {
        /// The receiving board's instant.
        ours: Timestamp,
        /// The refused board's instant.
        theirs: Timestamp,
    },
    /// Both boards score the same pair; shards must be disjoint.
    OverlappingPair(MeasurementPair),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::InstantMismatch { ours, theirs } => {
                write!(f, "cannot merge board for {theirs} into board for {ours}")
            }
            MergeError::OverlappingPair(pair) => {
                write!(
                    f,
                    "pair {pair} scored by two shards; shards must be disjoint"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::MetricKind;

    fn id(machine: u32, tag: u16) -> MeasurementId {
        MeasurementId::new(MachineId::new(machine), MetricKind::Custom(tag))
    }

    fn pair(a: MeasurementId, b: MeasurementId) -> MeasurementPair {
        MeasurementPair::new(a, b).unwrap()
    }

    #[test]
    fn three_level_aggregation() {
        // Three measurements on two machines, full triangle of pairs.
        let (a, b, c) = (id(0, 0), id(0, 1), id(1, 0));
        let mut board = ScoreBoard::new(Timestamp::EPOCH);
        board.record(pair(a, b), 0.9);
        board.record(pair(a, c), 0.6);
        board.record(pair(b, c), 0.3);

        let close = |got: Option<f64>, want: f64| {
            let got = got.expect("score present");
            assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        };
        // Q^a = (0.9 + 0.6)/2, Q^b = (0.9 + 0.3)/2, Q^c = (0.6 + 0.3)/2.
        close(board.measurement_score(a), 0.75);
        close(board.measurement_score(b), 0.6);
        close(board.measurement_score(c), 0.45);

        // System = mean of measurement scores.
        close(board.system_score(), 0.6);

        // Machine 0 holds a and b; machine 1 holds c.
        close(board.machine_score(MachineId::new(0)), 0.675);
        close(board.machine_score(MachineId::new(1)), 0.45);
    }

    #[test]
    fn try_merge_reports_protocol_violations_without_mutating() {
        let (a, b, c) = (id(0, 0), id(0, 1), id(1, 0));
        let mut left = ScoreBoard::new(Timestamp::EPOCH);
        left.record(pair(a, b), 0.9);

        // Disjoint merge succeeds and matches the panicking merge.
        let mut right = ScoreBoard::new(Timestamp::EPOCH);
        right.record(pair(a, c), 0.6);
        left.try_merge(right).unwrap();
        assert_eq!(left.pair_score(pair(a, c)), Some(0.6));

        // Instant mismatch is refused, board unchanged.
        let other_instant = ScoreBoard::new(Timestamp::from_secs(360));
        let before = left.clone();
        assert!(matches!(
            left.try_merge(other_instant),
            Err(MergeError::InstantMismatch { .. })
        ));
        assert_eq!(left, before);

        // Overlapping pair is refused, board unchanged.
        let mut overlap = ScoreBoard::new(Timestamp::EPOCH);
        overlap.record(pair(a, b), 0.1);
        overlap.record(pair(b, c), 0.2);
        assert_eq!(
            left.try_merge(overlap),
            Err(MergeError::OverlappingPair(pair(a, b)))
        );
        assert_eq!(left, before);
    }

    #[test]
    fn empty_board_has_no_scores() {
        let board = ScoreBoard::new(Timestamp::EPOCH);
        assert!(board.is_empty());
        assert_eq!(board.system_score(), None);
        assert_eq!(board.measurement_score(id(0, 0)), None);
        assert!(board.machine_scores().is_empty());
    }

    #[test]
    fn unknown_measurement_scores_none() {
        let mut board = ScoreBoard::new(Timestamp::EPOCH);
        board.record(pair(id(0, 0), id(0, 1)), 1.0);
        assert_eq!(board.measurement_score(id(9, 9)), None);
    }

    #[test]
    fn weighted_system_score_generalizes_the_mean() {
        let (a, b, c) = (id(0, 0), id(0, 1), id(1, 0));
        let mut board = ScoreBoard::new(Timestamp::EPOCH);
        board.record(pair(a, b), 0.9);
        board.record(pair(a, c), 0.6);
        board.record(pair(b, c), 0.3);
        // Uniform weights reproduce the plain system score.
        let uniform = board.weighted_system_score(&BTreeMap::new()).unwrap();
        assert!((uniform - board.system_score().unwrap()).abs() < 1e-12);
        // Down-weighting the weakest measurement (c) raises the score.
        let mut weights = BTreeMap::new();
        weights.insert(c, 0.1);
        let weighted = board.weighted_system_score(&weights).unwrap();
        assert!(
            weighted > uniform,
            "weighted {weighted} vs uniform {uniform}"
        );
        // Zero weight everywhere -> no score.
        let mut zeroes = BTreeMap::new();
        for m in [a, b, c] {
            zeroes.insert(m, 0.0);
        }
        assert_eq!(board.weighted_system_score(&zeroes), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let mut board = ScoreBoard::new(Timestamp::EPOCH);
        board.record(pair(id(0, 0), id(0, 1)), 0.5);
        let mut weights = BTreeMap::new();
        weights.insert(id(0, 0), -1.0);
        board.weighted_system_score(&weights);
    }

    #[test]
    fn merge_of_disjoint_partials_matches_single_board() {
        let (a, b, c) = (id(0, 0), id(0, 1), id(1, 0));
        let mut whole = ScoreBoard::new(Timestamp::EPOCH);
        whole.record(pair(a, b), 0.9);
        whole.record(pair(a, c), 0.6);
        whole.record(pair(b, c), 0.3);

        let mut left = ScoreBoard::new(Timestamp::EPOCH);
        left.record(pair(a, b), 0.9);
        let mut right = ScoreBoard::new(Timestamp::EPOCH);
        right.record(pair(a, c), 0.6);
        right.record(pair(b, c), 0.3);
        left.merge(right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "different instants")]
    fn merge_rejects_mismatched_instants() {
        let mut left = ScoreBoard::new(Timestamp::EPOCH);
        left.merge(ScoreBoard::new(Timestamp::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn merge_rejects_overlapping_pairs() {
        let p = pair(id(0, 0), id(0, 1));
        let mut left = ScoreBoard::new(Timestamp::EPOCH);
        left.record(p, 0.5);
        let mut right = ScoreBoard::new(Timestamp::EPOCH);
        right.record(p, 0.7);
        left.merge(right);
    }

    #[test]
    fn recording_same_pair_overwrites() {
        let mut board = ScoreBoard::new(Timestamp::EPOCH);
        let p = pair(id(0, 0), id(0, 1));
        board.record(p, 0.2);
        board.record(p, 0.8);
        assert_eq!(board.pair_score(p), Some(0.8));
        assert_eq!(board.len(), 1);
    }
}
