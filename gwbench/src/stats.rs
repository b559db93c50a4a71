//! Order statistics over measured samples.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Samples beyond a reported tail percentile, at least.
pub const MIN_BEYOND: usize = 10;

/// A set of measured values (any unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-th percentile (0 when empty).
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        self.values[rank(n, q).clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest percentile of [`TAIL_LADDER`] that leaves at least
    /// [`MIN_BEYOND`] samples above it, with its value. Falls back to the
    /// median when even the lowest rung is too thin.
    pub fn tail(&mut self) -> Tail {
        let n = self.values.len();
        let q = TAIL_LADDER
            .iter()
            .copied()
            .find(|&q| beyond(n, q) >= MIN_BEYOND)
            .unwrap_or(50.0);
        Tail {
            q,
            value: self.percentile(q),
            samples: n,
            beyond: beyond(n, q),
        }
    }
}

/// The 1-based nearest rank of the `q`-th percentile of `n` samples
/// (the tolerance keeps `99.9% of 10000` from rounding up to 9991).
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Samples strictly above the nearest-rank `q`-th percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub q: f64,
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
    /// How many of them lie beyond it.
    pub beyond: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples ({} beyond)",
            self.q, self.samples, self.beyond
        )
    }
}

/// The median of a small set, by value (0 when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    values.iter().for_each(|&v| s.push(v));
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        (1..=n).for_each(|v| s.push(v as f64));
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = samples(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples::new().percentile(50.0), 0.0);
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond() {
        let t = samples(1000).tail();
        assert_eq!((t.q, t.value, t.samples, t.beyond), (99.0, 990.0, 1000, 10));
        let t = samples(10_000).tail();
        assert_eq!((t.q, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_steps_down_when_p99_is_thin() {
        // 999 samples leave only 9 beyond p99; p98 leaves 19.
        let t = samples(999).tail();
        assert_eq!((t.q, t.beyond, t.samples), (98.0, 19, 999));
        // 200 samples: p95 leaves exactly 10.
        let t = samples(200).tail();
        assert_eq!((t.q, t.value, t.beyond), (95.0, 190.0, 10));
        // Too few for any rung: the median, honestly labelled.
        let t = samples(20).tail();
        assert_eq!((t.q, t.beyond), (50.0, 10));
        assert_eq!(t.to_string(), "p50 of 20 samples (10 beyond)");
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
    }
}
