//! Digests of report streams, for checking a run against a reference.
//!
//! A stream digest is a chain: each report's bytes (instant, per-pair
//! fitness bits, system score bits, and optionally its alarms) are folded
//! into a running FNV-1a hash, and the running value is kept after every
//! [`STRIDE`] reports. Two streams agree on a prefix of `k * STRIDE`
//! reports exactly when their first `k` chain values agree, so a run of
//! any length can be checked against a golden chain of the full stream.

use gridwatch_detect::StepReport;

/// Reports per chain link.
pub const STRIDE: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What of a report the digest covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Scores and alarms: the whole report.
    Full,
    /// Scores only — for streams whose alarm state depends on how
    /// independent sources interleave.
    Scores,
}

/// A running chain over one report stream.
#[derive(Debug, Clone)]
pub struct Chain {
    coverage: Coverage,
    hash: u64,
    reports: usize,
    links: Vec<u64>,
}

impl Chain {
    pub fn new(coverage: Coverage) -> Chain {
        Chain {
            coverage,
            hash: FNV_OFFSET,
            reports: 0,
            links: Vec::new(),
        }
    }

    pub fn push(&mut self, report: &StepReport) {
        let mut h = fold(self.hash, &report.scores.at().as_secs().to_le_bytes());
        for (pair, fitness) in report.scores.pair_scores() {
            h = fold(h, pair.to_string().as_bytes());
            h = fold(h, &fitness.to_bits().to_le_bytes());
        }
        let system = report.scores.system_score().map_or(u64::MAX, f64::to_bits);
        h = fold(h, &system.to_le_bytes());
        if self.coverage == Coverage::Full {
            for alarm in &report.alarms {
                h = fold(h, alarm.level.to_string().as_bytes());
                h = fold(h, &alarm.at.as_secs().to_le_bytes());
                h = fold(h, &alarm.score.to_bits().to_le_bytes());
            }
        }
        self.hash = h;
        self.reports += 1;
        if self.reports.is_multiple_of(STRIDE) {
            self.links.push(h);
        }
    }

    /// Chain values after every full stride.
    pub fn links(&self) -> &[u64] {
        &self.links
    }
}

/// Reports in the longest prefix of whole links on which `observed`
/// agrees with `reference`. A link the reference does not have
/// disagrees.
pub fn agree(observed: &[u64], reference: &[u64]) -> usize {
    let links = observed
        .iter()
        .zip(reference)
        .take_while(|(a, b)| a == b)
        .count();
    links * STRIDE
}

/// Snapshots offered without a correct report: rejected, dropped,
/// undecodable and missing ones never reach the chain, and a wrong or
/// misplaced report breaks every link after it.
pub fn failed(offered: usize, matched: usize) -> usize {
    offered - matched.min(offered)
}

/// Renders links one hex value per line (the golden file format).
pub fn render(links: &[u64]) -> String {
    links.iter().map(|l| format!("{l:016x}\n")).collect()
}

/// Parses the golden file format; `None` on any malformed line.
pub fn parse(text: &str) -> Option<Vec<u64>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| u64::from_str_radix(l.trim(), 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_detect::{AlarmEvent, AlarmLevel, ScoreBoard};
    use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, MetricKind, Timestamp};

    fn report(k: u64, fitness: f64, alarmed: bool) -> StepReport {
        let a = MeasurementId::new(MachineId::new(0), MetricKind::Custom(0));
        let b = MeasurementId::new(MachineId::new(1), MetricKind::Custom(0));
        let mut scores = ScoreBoard::new(Timestamp::from_secs(k * 360));
        scores.record(MeasurementPair::new(a, b).expect("distinct"), fitness);
        let alarms = if alarmed {
            vec![AlarmEvent {
                at: Timestamp::from_secs(k * 360),
                level: AlarmLevel::System,
                score: fitness,
                threshold: 0.6,
            }]
        } else {
            Vec::new()
        };
        StepReport { scores, alarms }
    }

    fn chain(coverage: Coverage, n: u64, tweak: impl Fn(u64) -> (f64, bool)) -> Chain {
        let mut c = Chain::new(coverage);
        for k in 0..n {
            let (f, alarmed) = tweak(k);
            c.push(&report(k, f, alarmed));
        }
        c
    }

    #[test]
    fn identical_streams_give_identical_chains() {
        let a = chain(Coverage::Full, 40, |k| (k as f64 / 40.0, k == 7));
        let b = chain(Coverage::Full, 40, |k| (k as f64 / 40.0, k == 7));
        assert_eq!(a.links().len(), 2);
        assert_eq!(a.links(), b.links());
        assert_eq!(agree(a.links(), b.links()), 32);
    }

    #[test]
    fn one_flipped_bit_breaks_every_later_link() {
        let good = chain(Coverage::Full, 48, |k| (k as f64 / 48.0, false));
        let bad = chain(Coverage::Full, 48, |k| {
            let f = k as f64 / 48.0;
            (
                if k == 20 {
                    f64::from_bits(f.to_bits() ^ 1)
                } else {
                    f
                },
                false,
            )
        });
        assert_eq!(agree(bad.links(), good.links()), 16);
    }

    #[test]
    fn alarms_count_only_under_full_coverage() {
        let quiet = |c| chain(c, 16, |_| (0.5, false));
        let loud = |c| chain(c, 16, |k| (0.5, k == 3));
        assert_ne!(quiet(Coverage::Full).links(), loud(Coverage::Full).links());
        assert_eq!(
            quiet(Coverage::Scores).links(),
            loud(Coverage::Scores).links()
        );
    }

    #[test]
    fn a_prefix_agrees_with_the_longer_reference() {
        let full = chain(Coverage::Full, 64, |k| (k as f64 / 64.0, false));
        let prefix = chain(Coverage::Full, 35, |k| (k as f64 / 64.0, false));
        assert_eq!(agree(prefix.links(), full.links()), 32);
        // Observed links past the end of the reference disagree.
        assert_eq!(failed(64, agree(full.links(), prefix.links())), 32);
    }

    #[test]
    fn failures_count_missing_and_mismatched_snapshots() {
        let good = chain(Coverage::Full, 64, |k| (k as f64 / 64.0, false));
        assert_eq!(failed(64, agree(good.links(), good.links())), 0);
        // Snapshot 40 got no report: everything after it is misplaced.
        let mut lossy = Chain::new(Coverage::Full);
        for k in (0..64).filter(|&k| k != 40) {
            lossy.push(&report(k, k as f64 / 64.0, false));
        }
        assert_eq!(failed(64, agree(lossy.links(), good.links())), 32);
        // Offered but never reported at all.
        assert_eq!(failed(64, agree(&good.links()[..2], good.links())), 32);
        // A wrong score in the first stride fails the whole run.
        let bad = chain(Coverage::Full, 64, |k| {
            (if k == 0 { 0.9 } else { k as f64 / 64.0 }, false)
        });
        assert_eq!(failed(64, agree(bad.links(), good.links())), 64);
    }

    #[test]
    fn golden_format_round_trips_and_catches_corruption() {
        let c = chain(Coverage::Full, 32, |k| (k as f64 / 32.0, false));
        let text = render(c.links());
        assert_eq!(parse(&text).as_deref(), Some(c.links()));
        assert_eq!(parse("zz\n"), None);
        // A corrupted golden link makes an honest run disagree.
        let mut corrupted = c.links().to_vec();
        corrupted[1] ^= 1;
        assert_eq!(agree(c.links(), &corrupted), 16);
    }
}
