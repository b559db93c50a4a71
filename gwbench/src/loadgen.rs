//! The open-loop load generator's schedule and latency accounting.
//!
//! Snapshot `i` is due at `start + i * interval`, whatever happened to
//! earlier ones. Latency runs from the due time to the report, so a stall
//! anywhere — in the program or in a call the generator had to wait on —
//! is charged to every snapshot that became due during it. Lag is the
//! generator's own lateness: how long after a snapshot was both due and
//! the generator free of program calls the send began. A run whose lag
//! p99 exceeds [`LAG_LIMIT_MS`] is invalid, not scored.

use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Generator lag p99 above which a run is invalid.
pub const LAG_LIMIT_MS: f64 = 10.0;

/// How long before a due time the generator stops sleeping and spins:
/// waking from a sleep on this host is often tens of microseconds late,
/// which would otherwise count as latency of the snapshot.
pub const SPIN: Duration = Duration::from_micros(200);

/// Blocks until `due`: sleeps until [`SPIN`] before it, then spins.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Schedule plus per-snapshot bookkeeping of one open-loop run.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    lag_ms: Samples,
    latency_ms: Vec<Option<f64>>,
}

impl OpenLoop {
    /// A schedule of `rate` snapshots per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            lag_ms: Samples::new(),
            latency_ms: Vec::new(),
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Records that snapshot `i`'s send began at `started`, the
    /// generator having been free of program calls since `free_since`.
    pub fn sent(&mut self, i: usize, free_since: Instant, started: Instant) {
        let ready = self.due(i).max(free_since);
        self.lag_ms
            .push(started.saturating_duration_since(ready).as_secs_f64() * 1e3);
    }

    /// Records that snapshot `i`'s report arrived at `at`.
    pub fn received(&mut self, i: usize, at: Instant) {
        if self.latency_ms.len() <= i {
            self.latency_ms.resize(i + 1, None);
        }
        self.latency_ms[i] = Some(at.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3);
    }

    /// Due-time latencies of every snapshot with a report, in ms, in
    /// schedule order.
    pub fn latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().flatten().copied().collect()
    }

    pub fn lag_p99_ms(&mut self) -> f64 {
        self.lag_ms.percentile(99.0)
    }

    /// Lag p50, p99 and maximum, in ms.
    pub fn lag_summary(&mut self) -> [f64; 3] {
        [
            self.lag_ms.percentile(50.0),
            self.lag_ms.percentile(99.0),
            self.lag_ms.max(),
        ]
    }

    pub fn valid(&mut self) -> bool {
        self.lag_p99_ms() <= LAG_LIMIT_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A single-threaded generator driving a FIFO server with the given
    /// service times: the send call blocks while the server is busy.
    fn drive(rate: f64, service_ms: &[u64]) -> OpenLoop {
        let t0 = Instant::now();
        let mut run = OpenLoop::new(t0, rate);
        let mut clock = t0;
        for (i, &service) in service_ms.iter().enumerate() {
            let free_since = clock;
            let started = clock.max(run.due(i));
            run.sent(i, free_since, started);
            clock = started + ms(service);
            run.received(i, clock);
        }
        run
    }

    #[test]
    fn one_stalled_reply_delays_the_snapshots_queued_behind_it() {
        // 100 snapshots/s; snapshot 2 takes 50 ms, the rest 1 ms.
        let mut service = vec![1; 8];
        service[2] = 50;
        let run = drive(100.0, &service);
        let lat: Vec<f64> = run.latency_ms.iter().map(|v| v.unwrap()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(lat[1], 1.0));
        assert!(close(lat[2], 50.0));
        // Snapshots 3..=6 fell due during the stall; each waits for it.
        assert!(close(lat[3], 41.0), "{lat:?}");
        assert!(close(lat[4], 32.0));
        assert!(close(lat[5], 23.0));
        assert!(close(lat[6], 14.0));
        assert!(close(lat[7], 5.0));
    }

    #[test]
    fn waiting_on_the_program_is_not_generator_lag() {
        let mut service = vec![1; 8];
        service[2] = 50;
        let mut run = drive(100.0, &service);
        assert_eq!(run.lag_p99_ms(), 0.0);
        assert!(run.valid());
    }

    #[test]
    fn a_late_generator_invalidates_the_run() {
        let t0 = Instant::now();
        let mut run = OpenLoop::new(t0, 1000.0);
        for i in 0..100 {
            // Free all along, yet every send starts 12 ms late.
            run.sent(i, t0, run.due(i) + ms(12));
        }
        assert!(run.lag_p99_ms() >= 12.0);
        assert!(!run.valid());
    }

    #[test]
    fn missing_reports_are_not_latency_samples() {
        let t0 = Instant::now();
        let mut run = OpenLoop::new(t0, 10.0);
        run.received(0, t0 + ms(3));
        run.received(4, t0 + ms(403));
        let lat = run.latencies();
        assert_eq!(lat.len(), 2);
        assert!((lat[0] - 3.0).abs() < 1e-9);
    }
}
