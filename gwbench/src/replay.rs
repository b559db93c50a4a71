//! `replay`: closed-loop backfill through an in-process `ShardedEngine`.

use std::time::{Duration, Instant};

use gridwatch_detect::{DetectionEngine, StepReport};
use gridwatch_serve::{BackpressurePolicy, ServeConfig, ShardedEngine};

use crate::digest::STRIDE;
use crate::inputs::Inputs;
use crate::spans::SpanLog;
use crate::{Live, SETUPS};

pub const SHARDS: usize = 2;
const QUEUE_CAPACITY: usize = 64;

fn start(inputs: &Inputs) -> (ShardedEngine, f64) {
    let histories = inputs.histories.clone();
    let t = Instant::now();
    let trained = DetectionEngine::train(histories, inputs.config).expect("replay pairs train");
    let engine = ShardedEngine::start(
        trained.snapshot(),
        ServeConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            backpressure: BackpressurePolicy::Block,
            sampling: None,
        },
    );
    (engine, t.elapsed().as_secs_f64())
}

/// Submits snapshots back to back for `seconds` (rounded up to a whole
/// digest stride), then drains every report.
pub fn run(inputs: &Inputs, seconds: f64, spans: &mut SpanLog) -> Live {
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        if let Some(previous) = engine.take() {
            let _ = ShardedEngine::shutdown(previous);
        }
        let (e, s) = start(inputs);
        setup_s.push(s);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    let cpu0 = crate::process_cpu_s();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let mut submitted_at = Vec::new();
    let mut received_at = Vec::new();
    let mut reports: Vec<StepReport> = Vec::new();
    let mut rejected = 0usize;
    for (i, snap) in inputs.stream.iter().enumerate() {
        if i % STRIDE == 0 && Instant::now() >= deadline {
            break;
        }
        submitted_at.push(Instant::now());
        let report = spans.time("serve.engine.submit", None, i as u64, || {
            engine.submit(snap.clone())
        });
        if !report.accepted() {
            rejected += 1;
        }
        while let Some(r) = engine.try_recv_report() {
            received_at.push(Instant::now());
            reports.push(r);
        }
    }
    let offered = submitted_at.len();
    while reports.len() + rejected < offered {
        match engine.recv_report_timeout(Duration::from_secs(30)) {
            Some(r) => {
                received_at.push(Instant::now());
                reports.push(r);
            }
            None => break,
        }
    }
    let cpu_s = crate::process_cpu_s() - cpu0;
    let received_s = received_at
        .iter()
        .map(|at| at.duration_since(begin).as_secs_f64())
        .collect();
    // Closed loop: a snapshot is due when it is submitted.
    let latency_ms = submitted_at
        .iter()
        .zip(&received_at)
        .map(|(sent, got)| got.duration_since(*sent).as_secs_f64() * 1e3)
        .collect();
    let stats = engine.stats();
    let (rest, _) = engine.shutdown();
    reports.extend(rest);
    Live {
        offered,
        reports,
        received_s,
        latency_ms,
        setup_s,
        cpu_s,
        serve_stats: Some(stats),
        ..Live::default()
    }
}
