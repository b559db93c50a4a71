//! `fabric`: a `Coordinator` with two in-process `ShardWorker`s over
//! loopback, fed open-loop, checkpointing and appending every report to
//! a history store as it goes.

use std::collections::BTreeMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridwatch_detect::{DetectionEngine, StepReport};
use gridwatch_obs::{ExemplarConfig, ExemplarTracer, PipelineObs, Stage, Tracer};
use gridwatch_serve::{
    Coordinator, FabricConfig, FabricStats, HistoryDepth, HistorySink, ShardWorker,
};
use gridwatch_store::StoreConfig;

use crate::digest::STRIDE;
use crate::inputs::Inputs;
use crate::loadgen::{OpenLoop, SPIN};
use crate::spans::SpanLog;
use crate::{Live, SETUPS};

/// Offered snapshots per second.
pub const RATE: f64 = 400.0;

/// Snapshots between coordinator checkpoints (and store seals and
/// exemplar drains).
pub const CHECKPOINT_EVERY: usize = 400;

/// A running fabric: the coordinator and its worker threads.
struct Fabric {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<()>>,
}

impl Fabric {
    fn stop(self) -> (Vec<StepReport>, FabricStats) {
        let out = self.coordinator.shutdown(true);
        for w in self.workers {
            w.join().expect("shard worker thread");
        }
        out
    }
}

fn start(inputs: &Inputs, obs: &PipelineObs) -> (Fabric, f64) {
    let histories = inputs.histories.clone();
    let t = Instant::now();
    let trained = DetectionEngine::train(histories, inputs.config).expect("fabric pairs train");
    let mut addrs = Vec::new();
    let mut workers = Vec::new();
    for _ in 0..2 {
        let worker = ShardWorker::bind("127.0.0.1:0").expect("bind shard worker");
        addrs.push(worker.local_addr().to_string());
        workers.push(std::thread::spawn(move || {
            worker.run().expect("shard worker serves its session");
        }));
    }
    let coordinator = Coordinator::connect_with_obs(
        trained.snapshot(),
        &addrs,
        FabricConfig::default(),
        obs.clone(),
    )
    .expect("coordinator connects to its workers");
    (
        Fabric {
            coordinator,
            workers,
        },
        t.elapsed().as_secs_f64(),
    )
}

/// Retained exemplars seen so far, by sequence number, with whether
/// each covers all seven stages.
#[derive(Default)]
struct Exemplars {
    next_index: u64,
    complete: BTreeMap<u64, bool>,
}

impl Exemplars {
    fn collect(&mut self, tracer: &ExemplarTracer) {
        let (base, traces) = tracer.snapshot_indexed();
        for (offset, trace) in traces.iter().enumerate() {
            if base + offset as u64 >= self.next_index {
                let complete = Stage::ALL
                    .iter()
                    .all(|stage| trace.spans.iter().any(|s| s.stage == stage.name()));
                self.complete.insert(trace.seq, complete);
            }
        }
        self.next_index = self.next_index.max(base + traces.len() as u64);
    }
}

/// Periodic durable state: coordinator checkpoint, store seal, and the
/// exemplar drain. Returns the coordinator checkpoint's duration in ms.
fn checkpoint(
    fabric: &mut Fabric,
    sink: &mut HistorySink,
    exemplars: &mut Exemplars,
    obs: &PipelineObs,
    dir: &Path,
    spans: &mut SpanLog,
    at: usize,
) -> f64 {
    let snap = at as u64;
    let t = Instant::now();
    spans
        .time("serve.coordinator.checkpoint", None, snap, || {
            fabric.coordinator.checkpoint(dir)
        })
        .expect("fabric checkpoint");
    let ckpt_ms = t.elapsed().as_secs_f64() * 1e3;
    spans
        .time("serve.history.checkpoint", None, snap, || sink.checkpoint())
        .expect("store seal");
    sink.drain_exemplars(&obs.exemplar).expect("exemplar drain");
    exemplars.collect(&obs.exemplar);
    ckpt_ms
}

/// Fabric-only results.
#[derive(Debug, Default)]
pub struct FabricExtra {
    pub stats: FabricStats,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_valid: bool,
    pub checkpoint_problems: Vec<String>,
    pub store_healthy: bool,
    pub store_problems: Vec<String>,
    pub store_bytes: u64,
    pub exemplars_retained: u64,
    pub pending_evicted: u64,
    pub alarmed_reports: usize,
    pub alarmed_missing: usize,
    pub incomplete: usize,
}

pub fn run(inputs: &Inputs, out_dir: &Path, seconds: f64, spans: &mut SpanLog) -> Live {
    let obs = PipelineObs {
        tracer: Tracer::enabled(),
        exemplar: ExemplarTracer::enabled(ExemplarConfig {
            ring_capacity: 4096,
            ..ExemplarConfig::default()
        }),
        ..PipelineObs::default()
    };
    let mut setup_s = Vec::new();
    let mut fabric = None;
    for _ in 0..SETUPS {
        if let Some(previous) = fabric.take() {
            let _ = Fabric::stop(previous);
        }
        let (f, t) = start(inputs, &obs);
        setup_s.push(t);
        fabric = Some(f);
    }
    let mut fabric = fabric.expect("at least one set-up");
    let ckpt_dir = out_dir.join("checkpoint");
    let store_dir = out_dir.join("store");
    let (mut sink, _) = HistorySink::open(
        &store_dir,
        StoreConfig::default(),
        HistoryDepth::Measurements,
    )
    .expect("open history store");
    let mut exemplars = Exemplars::default();
    let mut checkpoint_ms = Vec::new();

    let wanted = (RATE * seconds).ceil() as usize;
    let offered = wanted.next_multiple_of(STRIDE).min(inputs.stream.len());
    let cpu0 = crate::process_cpu_s();
    let begin = Instant::now();
    let mut run = OpenLoop::new(begin, RATE);
    let mut reports: Vec<StepReport> = Vec::new();
    let mut received_at: Vec<Instant> = Vec::new();
    let mut free_since = begin;
    let mut next = 0usize;
    let mut accept = |report: StepReport,
                      sink: &mut HistorySink,
                      spans: &mut SpanLog,
                      reports: &mut Vec<StepReport>| {
        received_at.push(Instant::now());
        let k = reports.len() as u64;
        spans
            .time("serve.history.append", None, k, || {
                sink.append_report(&report)
            })
            .expect("store append");
        reports.push(report);
    };
    while reports.len() < offered {
        let now = Instant::now();
        if next < offered && now >= run.due(next) {
            run.sent(next, free_since, now);
            let snap = inputs.stream[next].clone();
            spans
                .time("serve.coordinator.submit", None, next as u64, || {
                    fabric.coordinator.submit(snap)
                })
                .expect("fabric submit");
            next += 1;
            if next.is_multiple_of(CHECKPOINT_EVERY) {
                checkpoint_ms.push(checkpoint(
                    &mut fabric,
                    &mut sink,
                    &mut exemplars,
                    &obs,
                    &ckpt_dir,
                    spans,
                    next,
                ));
            }
        } else {
            // Idle until the next due time: block for reports until
            // SPIN before it, then poll. A wait that ends without a
            // report is idling, so it does not reset `free_since`.
            let report = match next < offered {
                true if run.due(next) <= now + SPIN => {
                    fabric.coordinator.try_recv_report().or_else(|| {
                        std::hint::spin_loop();
                        None
                    })
                }
                true => fabric
                    .coordinator
                    .recv_report_timeout(run.due(next) - now - SPIN),
                false => match fabric
                    .coordinator
                    .recv_report_timeout(Duration::from_secs(10))
                {
                    None => break,
                    some => some,
                },
            };
            match report {
                Some(r) => accept(r, &mut sink, spans, &mut reports),
                None => continue,
            }
        }
        free_since = Instant::now();
    }
    let cpu_s = crate::process_cpu_s() - cpu0;
    for (i, at) in received_at.iter().enumerate() {
        run.received(i, *at);
    }
    let received_s = received_at
        .iter()
        .map(|at| at.duration_since(begin).as_secs_f64())
        .collect();

    // Final durable state, then validate what was written.
    checkpoint_ms.push(checkpoint(
        &mut fabric,
        &mut sink,
        &mut exemplars,
        &obs,
        &ckpt_dir,
        spans,
        offered,
    ));
    let tracer = obs.tracer.snapshot();
    let (rest, stats) = fabric.stop();
    for r in rest {
        sink.append_report(&r).expect("store append");
        reports.push(r);
    }
    sink.checkpoint().expect("store seal");
    drop(sink);
    exemplars.collect(&obs.exemplar);

    let ckpt = gridwatch_audit::checkpoint::validate_checkpoint(&ckpt_dir);
    let store = gridwatch_store::validate_store(&store_dir).expect("store directory is readable");
    let alarmed: Vec<u64> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.alarms.is_empty())
        .map(|(k, _)| k as u64)
        .collect();
    let extra = FabricExtra {
        stats,
        checkpoint_ms,
        checkpoint_valid: ckpt.is_valid(),
        checkpoint_problems: ckpt.problems,
        store_healthy: store.is_healthy(),
        store_problems: store.problems,
        store_bytes: dir_bytes(&store_dir),
        exemplars_retained: obs.exemplar.posture().retained,
        pending_evicted: obs.exemplar.pending_evicted(),
        alarmed_reports: alarmed.len(),
        alarmed_missing: alarmed
            .iter()
            .filter(|k| !exemplars.complete.contains_key(k))
            .count(),
        incomplete: exemplars.complete.values().filter(|c| !**c).count(),
    };
    Live {
        offered,
        reports,
        received_s,
        latency_ms: run.latencies(),
        setup_s,
        lag_ms: Some(run.lag_summary()),
        lag_valid: run.valid(),
        cpu_s,
        tracer: Some(tracer),
        fabric: Some(extra),
        ..Live::default()
    }
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}
