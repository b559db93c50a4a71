//! `ingest`: a `NetServer` on loopback fed open-loop by one generator
//! thread over two connections, one JSON and one CSV.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gridwatch_detect::{DetectionEngine, Snapshot, StepReport};
use gridwatch_obs::PipelineObs;
use gridwatch_serve::{
    encode_csv, encode_json, BackpressurePolicy, NetConfig, NetServer, ServeConfig, WireFrame,
};

use crate::digest::STRIDE;
use crate::inputs::Inputs;
use crate::loadgen::OpenLoop;
use crate::spans::{Span, SpanLog};
use crate::stats::Samples;
use crate::{Live, SETUPS};

/// Offered frames per second, both sources together.
pub const RATE: f64 = 1000.0;

/// Source names, indexed like [`crate::inputs::ingest_source_of`].
pub const SOURCES: [&str; 2] = ["json", "csv"];

/// Frame `i` carries tick `i / 2` of source `i % 2`. The `csv` source
/// stamps its snapshots one second after the tick, so a report's instant
/// names the frame it answers.
pub fn frames(per_source: &[Vec<Snapshot>; 2]) -> Vec<WireFrame> {
    let ticks = per_source[0].len().min(per_source[1].len());
    (0..2 * ticks)
        .map(|i| {
            let (source, tick) = (i % 2, i / 2);
            let original = &per_source[source][tick];
            let mut snapshot = Snapshot::new(gridwatch_timeseries::Timestamp::from_secs(
                original.at().as_secs() + source as u64,
            ));
            for (id, v) in original.iter() {
                snapshot.insert(id, v);
            }
            WireFrame {
                source: SOURCES[source].to_string(),
                seq: tick as u64,
                snapshot,
            }
        })
        .collect()
}

fn start(inputs: &Inputs) -> (NetServer, f64) {
    let histories = inputs.histories.clone();
    let t = Instant::now();
    let trained = DetectionEngine::train(histories, inputs.config).expect("ingest pairs train");
    let server = NetServer::bind_with_obs(
        "127.0.0.1:0",
        trained.snapshot(),
        ServeConfig {
            shards: 2,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            sampling: None,
        },
        NetConfig::default(),
        BTreeMap::new(),
        PipelineObs::enabled(),
    )
    .expect("bind loopback listener");
    (server, t.elapsed().as_secs_f64())
}

/// What the generator thread measured.
struct Sent {
    run: OpenLoop,
    frame_bytes: Samples,
    spans: Vec<Span>,
}

/// Sends `frames` on schedule, alternating the two connections.
fn generate(addr: SocketAddr, frames: &[WireFrame], run: OpenLoop, traced: bool) -> Sent {
    let mut conns = [0, 1].map(|_| {
        let c = TcpStream::connect(addr).expect("connect to listener");
        c.set_nodelay(true).expect("set TCP_NODELAY");
        c
    });
    let mut sent = Sent {
        run,
        frame_bytes: Samples::new(),
        spans: Vec::new(),
    };
    let mut spans = SpanLog::new(traced);
    let mut free_since = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        crate::loadgen::wait_until(sent.run.due(i));
        sent.run.sent(i, free_since, Instant::now());
        let bytes = if i % 2 == 0 {
            spans.time("serve.wire.encode_json", None, i as u64, || {
                encode_json(frame).expect("valid frame")
            })
        } else {
            spans.time("serve.wire.encode_csv", None, i as u64, || {
                encode_csv(frame).expect("valid frame").into_bytes()
            })
        };
        sent.frame_bytes.push(bytes.len() as f64);
        conns[i % 2]
            .write_all(&bytes)
            .expect("listener accepts frames");
        free_since = Instant::now();
    }
    sent.spans = spans.spans().to_vec();
    sent
}

pub fn run(inputs: &Inputs, frames: &[WireFrame], seconds: f64, spans: &mut SpanLog) -> Live {
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            let _ = NetServer::shutdown(previous);
        }
        let (s, t) = start(inputs);
        setup_s.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let wanted = (RATE * seconds).ceil() as usize;
    let offered = wanted.next_multiple_of(2 * STRIDE).min(frames.len());
    let frames = &frames[..offered];
    let index: BTreeMap<u64, usize> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (f.snapshot.at().as_secs(), i))
        .collect();

    let cpu0 = crate::process_cpu_s();
    let begin = Instant::now() + Duration::from_millis(20);
    let run = OpenLoop::new(begin, RATE);
    let traced = spans.enabled();
    let mut received: Vec<(usize, Instant, StepReport)> = Vec::new();
    let sent = std::thread::scope(|scope| {
        let addr = server.local_addr();
        let generator = scope.spawn(move || generate(addr, frames, run, traced));
        while received.len() < offered {
            match server.recv_report_timeout(Duration::from_secs(10)) {
                Some(r) => {
                    let at = Instant::now();
                    let i = index
                        .get(&r.scores.at().as_secs())
                        .copied()
                        .unwrap_or(usize::MAX);
                    received.push((i, at, r));
                }
                None => break,
            }
        }
        generator.join().expect("generator thread")
    });
    let cpu_s = crate::process_cpu_s() - cpu0;
    let stats = server.stats();
    let tracer = server.obs().tracer.snapshot();
    let (rest, _) = server.shutdown();

    let mut run = sent.run;
    for (i, at, _) in &received {
        if *i < offered {
            run.received(*i, *at);
        }
    }
    let received_s = received
        .iter()
        .map(|(_, at, _)| at.saturating_duration_since(begin).as_secs_f64())
        .collect();
    for s in sent.spans {
        spans.record(s);
    }
    let mut reports: Vec<(usize, StepReport)> =
        received.into_iter().map(|(i, _, r)| (i, r)).collect();
    reports.extend(rest.into_iter().map(|r| (usize::MAX, r)));
    Live {
        offered,
        received_s,
        latency_ms: run.latencies(),
        setup_s,
        lag_ms: Some(run.lag_summary()),
        lag_valid: run.valid(),
        cpu_s,
        serve_stats: Some(stats),
        tracer: Some(tracer),
        frame_bytes: sent.frame_bytes,
        indexed_reports: reports,
        ..Live::default()
    }
}
