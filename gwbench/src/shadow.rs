//! Shadow replays for the traced run. Layers that run inside program
//! threads (shard scoring, merge, decode, sequencing, board codec) are
//! replayed on the benchmark thread through their public functions, on
//! the same generated inputs, each call wrapped in a span.

use std::time::{Duration, Instant};

use gridwatch_core::fitness::score_row;
use gridwatch_detect::{
    AlarmTracker, DetectionEngine, EngineConfig, EngineSnapshot, ScoreBoard, Snapshot,
};
use gridwatch_serve::{
    decode_response, encode_csv, encode_json, encode_response, BoardFrame, FabricResponse,
    FrameDecoder, ShardRouter, SourceTable, WireFrame, WireProtocol,
};
use gridwatch_timeseries::Point2;

use crate::spans::SpanLog;
use crate::stats::Samples;

/// Counts from the core shadow.
#[derive(Debug, Default)]
pub struct CoreCounts {
    pub pair_steps: u64,
    pub updated: u64,
    pub extensions: u64,
    pub cells: Samples,
    pub destinations: Samples,
}

/// Replays `stream` through clones of the trained pair models: per
/// pair-step, `GridStructure::locate`, `TransitionMatrix::compute_row`
/// and `fitness::score_row` on the state before the step, then
/// `TransitionModel::observe` itself.
pub fn core(trained: &EngineSnapshot, stream: &[Snapshot], spans: &mut SpanLog) -> CoreCounts {
    let mut models = trained.models.clone();
    let mut counts = CoreCounts::default();
    for (i, snap) in stream.iter().enumerate() {
        let i = i as u64;
        for (pair, model) in models.iter_mut() {
            let (Some(x), Some(y)) = (snap.value(pair.first()), snap.value(pair.second())) else {
                continue;
            };
            let p = Point2::new(x, y);
            let step = spans.open("core.pair_step", None, i);
            let dest = spans.time("grid.locate", Some(step), i, || model.grid().locate(p));
            if let (Some(from), Some(to)) = (model.last_cell(), dest) {
                let row = spans.time("core.row_compute", Some(step), i, || {
                    model.matrix().compute_row(model.grid(), from)
                });
                spans.time("core.rank", Some(step), i, || {
                    std::hint::black_box(score_row(&row, to))
                });
            }
            let outcome = spans.time("core.observe", Some(step), i, || model.observe(p));
            spans.close(step);
            counts.pair_steps += 1;
            counts.updated += u64::from(outcome.updated);
            counts.extensions += u64::from(outcome.extended);
            counts.cells.push(model.grid().cell_count() as f64);
            let rows = model.matrix().observed_rows().max(1);
            counts
                .destinations
                .push(model.matrix().distinct_entries() as f64 / rows as f64);
        }
    }
    counts
}

/// Counts from the detect shadow.
#[derive(Debug, Default)]
pub struct DetectCounts {
    pub pair_steps: u64,
    pub drift_rebuilds: u64,
    /// Snapshots replayed before the time budget ran out.
    pub snapshots: usize,
    /// Each snapshot's partial boards, one per shard.
    pub boards: Vec<Vec<ScoreBoard>>,
}

/// Partitions the trained models with `ShardRouter::partition` into one
/// `DetectionEngine` per shard and replays `stream`: `step_scores` per
/// shard, `ScoreBoard::merge`, `AlarmTracker::evaluate` — until the
/// stream ends or `budget` has passed.
pub fn detect(
    trained: &EngineSnapshot,
    shards: usize,
    stream: &[Snapshot],
    budget: Duration,
    keep_boards: bool,
    spans: &mut SpanLog,
) -> DetectCounts {
    let begin = Instant::now();
    let config = EngineConfig {
        parallel: false,
        ..trained.config
    };
    let parts = spans.time("serve.router.partition", None, 0, || {
        ShardRouter::new(shards).partition(trained.models.clone())
    });
    let mut engines: Vec<DetectionEngine> = parts
        .into_iter()
        .map(|models| {
            DetectionEngine::from_snapshot(EngineSnapshot {
                config,
                models,
                tracker: AlarmTracker::new(),
                candidates: Vec::new(),
            })
        })
        .collect();
    let mut tracker = trained.tracker.clone();
    let mut counts = DetectCounts::default();
    for (i, snap) in stream.iter().enumerate() {
        if begin.elapsed() > budget {
            break;
        }
        counts.snapshots += 1;
        let i = i as u64;
        let step = spans.open("detect.step", None, i);
        let boards: Vec<ScoreBoard> = engines
            .iter_mut()
            .map(|e| spans.time("detect.step_scores", Some(step), i, || e.step_scores(snap)))
            .collect();
        counts.pair_steps += boards.iter().map(|b| b.len() as u64).sum::<u64>();
        if keep_boards {
            counts.boards.push(boards.clone());
        }
        let mut parts = boards.into_iter();
        let mut merged = parts.next().expect("at least one shard");
        for b in parts {
            spans.time("detect.merge", Some(step), i, || merged.merge(b));
        }
        spans.time("detect.alarm_eval", Some(step), i, || {
            tracker.evaluate(&merged, &config.alarm)
        });
        spans.close(step);
    }
    counts.drift_rebuilds = engines.iter().map(DetectionEngine::rebuild_count).sum();
    counts
}

/// Replays the first frames of each source through a `FrameDecoder`
/// and a `SourceTable`. Returns frames whose decode disagreed with what
/// was sent.
pub fn wire(frames: &[WireFrame], spans: &mut SpanLog) -> usize {
    let mut decoders =
        [WireProtocol::Json, WireProtocol::Csv].map(|p| FrameDecoder::new(p, 1 << 20));
    let mut table = SourceTable::new(64);
    let mut wrong = 0;
    for (i, frame) in frames.iter().enumerate() {
        let source = i % 2;
        let bytes = if source == 0 {
            encode_json(frame).expect("valid frame")
        } else {
            encode_csv(frame).expect("valid frame").into_bytes()
        };
        let name = ["serve.wire.decode_json", "serve.wire.decode_csv"][source];
        let decoder = &mut decoders[source];
        let decoded = spans.time(name, None, i as u64, || {
            decoder.push(&bytes);
            decoder.next_frame()
        });
        match decoded {
            Ok(Some(d)) if d == *frame => {
                spans.time("serve.sequence.admit", None, i as u64, || {
                    table.admit(&d.source, d.seq, d.snapshot)
                });
            }
            _ => wrong += 1,
        }
    }
    wrong
}

/// Encodes and decodes each partial board as the fabric's `Board`
/// response. Returns boards that did not survive the round trip.
pub fn boards(boards: &[Vec<ScoreBoard>], spans: &mut SpanLog, bytes: &mut Samples) -> usize {
    let mut wrong = 0;
    for (seq, per_shard) in boards.iter().enumerate() {
        let i = seq as u64;
        for (shard, board) in per_shard.iter().enumerate() {
            let response = FabricResponse::Board(BoardFrame {
                shard,
                epoch: 1,
                seq: i,
                score_ns: 0,
                spans: Vec::new(),
                board: board.clone(),
            });
            let encoded = spans
                .time("serve.remote.board_encode", None, i, || {
                    encode_response(&response)
                })
                .expect("board encodes");
            bytes.push(encoded.len() as f64);
            let decoded = spans.time("serve.remote.board_decode", None, i, || {
                decode_response(&encoded)
            });
            if !matches!(decoded, Ok(d) if d == response) {
                wrong += 1;
            }
        }
    }
    wrong
}
