//! The merge core shared by both transports.
//!
//! A [`Merger`] turns per-shard partial [`ScoreBoard`]s into the one
//! in-order [`StepReport`] stream, and per-shard checkpoint files into a
//! [`CheckpointManifest`]. It is a plain state machine (no threads,
//! channels or locks) fed by two adapters: the aggregator thread of
//! [`crate::ShardedEngine`] and the epoch-fencing merge thread of
//! [`crate::Coordinator`]. It holds the pipeline's one [`AlarmTracker`].
//! Each transport delivers a shard's checkpoint file after its pre-cut
//! boards, so when the last file is in, every pre-cut step is finalized
//! and the manifest's tracker is the tracker at the cut.

use std::collections::BTreeMap;

use gridwatch_detect::{AlarmTracker, EngineConfig, ScoreBoard, StepReport};
use gridwatch_obs::{PipelineObs, SpanSlice, Stage};

use crate::checkpoint::{CheckpointError, CheckpointManifest, Checkpointer, RemoteShard};
use crate::remote::FabricError;

/// The worker label on the Merge and Report slices of an exemplar trace.
const MERGE_WORKER: &str = "merge";

/// What became of one reply offered to the merger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The reply filled its shard's slot in the step.
    Merged,
    /// The shard had already replied for this step; nothing changed.
    Duplicate,
    /// The step was already finalized (a migration replay overlap).
    Replayed,
    /// Out-of-range shard, mismatched instant or overlapping pairs. The
    /// step keeps waiting for a good reply from this shard.
    Bad,
}

/// One output of [`Merger::drain`], in the order it happened.
pub(crate) enum Output<A> {
    /// The next step in sequence order, with its alarms.
    Report(StepReport),
    /// Every shard sent a tombstone for this step: nothing to report.
    EmptyStep,
    /// A checkpoint finished, failed or was abandoned (boxed: rare and
    /// large, while reports stream by).
    Checkpoint(Box<CutDone<A>>),
}

/// A checkpoint cut as the front announces it, with the manifest fields
/// only the transport knows.
#[derive(Debug)]
pub(crate) struct CutSpec {
    pub(crate) id: u64,
    /// Every step with `seq < cut_seq` is in the checkpoint, none after.
    pub(crate) cut_seq: u64,
    /// The prepared checkpoint directory.
    pub(crate) checkpointer: Checkpointer,
    /// Per-source frame progress (network listener; empty otherwise).
    pub(crate) sources: BTreeMap<String, u64>,
    /// Fabric epoch and remote ownership table (0 and empty locally).
    pub(crate) fabric_epoch: u64,
    pub(crate) remote: Vec<RemoteShard>,
}

/// One shard's checkpoint file, or why it could not be written.
#[derive(Debug)]
pub(crate) struct ShardFile {
    pub(crate) shard: usize,
    pub(crate) id: u64,
    /// The file name recorded in the manifest.
    pub(crate) result: Result<String, CheckpointError>,
    /// Sketch candidates persisted in the file.
    pub(crate) candidates: usize,
    /// The shard's lifetime sketch promotions and demotions at the cut
    /// (0 where the transport does not carry them).
    pub(crate) promotions: u64,
    pub(crate) demotions: u64,
}

/// A checkpoint that left the merger, with the acknowledgement handle
/// its front supplied at begin.
pub(crate) struct CutDone<A> {
    pub(crate) ack: A,
    /// The written manifest; `Degraded` when a shard's worker was lost
    /// before its file, `Protocol` when a newer checkpoint superseded it.
    pub(crate) result: Result<CheckpointManifest, FabricError>,
}

/// One sequence number waiting for a reply from every shard.
struct OpenStep {
    board: Option<ScoreBoard>,
    replied: Vec<bool>,
}

/// The checkpoint in flight.
struct OpenCut<A> {
    spec: CutSpec,
    ack: A,
    files: Vec<Option<Result<String, CheckpointError>>>,
    candidates: usize,
    promotions: u64,
    demotions: u64,
}

impl<A> OpenCut<A> {
    fn awaits(&self, shard: usize) -> bool {
        matches!(self.files.get(shard), Some(None))
    }
}

/// The merge/finalize state machine; `A` is the front's checkpoint
/// acknowledgement handle, carried through untouched.
pub(crate) struct Merger<A> {
    shards: usize,
    config: EngineConfig,
    tracker: AlarmTracker,
    obs: PipelineObs,
    pending: BTreeMap<u64, OpenStep>,
    /// The lowest sequence number not yet finalized.
    next_emit: u64,
    cut: Option<OpenCut<A>>,
    /// Checkpoints abandoned since the last drain.
    ended: Vec<CutDone<A>>,
}

impl<A> Merger<A> {
    /// A merger over `shards` shards whose first step is `start_seq`;
    /// `tracker` carries alarm debouncing over from earlier steps.
    pub(crate) fn new(
        shards: usize,
        config: EngineConfig,
        tracker: AlarmTracker,
        start_seq: u64,
        obs: PipelineObs,
    ) -> Self {
        Merger {
            shards,
            config,
            tracker,
            obs,
            pending: BTreeMap::new(),
            next_emit: start_seq,
            cut: None,
            ended: Vec::new(),
        }
    }

    /// Offers shard `shard`'s partial board for step `seq`. `score_ns`
    /// is the shard's scoring time and `slices` its exemplar slices;
    /// both are recorded only for a reply that fills an empty slot.
    pub(crate) fn board(
        &mut self,
        shard: usize,
        seq: u64,
        board: ScoreBoard,
        score_ns: u64,
        slices: &[SpanSlice],
    ) -> Offer {
        let step = match open_slot(&mut self.pending, self.shards, self.next_emit, shard, seq) {
            Ok(step) => step,
            Err(offer) => return offer,
        };
        self.obs.tracer.record_ns(Stage::Score, score_ns);
        self.obs.exemplar.record_slices(seq, slices);
        staged(&self.obs, Stage::Merge, seq, || {
            let merged = match step.board.as_mut() {
                None => {
                    step.board = Some(board);
                    true
                }
                Some(merged) => merged.try_merge(board).is_ok(),
            };
            step.replied[shard] = merged;
            if merged {
                Offer::Merged
            } else {
                Offer::Bad
            }
        })
    }

    /// Records that shard `shard` will never score step `seq` (the
    /// ingestion front evicted it from the shard's queue).
    pub(crate) fn tombstone(&mut self, shard: usize, seq: u64) -> Offer {
        match open_slot(&mut self.pending, self.shards, self.next_emit, shard, seq) {
            Ok(step) => {
                step.replied[shard] = true;
                Offer::Merged
            }
            Err(offer) => offer,
        }
    }

    /// Opens a checkpoint cut. A cut still in flight is abandoned as
    /// superseded.
    pub(crate) fn begin_checkpoint(&mut self, spec: CutSpec, ack: A) {
        if let Some(stale) = self.cut.take() {
            let why = "superseded by a newer checkpoint".to_string();
            self.end(stale, FabricError::Protocol(why));
        }
        self.cut = Some(OpenCut {
            spec,
            ack,
            files: (0..self.shards).map(|_| None).collect(),
            candidates: 0,
            promotions: 0,
            demotions: 0,
        });
    }

    /// Where shard `shard`'s file for checkpoint `id` goes, and the
    /// cut it is taken at, if the checkpoint in flight still awaits it.
    pub(crate) fn wants_file(&self, shard: usize, id: u64) -> Option<(&Checkpointer, u64)> {
        let cut = self.cut.as_ref().filter(|cut| cut.spec.id == id)?;
        cut.awaits(shard)
            .then_some((&cut.spec.checkpointer, cut.spec.cut_seq))
    }

    /// Hands in one shard's checkpoint file. Returns false (and changes
    /// nothing) when no checkpoint in flight awaits it.
    pub(crate) fn shard_file(&mut self, file: ShardFile) -> bool {
        let Some(cut) = self
            .cut
            .as_mut()
            .filter(|cut| cut.spec.id == file.id && cut.awaits(file.shard))
        else {
            return false;
        };
        cut.candidates += file.candidates;
        cut.promotions += file.promotions;
        cut.demotions += file.demotions;
        cut.files[file.shard] = Some(file.result);
        true
    }

    /// Fails the checkpoint in flight if shard `shard`'s file is still
    /// missing: its worker is gone, so the file will never come.
    pub(crate) fn abort(&mut self, shard: usize) {
        if let Some(cut) = self.cut.take_if(|cut| cut.awaits(shard)) {
            self.end(cut, FabricError::Degraded { dead: vec![shard] });
        }
    }

    /// Emits everything that is ready: abandoned checkpoints, then every
    /// fully-replied step at the head of the sequence (alarms evaluated
    /// on the merged board), then the checkpoint in flight if every
    /// shard file is in. `out` runs inside the Report span, so sending
    /// a report is part of the Report stage.
    pub(crate) fn drain(&mut self, mut out: impl FnMut(Output<A>)) {
        for done in self.ended.drain(..) {
            out(Output::Checkpoint(Box::new(done)));
        }
        while let Some(head) = self.pending.first_entry() {
            if !head.get().replied.iter().all(|&replied| replied) {
                break;
            }
            let (seq, step) = head.remove_entry();
            self.next_emit = seq + 1;
            let alarmed = staged(&self.obs, Stage::Report, seq, || match step.board {
                Some(board) => {
                    let alarms = self.tracker.evaluate(&board, &self.config.alarm);
                    let alarmed = !alarms.is_empty();
                    if alarmed {
                        self.obs.recorder.record(
                            "alarm",
                            format_args!(
                                "{} alarm event(s) at t={} (seq {seq})",
                                alarms.len(),
                                board.at()
                            ),
                        );
                    }
                    out(Output::Report(StepReport {
                        scores: board,
                        alarms,
                    }));
                    alarmed
                }
                None => {
                    self.obs
                        .recorder
                        .record("empty-step", format_args!("seq {seq} fully evicted"));
                    out(Output::EmptyStep);
                    false
                }
            });
            self.obs.exemplar.finalize(seq, alarmed);
        }
        let complete = |cut: &mut OpenCut<A>| cut.files.iter().all(Option::is_some);
        if let Some(cut) = self.cut.take_if(complete) {
            out(Output::Checkpoint(Box::new(self.complete(cut))));
        }
    }

    /// Writes the manifest of a cut whose shard files are all in.
    fn complete(&self, cut: OpenCut<A>) -> CutDone<A> {
        let OpenCut { spec, files, .. } = cut;
        debug_assert!(
            self.pending.range(..spec.cut_seq).next().is_none(),
            "every pre-cut step finalizes before the last shard file"
        );
        let result = files
            .into_iter()
            .flatten()
            .collect::<Result<Vec<String>, CheckpointError>>()
            .and_then(|shard_files| {
                let manifest = CheckpointManifest {
                    version: 1,
                    shards: self.shards,
                    cut_seq: spec.cut_seq,
                    config: self.config,
                    tracker: self.tracker.clone(),
                    shard_files,
                    sources: spec.sources,
                    fabric_epoch: spec.fabric_epoch,
                    remote: spec.remote,
                    candidate_pairs: cut.candidates,
                    sketch_promotions: cut.promotions,
                    sketch_demotions: cut.demotions,
                };
                spec.checkpointer
                    .write_manifest(&manifest)
                    .map(|()| manifest)
            })
            .map_err(FabricError::Checkpoint);
        self.settle(spec.id, cut.ack, result)
    }

    /// Abandons `cut` with `error`; the next drain emits it.
    fn end(&mut self, cut: OpenCut<A>, error: FabricError) {
        let done = self.settle(cut.spec.id, cut.ack, Err(error));
        self.ended.push(done);
    }

    /// Records checkpoint `id`'s outcome in the flight recorder.
    fn settle(
        &self,
        id: u64,
        ack: A,
        result: Result<CheckpointManifest, FabricError>,
    ) -> CutDone<A> {
        match &result {
            Ok(manifest) => self.obs.recorder.record(
                "checkpoint",
                format_args!("id {id} cut_seq {}", manifest.cut_seq),
            ),
            Err(e) => self
                .obs
                .recorder
                .record("checkpoint-error", format_args!("id {id}: {e}")),
        }
        CutDone { ack, result }
    }
}

/// The still-empty slot of `shard` in step `seq`, opening the step if
/// needed; or why the reply does not belong there.
fn open_slot(
    pending: &mut BTreeMap<u64, OpenStep>,
    shards: usize,
    next_emit: u64,
    shard: usize,
    seq: u64,
) -> Result<&mut OpenStep, Offer> {
    if shard >= shards {
        return Err(Offer::Bad);
    }
    if seq < next_emit {
        return Err(Offer::Replayed);
    }
    let step = pending.entry(seq).or_insert_with(|| OpenStep {
        board: None,
        replied: vec![false; shards],
    });
    if step.replied[shard] {
        return Err(Offer::Duplicate);
    }
    Ok(step)
}

/// Runs `work` inside `stage`'s tracer span and, when exemplars are
/// on, records it as a slice of `seq`'s trace.
fn staged<T>(obs: &PipelineObs, stage: Stage, seq: u64, work: impl FnOnce() -> T) -> T {
    let start = obs.exemplar.is_enabled().then(|| obs.exemplar.now_ns());
    let span = obs.tracer.span(stage);
    let out = work();
    drop(span);
    if let Some(start) = start {
        let dur = obs.exemplar.now_ns().saturating_sub(start);
        obs.exemplar
            .record(seq, SpanSlice::new(stage, start, dur, MERGE_WORKER));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_detect::AlarmPolicy;
    use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, MetricKind, Timestamp};

    const SHARDS: usize = 2;

    /// Shard `k` owns the pair of machine `k`.
    fn pair(machine: u32) -> MeasurementPair {
        let id = |tag| MeasurementId::new(MachineId::new(machine), MetricKind::Custom(tag));
        MeasurementPair::new(id(0), id(1)).unwrap()
    }

    fn part(shard: usize, seq: u64, fitness: f64) -> ScoreBoard {
        let mut board = ScoreBoard::new(Timestamp::from_secs(seq * 360));
        board.record(pair(shard as u32), fitness);
        board
    }

    /// Two consecutive low system scores raise an alarm, so the tracker
    /// carries a streak from one step to the next.
    fn config() -> EngineConfig {
        EngineConfig {
            alarm: AlarmPolicy {
                system_threshold: 0.5,
                measurement_threshold: 0.5,
                min_consecutive: 2,
            },
            ..EngineConfig::default()
        }
    }

    fn merger(start_seq: u64) -> Merger<u64> {
        Merger::new(
            SHARDS,
            config(),
            AlarmTracker::new(),
            start_seq,
            PipelineObs::default(),
        )
    }

    #[derive(Default)]
    struct Drained {
        reports: Vec<StepReport>,
        empty_steps: usize,
        cuts: Vec<CutDone<u64>>,
    }

    fn drain(merger: &mut Merger<u64>) -> Drained {
        let mut drained = Drained::default();
        merger.drain(|out| match out {
            Output::Report(report) => drained.reports.push(report),
            Output::EmptyStep => drained.empty_steps += 1,
            Output::Checkpoint(done) => drained.cuts.push(*done),
        });
        drained
    }

    /// Feeds both shards' parts of step `seq` and drains.
    fn step(merger: &mut Merger<u64>, seq: u64, fitness: f64) -> Drained {
        for shard in 0..SHARDS {
            let offer = merger.board(shard, seq, part(shard, seq, fitness), 10, &[]);
            assert_eq!(offer, Offer::Merged);
        }
        drain(merger)
    }

    fn seqs(reports: &[StepReport]) -> Vec<u64> {
        reports
            .iter()
            .map(|r| r.scores.at().as_secs() / 360)
            .collect()
    }

    fn scratch(tag: &str) -> Checkpointer {
        let dir =
            std::env::temp_dir().join(format!("gridwatch-merge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpointer = Checkpointer::new(dir);
        checkpointer.prepare().unwrap();
        checkpointer
    }

    fn spec(id: u64, cut_seq: u64, checkpointer: &Checkpointer) -> CutSpec {
        CutSpec {
            id,
            cut_seq,
            checkpointer: checkpointer.clone(),
            sources: BTreeMap::new(),
            fabric_epoch: 0,
            remote: Vec::new(),
        }
    }

    fn file(shard: usize, id: u64) -> ShardFile {
        ShardFile {
            shard,
            id,
            result: Ok(Checkpointer::shard_file_name(shard)),
            candidates: shard + 1,
            promotions: 2,
            demotions: 1,
        }
    }

    #[test]
    fn replies_out_of_shard_order_finalize_in_seq_order() {
        let mut m = merger(0);
        assert_eq!(m.board(1, 1, part(1, 1, 0.9), 10, &[]), Offer::Merged);
        assert_eq!(m.board(1, 0, part(1, 0, 0.8), 10, &[]), Offer::Merged);
        assert_eq!(m.board(0, 1, part(0, 1, 0.7), 10, &[]), Offer::Merged);
        assert!(
            drain(&mut m).reports.is_empty(),
            "seq 0 still lacks shard 0"
        );
        assert_eq!(m.board(0, 0, part(0, 0, 0.6), 10, &[]), Offer::Merged);
        let drained = drain(&mut m);
        assert_eq!(seqs(&drained.reports), vec![0, 1]);
        let mut want = part(0, 0, 0.6);
        want.merge(part(1, 0, 0.8));
        assert_eq!(drained.reports[0].scores, want);
    }

    #[test]
    fn all_tombstone_step_reports_nothing_and_counts_as_empty() {
        let mut m = merger(0);
        assert_eq!(m.tombstone(0, 0), Offer::Merged);
        assert!(drain(&mut m).reports.is_empty());
        assert_eq!(m.tombstone(1, 0), Offer::Merged);
        let drained = drain(&mut m);
        assert!(drained.reports.is_empty());
        assert_eq!(drained.empty_steps, 1);
        // A half-evicted step reports the shard that did score it.
        assert_eq!(m.tombstone(0, 1), Offer::Merged);
        assert_eq!(m.board(1, 1, part(1, 1, 0.9), 10, &[]), Offer::Merged);
        let drained = drain(&mut m);
        assert_eq!(drained.empty_steps, 0);
        assert_eq!(drained.reports[0].scores, part(1, 1, 0.9));
    }

    #[test]
    fn duplicate_slot_is_counted_and_not_merged() {
        let mut m = merger(0);
        assert_eq!(m.board(0, 0, part(0, 0, 0.6), 10, &[]), Offer::Merged);
        assert_eq!(m.board(0, 0, part(0, 0, 0.1), 10, &[]), Offer::Duplicate);
        assert_eq!(m.tombstone(0, 0), Offer::Duplicate);
        assert_eq!(m.board(1, 0, part(1, 0, 0.8), 10, &[]), Offer::Merged);
        let drained = drain(&mut m);
        let mut want = part(0, 0, 0.6);
        want.merge(part(1, 0, 0.8));
        assert_eq!(drained.reports.len(), 1);
        assert_eq!(drained.reports[0].scores, want);
    }

    #[test]
    fn board_below_next_emit_is_replayed() {
        let mut m = merger(5);
        assert_eq!(m.board(0, 4, part(0, 4, 0.6), 10, &[]), Offer::Replayed);
        assert_eq!(seqs(&step(&mut m, 5, 0.9).reports), vec![5]);
        assert_eq!(m.board(0, 5, part(0, 5, 0.9), 10, &[]), Offer::Replayed);
        assert_eq!(m.tombstone(1, 5), Offer::Replayed);
        let drained = drain(&mut m);
        assert!(drained.reports.is_empty() && drained.empty_steps == 0);
    }

    #[test]
    fn overlapping_board_is_bad_and_its_step_waits_for_a_good_reply() {
        let mut m = merger(0);
        assert_eq!(m.board(0, 0, part(0, 0, 0.6), 10, &[]), Offer::Merged);
        // Shard 1 scoring shard 0's pair, then the wrong instant.
        assert_eq!(m.board(1, 0, part(0, 0, 0.7), 10, &[]), Offer::Bad);
        assert_eq!(m.board(1, 0, part(1, 3, 0.7), 10, &[]), Offer::Bad);
        assert_eq!(m.board(SHARDS, 0, part(1, 0, 0.7), 10, &[]), Offer::Bad);
        assert!(drain(&mut m).reports.is_empty(), "the step must wait");
        assert_eq!(m.board(1, 0, part(1, 0, 0.8), 10, &[]), Offer::Merged);
        let drained = drain(&mut m);
        let mut want = part(0, 0, 0.6);
        want.merge(part(1, 0, 0.8));
        assert_eq!(drained.reports[0].scores, want);
    }

    #[test]
    fn checkpoint_completes_with_every_file_and_the_tracker_at_the_cut() {
        let ckpt = scratch("cut");
        let mut m = merger(0);
        let mut reference = AlarmTracker::new();
        for seq in 0..3 {
            let drained = step(&mut m, seq, 0.2);
            let mut board = part(0, seq, 0.2);
            board.merge(part(1, seq, 0.2));
            assert_eq!(
                drained.reports[0].alarms,
                reference.evaluate(&board, &config().alarm)
            );
        }
        m.begin_checkpoint(spec(7, 3, &ckpt), 70);
        assert!(m.wants_file(0, 8).is_none(), "another checkpoint's file");
        assert!(m.shard_file(file(0, 7)));
        assert!(!m.shard_file(file(0, 7)), "shard 0's file is already in");
        // Shard 0 moves past the cut before shard 1's file arrives.
        assert_eq!(m.board(0, 3, part(0, 3, 0.9), 10, &[]), Offer::Merged);
        assert!(drain(&mut m).cuts.is_empty(), "shard 1's file is missing");
        assert_eq!(
            m.wants_file(1, 7)
                .map(|(c, cut)| (c.dir().to_path_buf(), cut)),
            Some((ckpt.dir().to_path_buf(), 3))
        );
        assert!(m.shard_file(file(1, 7)));
        let mut cuts = drain(&mut m).cuts;
        assert_eq!(cuts.len(), 1);
        let done = cuts.remove(0);
        assert_eq!(done.ack, 70);
        let manifest = done.result.unwrap();
        assert_eq!(manifest.cut_seq, 3);
        assert_eq!(manifest.tracker, reference);
        assert_eq!(manifest.shard_files, vec!["shard-0.json", "shard-1.json"]);
        assert_eq!(manifest.candidate_pairs, 3);
        assert_eq!(
            (manifest.sketch_promotions, manifest.sketch_demotions),
            (4, 2)
        );
        assert_eq!(ckpt.read_manifest().unwrap(), manifest);
        // The post-cut step still finalizes after the cut.
        assert_eq!(m.board(1, 3, part(1, 3, 0.9), 10, &[]), Offer::Merged);
        assert_eq!(seqs(&drain(&mut m).reports), vec![3]);
        let _ = std::fs::remove_dir_all(ckpt.dir());
    }

    #[test]
    fn failed_shard_file_yields_an_error_and_no_manifest() {
        let ckpt = scratch("failed");
        let mut m = merger(0);
        m.begin_checkpoint(spec(1, 0, &ckpt), 10);
        assert!(m.shard_file(file(0, 1)));
        assert!(m.shard_file(ShardFile {
            result: Err(CheckpointError::Corrupt("disk full".to_string())),
            ..file(1, 1)
        }));
        let cuts = drain(&mut m).cuts;
        assert!(matches!(
            cuts[0].result,
            Err(FabricError::Checkpoint(CheckpointError::Corrupt(_)))
        ));
        assert!(ckpt.read_manifest().is_err(), "no manifest may be written");
        let _ = std::fs::remove_dir_all(ckpt.dir());
    }

    #[test]
    fn lost_shard_with_a_missing_file_fails_the_checkpoint() {
        let ckpt = scratch("lost");
        let mut m = merger(0);
        m.begin_checkpoint(spec(1, 0, &ckpt), 10);
        assert!(m.shard_file(file(0, 1)));
        m.abort(0);
        assert!(
            drain(&mut m).cuts.is_empty(),
            "shard 0's file is already in"
        );
        m.abort(1);
        let cuts = drain(&mut m).cuts;
        assert_eq!(cuts.len(), 1);
        assert!(matches!(&cuts[0].result, Err(FabricError::Degraded { dead }) if dead == &[1]));
        assert!(!m.shard_file(file(1, 1)), "the checkpoint is gone");
        // A newer begin supersedes a checkpoint still in flight.
        m.begin_checkpoint(spec(2, 0, &ckpt), 20);
        m.begin_checkpoint(spec(3, 0, &ckpt), 30);
        let cuts = drain(&mut m).cuts;
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].ack, 20);
        assert!(matches!(cuts[0].result, Err(FabricError::Protocol(_))));
        assert!(ckpt.read_manifest().is_err());
        let _ = std::fs::remove_dir_all(ckpt.dir());
    }
}
