//! gwbench: the gridwatch benchmark.
//!
//! ```text
//! cargo run --release --manifest-path gwbench/Cargo.toml -- \
//!     --workload <replay|ingest|fabric> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up
//! [`SETUPS`] times, streams for the given seconds, checks every report
//! against a reference, and prints metrics by name with their units. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, as medians over [`PROCESSES`] processes that each stream
//! for an equal share of the seconds; per-layer metrics, from the
//! benchmark's own spans and a shadow replay, with `--trace 1`). `--write-golden` instead rewrites
//! the golden digests for [`DEFAULT_SEED`]. Scratch files (checkpoints,
//! history store, span logs) go under `.gwbench/` in the working
//! directory.

mod digest;
mod fabric;
mod ingest;
mod inputs;
mod loadgen;
mod output;
mod replay;
mod shadow;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gridwatch_detect::{DetectionEngine, Snapshot, StepReport};
use gridwatch_obs::{LogHistogram, Stage};
use gridwatch_serve::ServeStats;

use digest::{agree, Chain, Coverage};
use output::Output;
use spans::SpanLog;
use stats::{median_of, Samples};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 8;

/// The seed whose reference digests are kept in `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// Snapshots the `core` shadow covers (it times every pair-step), at
/// most. The `detect` shadow runs for as long as the live phase did.
const SHADOW_CORE: usize = 64;
/// Frames the wire shadow decodes, at most.
const SHADOW_WIRE: usize = 2048;

/// What a workload's streaming phase measured.
#[derive(Default)]
pub struct Live {
    /// Snapshots offered to the program.
    pub offered: usize,
    /// Reports in arrival order (index = snapshot index).
    pub reports: Vec<StepReport>,
    /// Reports tagged with the frame they answer (`ingest`).
    pub indexed_reports: Vec<(usize, StepReport)>,
    /// When each report arrived, in seconds from the first due snapshot,
    /// in arrival order.
    pub received_s: Vec<f64>,
    /// Latency of each reported snapshot in ms, in schedule order.
    pub latency_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Generator lag p50, p99 and maximum in ms (open-loop runs).
    pub lag_ms: Option<[f64; 3]>,
    /// Process CPU seconds (all threads) over the streaming phase.
    pub cpu_s: f64,
    pub lag_valid: bool,
    pub serve_stats: Option<ServeStats>,
    pub tracer: Option<Vec<(Stage, LogHistogram)>>,
    pub frame_bytes: Samples,
    pub fabric: Option<fabric::FabricExtra>,
}

impl Live {
    /// Seconds from the first due snapshot to the last report.
    fn wall_s(&self) -> f64 {
        self.received_s.last().copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
    /// One of the processes of an end-to-end run (see [`PROCESSES`]).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        write_golden: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-golden" || flag == "--child" {
            args.write_golden |= flag == "--write-golden";
            args.child |= flag == "--child";
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["replay", "ingest", "fabric"].contains(&args.workload.as_str()) && !args.write_golden {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"))
}

/// Reference chain for `name`: the golden file at the default seed, else
/// `compute()`.
fn reference(name: &str, seed: u64, compute: impl FnOnce() -> Vec<u64>) -> Vec<u64> {
    if seed == DEFAULT_SEED {
        let text = std::fs::read_to_string(golden_path(name)).unwrap_or_default();
        digest::parse(&text).unwrap_or_default()
    } else {
        compute()
    }
}

/// Chain of an unsharded `DetectionEngine::step` over `stream`.
fn engine_chain(inputs: &inputs::Inputs, stream: &[Snapshot], coverage: Coverage) -> Vec<u64> {
    let mut engine =
        DetectionEngine::train(inputs.histories.clone(), inputs.config).expect("reference trains");
    let mut chain = Chain::new(coverage);
    for s in stream {
        chain.push(&engine.step(s));
    }
    chain.links().to_vec()
}

/// The `ingest` frames of one source, in tick order.
fn source_frames(frames: &[gridwatch_serve::WireFrame], source: usize) -> Vec<Snapshot> {
    frames
        .iter()
        .skip(source)
        .step_by(2)
        .map(|f| f.snapshot.clone())
        .collect()
}

fn write_golden() {
    let seed = DEFAULT_SEED;
    let replay = inputs::replay(seed);
    let links = engine_chain(&replay, &replay.stream, Coverage::Full);
    std::fs::write(golden_path("replay"), digest::render(&links)).expect("write golden");
    let fabric = inputs::fabric(seed);
    let links = engine_chain(&fabric, &fabric.stream, Coverage::Full);
    std::fs::write(golden_path("fabric"), digest::render(&links)).expect("write golden");
    let (ingest, per_source) = inputs::ingest(seed);
    let frames = ingest::frames(&per_source);
    for (source, name) in ingest::SOURCES.iter().enumerate() {
        let links = engine_chain(&ingest, &source_frames(&frames, source), Coverage::Scores);
        std::fs::write(
            golden_path(&format!("ingest-{name}")),
            digest::render(&links),
        )
        .expect("write golden");
    }
}

/// CPU seconds this process (all threads) has used so far.
fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in clock ticks of 1/100 s.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Pins this process, and every thread and child process it starts from
/// now on, to the highest-numbered CPU it may run on.
///
/// `ingest` uses a small share of one CPU, but each frame hops through
/// five threads. Spread over the host's CPUs, each hop may have to wake an
/// idle vCPU, and how long that takes follows the load of everything else
/// on the host: its due-time latency median moved by a third between runs
/// of the same code. On one CPU the hops are plain context switches on a
/// CPU the generator has just kept busy, and the scheduler moves other
/// load off it.
fn pin_to_one_cpu() -> bool {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(cpu) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| highest_cpu(list.trim()))
    else {
        return false;
    };
    set_affinity(cpu)
}

/// The highest CPU in a kernel CPU list such as `0-3,8,10-11`.
fn highest_cpu(list: &str) -> Option<usize> {
    list.split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse().ok())
        .max()
}

/// `sched_setaffinity(0, ...)` for the calling thread; threads and
/// processes it starts later inherit the mask.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    const SCHED_SETAFFINITY: usize = 203;
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: the syscall reads `size_of_val(&mask)` bytes from `mask`,
    // which lives until the call returns, and writes no user memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SCHED_SETAFFINITY as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Restarts the kernel's peak-RSS count at the current RSS, so the peak
/// read at the end covers set-up and streaming, not input generation.
fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM; without it the reported peak
    // is the whole process's, generation included.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One checked report stream: its name, the snapshots offered on it, and
/// how many of its reports (a prefix) agree with the reference.
struct Checked {
    name: String,
    offered: usize,
    matched: usize,
}

/// Checks `live` against the workload's reference.
fn check(
    workload: &str,
    seed: u64,
    inputs: &inputs::Inputs,
    frames: &[gridwatch_serve::WireFrame],
    live: &Live,
) -> Vec<Checked> {
    match workload {
        "ingest" => ingest::SOURCES
            .iter()
            .enumerate()
            .map(|(source, name)| {
                let mut mine: Vec<&(usize, StepReport)> = live
                    .indexed_reports
                    .iter()
                    .filter(|(i, _)| *i < live.offered && i % 2 == source)
                    .collect();
                mine.sort_by_key(|(i, _)| *i);
                let mut chain = Chain::new(Coverage::Scores);
                mine.iter().for_each(|(_, r)| chain.push(r));
                let sent = source_frames(&frames[..live.offered], source);
                let name = format!("ingest-{name}");
                let reference = reference(&name, seed, || {
                    engine_chain(inputs, &sent, Coverage::Scores)
                });
                Checked {
                    name,
                    offered: sent.len(),
                    matched: agree(chain.links(), &reference),
                }
            })
            .collect(),
        _ => {
            let mut chain = Chain::new(Coverage::Full);
            live.reports.iter().for_each(|r| chain.push(r));
            let reference = reference(workload, seed, || {
                engine_chain(inputs, &inputs.stream[..live.offered], Coverage::Full)
            });
            vec![Checked {
                name: workload.to_string(),
                offered: live.offered,
                matched: agree(chain.links(), &reference),
            }]
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gwbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_golden {
        write_golden();
        return ExitCode::SUCCESS;
    }
    if args.workload == "ingest" && !pin_to_one_cpu() {
        eprintln!("gwbench: could not pin the ingest workload to one CPU");
        return ExitCode::FAILURE;
    }
    if !args.trace && !args.child {
        return run_processes(&args);
    }
    let out_dir = Path::new(".gwbench").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gwbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let (inputs, frames) = match args.workload.as_str() {
        "replay" => (inputs::replay(args.seed), Vec::new()),
        "ingest" => {
            let (inputs, per_source) = inputs::ingest(args.seed);
            let frames = ingest::frames(&per_source);
            (inputs, frames)
        }
        _ => (inputs::fabric(args.seed), Vec::new()),
    };
    reset_peak_rss();
    let mut spans = SpanLog::new(args.trace);
    let live = match args.workload.as_str() {
        "replay" => replay::run(&inputs, args.seconds, &mut spans),
        "ingest" => ingest::run(&inputs, &frames, args.seconds, &mut spans),
        _ => fabric::run(&inputs, &out_dir, args.seconds, &mut spans),
    };
    let peak_rss = peak_rss_mb();

    let checked = check(&args.workload, args.seed, &inputs, &frames, &live);
    let failed: usize = checked
        .iter()
        .map(|c| digest::failed(c.offered, c.matched))
        .sum();
    let mut out = Output {
        attempted: live.offered as u64,
        failed: failed as u64,
        ..Output::default()
    };
    let mut correct = failed == 0 && live.offered > 0;
    for c in &checked {
        out.note(format!(
            "check {}: {} of {} snapshots have a report that agrees with the {} reference",
            c.name,
            c.matched.min(c.offered),
            c.offered,
            if args.seed == DEFAULT_SEED {
                "golden"
            } else {
                "computed"
            }
        ));
    }
    if let Some(f) = &live.fabric {
        out.note(format!(
            "check checkpoint: {} ({} problems); store: {} ({} problems)",
            if f.checkpoint_valid {
                "valid"
            } else {
                "INVALID"
            },
            f.checkpoint_problems.len(),
            if f.store_healthy {
                "healthy"
            } else {
                "UNHEALTHY"
            },
            f.store_problems.len()
        ));
        for p in f.checkpoint_problems.iter().chain(&f.store_problems) {
            out.note(format!("  problem: {p}"));
        }
        correct &= f.checkpoint_valid && f.store_healthy;
    }
    out.note(format!(
        "failed_frac = {:.6} ({failed} of {} offered snapshots without a correct report)",
        failed as f64 / live.offered.max(1) as f64,
        live.offered
    ));
    if let Some([p50, p99, max]) = live.lag_ms {
        out.note(format!(
            "loadgen lag p50 {p50:.3} / p99 {p99:.3} / max {max:.3} ms (p99 limit {} ms): {}",
            loadgen::LAG_LIMIT_MS,
            if live.lag_valid {
                "valid"
            } else {
                "INVALID RUN"
            }
        ));
    }
    out.correct = correct;

    let received = live.received_s.len().min(live.offered);
    let snapshots_per_s = received as f64 / live.wall_s().max(1e-9);
    let wall_s = live.wall_s();
    let mut latency = Samples::new();
    live.latency_ms.iter().for_each(|&v| latency.push(v));
    let tail = latency.tail();
    // The tail is printed, not gated: on a shared 2-vCPU host its
    // run-to-run spread exceeds any usable bound (see design.json).
    out.note(format!("latency tail: the {tail} is {:.4} ms", tail.value));
    out.note(format!(
        "process CPU {:.2} s over {:.2} s of streaming; setup_s is the median of {SETUPS} set-ups",
        live.cpu_s, wall_s
    ));
    if args.trace {
        per_layer(
            &mut out,
            &args,
            &inputs,
            &frames,
            &live,
            snapshots_per_s,
            &mut spans,
        );
        let spans_file = Path::new(".gwbench").join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = std::fs::write(&spans_file, spans.to_jsonl()) {
            out.note(format!("could not write {}: {e}", spans_file.display()));
        }
    } else {
        out.metric("snapshots_per_s", snapshots_per_s, "1/s");
        out.metric("latency_p50_ms", latency.median(), "ms");
        out.metric("setup_s", median_of(&live.setup_s), "s");
        out.metric("peak_rss_mb", peak_rss, "MB");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    if live.lag_ms.is_some() && !live.lag_valid {
        // The generator fell behind its own schedule: not a measurement.
        for line in &out.notes {
            eprintln!("{line}");
        }
        eprintln!("gwbench: run invalid, load generator lagged its schedule");
        return ExitCode::FAILURE;
    }
    if args.child {
        out.print_child();
    } else {
        out.print();
    }
    ExitCode::SUCCESS
}

/// End-to-end runs are split across this many benchmark processes, run
/// one after another for an equal share of the seconds. On a shared host
/// a process can run 15% slower or faster than the next for its whole
/// life, set-up included; the median over several processes is steadier
/// than one long process.
const PROCESSES: usize = 8;

/// Runs [`PROCESSES`] child processes of this benchmark and reports the
/// median of each end-to-end metric, the sums of `attempted` and
/// `failed`, and `correct` only if every process was correct.
fn run_processes(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("gwbench: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = (args.seconds / PROCESSES as f64).to_string();
    let mut out = Output {
        correct: true,
        ..Output::default()
    };
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut order = Vec::new();
    for k in 0..PROCESSES {
        let seed = args.seed.to_string();
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--child"])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("gwbench: cannot run process {k}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        if !child.status.success() {
            eprint!("{stdout}{}", String::from_utf8_lossy(&child.stderr));
            eprintln!("gwbench: process {k} failed ({})", child.status);
            return ExitCode::FAILURE;
        }
        let Some(result) = stdout.lines().find_map(|l| l.strip_prefix("result ")) else {
            eprintln!("gwbench: process {k} printed no result");
            return ExitCode::FAILURE;
        };
        for line in stdout.lines() {
            out.note(format!("[process {k}] {line}"));
        }
        for field in result.split_whitespace() {
            let mut parts = field.splitn(3, '=');
            let (Some(name), Some(value), unit) = (parts.next(), parts.next(), parts.next()) else {
                continue;
            };
            match name {
                "correct" => out.correct &= value == "true",
                "attempted" => out.attempted += value.parse::<u64>().unwrap_or(0),
                "failed" => out.failed += value.parse::<u64>().unwrap_or(u64::MAX / 2),
                _ => {
                    if !values.contains_key(name) {
                        order.push(name.to_string());
                    }
                    let entry = values
                        .entry(name.to_string())
                        .or_insert_with(|| (Vec::new(), unit.unwrap_or("").to_string()));
                    entry.0.push(value.parse().unwrap_or(f64::NAN));
                }
            }
        }
    }
    out.note(format!(
        "each metric is the median over {PROCESSES} processes of {seconds} s"
    ));
    for name in order {
        let (v, unit) = &values[&name];
        out.metric(name, median_of(v), unit.clone());
    }
    out.print();
    ExitCode::SUCCESS
}

/// Per-layer metrics read from the benchmark's spans: metric, span name,
/// percentile, and microseconds per unit of the metric.
const SPAN_METRICS: [(&str, &str, f64, f64, &str); 23] = [
    ("core.observe_us_p50", "core.observe", 50.0, 1.0, "us"),
    ("core.observe_us_p99", "core.observe", 99.0, 1.0, "us"),
    (
        "core.row_compute_us_p50",
        "core.row_compute",
        50.0,
        1.0,
        "us",
    ),
    ("core.rank_us_p50", "core.rank", 50.0, 1.0, "us"),
    ("grid.locate_us_p50", "grid.locate", 50.0, 1.0, "us"),
    (
        "detect.step_scores_us_p50",
        "detect.step_scores",
        50.0,
        1.0,
        "us",
    ),
    (
        "detect.step_scores_us_p99",
        "detect.step_scores",
        99.0,
        1.0,
        "us",
    ),
    ("detect.merge_us_p50", "detect.merge", 50.0, 1.0, "us"),
    (
        "detect.alarm_eval_us_p50",
        "detect.alarm_eval",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.engine.submit_us_p50",
        "serve.engine.submit",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.engine.submit_us_p99",
        "serve.engine.submit",
        99.0,
        1.0,
        "us",
    ),
    (
        "serve.wire.encode_json_us_p50",
        "serve.wire.encode_json",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.wire.encode_csv_us_p50",
        "serve.wire.encode_csv",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.wire.decode_json_us_p50",
        "serve.wire.decode_json",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.wire.decode_csv_us_p50",
        "serve.wire.decode_csv",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.sequence.admit_us_p50",
        "serve.sequence.admit",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.remote.board_encode_us_p50",
        "serve.remote.board_encode",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.remote.board_decode_us_p50",
        "serve.remote.board_decode",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.coordinator.submit_us_p50",
        "serve.coordinator.submit",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.coordinator.submit_us_p99",
        "serve.coordinator.submit",
        99.0,
        1.0,
        "us",
    ),
    (
        "serve.history.append_us_p50",
        "serve.history.append",
        50.0,
        1.0,
        "us",
    ),
    (
        "serve.history.append_us_p99",
        "serve.history.append",
        99.0,
        1.0,
        "us",
    ),
    (
        "serve.history.checkpoint_ms_p50",
        "serve.history.checkpoint",
        50.0,
        1e3,
        "ms",
    ),
];

/// Percentile `q` of the durations (µs) of spans named `name`; 0 when
/// the workload made no such call.
fn span_us(by: &BTreeMap<&'static str, spans::NameSummary>, name: &str, q: f64) -> f64 {
    by.get(name)
        .map_or(0.0, |s| s.durations_us.clone().percentile(q))
}

/// The program tracer's histogram of `stage`, when it traced the run.
fn stage_hist(live: &Live, stage: Stage) -> Option<&LogHistogram> {
    live.tracer
        .as_ref()?
        .iter()
        .find(|(s, _)| *s == stage)
        .map(|(_, h)| h)
}

fn per_layer(
    out: &mut Output,
    args: &Args,
    inputs: &inputs::Inputs,
    frames: &[gridwatch_serve::WireFrame],
    live: &Live,
    snapshots_per_s: f64,
    spans: &mut SpanLog,
) {
    let trained = DetectionEngine::train(inputs.histories.clone(), inputs.config)
        .expect("shadow engine trains")
        .snapshot();
    // The stream the program saw, in order (combined frames for ingest).
    let seen: Vec<Snapshot> = if frames.is_empty() {
        inputs.stream[..live.offered].to_vec()
    } else {
        frames[..live.offered]
            .iter()
            .map(|f| f.snapshot.clone())
            .collect()
    };
    let core = shadow::core(&trained, &seen[..seen.len().min(SHADOW_CORE)], spans);
    let keep_boards = args.workload == "fabric";
    let detect = shadow::detect(
        &trained,
        replay::SHARDS,
        &seen,
        std::time::Duration::from_secs_f64(args.seconds),
        keep_boards,
        spans,
    );
    let mut wrong = 0;
    if !frames.is_empty() {
        wrong += shadow::wire(&frames[..live.offered.min(SHADOW_WIRE)], spans);
    }
    let mut board_bytes = Samples::new();
    wrong += shadow::boards(&detect.boards, spans, &mut board_bytes);
    if wrong > 0 {
        out.note(format!("shadow: {wrong} codec round trips disagreed"));
        out.correct = false;
    }

    let by = spans.by_name();
    for (metric, span, q, per_unit, unit) in SPAN_METRICS {
        out.metric(metric, span_us(&by, span, q) / per_unit, unit);
    }
    let steps = core.pair_steps.max(1) as f64;
    out.metric("core.update_frac", core.updated as f64 / steps, "ratio");
    out.metric("core.cells_mean", core.cells.mean(), "count");
    out.metric("core.destinations_mean", core.destinations.mean(), "count");
    out.metric("core.extensions", core.extensions as f64, "count");
    out.metric("detect.pair_steps", detect.pair_steps as f64, "count");
    out.metric(
        "detect.drift_rebuilds",
        detect.drift_rebuilds as f64,
        "count",
    );

    // Live engine statistics (replay and ingest run a ShardedEngine).
    let stats = live.serve_stats.clone().unwrap_or_default();
    let busy_ns: Vec<f64> = stats
        .shards
        .iter()
        .map(|s| s.latency.mean() as f64 * s.latency.count as f64)
        .collect();
    let busy_max = busy_ns.iter().copied().fold(0.0, f64::max);
    let busy_sum = busy_ns.iter().fold(0.0, |a, b| a + b);
    // Shard busy time: the engine's per-shard step latencies, or, for the
    // fabric, the coordinator tracer's Score stage (worker scoring time).
    let busy_total = if stats.shards.is_empty() {
        stage_hist(live, Stage::Score).map_or(0.0, |h| h.mean() as f64 * h.count as f64)
    } else {
        busy_sum
    };
    let shard_max = |f: fn(&gridwatch_serve::ShardStats) -> u64| {
        stats.shards.iter().map(f).max().unwrap_or(0) as f64
    };
    let backpressure_p99 = shard_max(|s| s.backpressure_wait_ns.p99()) / 1e3;
    out.metric(
        "serve.engine.backpressure_wait_us_p99",
        backpressure_p99,
        "us",
    );
    let depth_p99 = shard_max(|s| s.queue_depths.p99());
    out.metric("serve.engine.queue_depth_p99", depth_p99, "count");
    let busy_frac = busy_total / 1e9 / (live.wall_s().max(1e-9) * replay::SHARDS as f64);
    out.metric("serve.engine.shard_busy_frac", busy_frac, "ratio");
    let skew = busy_max * busy_ns.len() as f64 / busy_sum.max(1.0);
    out.metric("serve.engine.shard_skew", skew, "ratio");
    // Live rate over the single-thread shadow rate.
    let shadow_step_us = by.get("detect.step").map_or(0.0, |s| s.durations_us.mean());
    let speedup = if stats.shards.is_empty() {
        0.0
    } else {
        snapshots_per_s * shadow_step_us / 1e6
    };
    out.metric("serve.engine.shard_speedup", speedup, "ratio");
    // Shadow step_scores self time, scaled from the snapshots shadowed
    // to the snapshots the live run scored, as a share of the live
    // shards' busy time and of the process CPU time while streaming.
    let step_scores_self = by.get("detect.step_scores").map_or(0, |s| s.self_ns) as f64;
    let scaled_ns = step_scores_self * live.offered as f64 / detect.snapshots.max(1) as f64;
    let share_of_busy = scaled_ns / busy_total.max(1.0);
    out.metric("detect.step_scores_share_of_busy", share_of_busy, "ratio");
    let share_of_cpu = scaled_ns / (live.cpu_s * 1e9).max(1.0);
    out.metric("detect.step_scores_share_of_cpu", share_of_cpu, "ratio");

    out.metric("serve.wire.frame_bytes_mean", live.frame_bytes.mean(), "B");
    for (name, count) in [
        ("serve.net.decode_errors", stats.net.decode_errors),
        ("serve.net.rejected", stats.net.rejected),
        ("serve.net.dropped", stats.net.dropped),
        ("serve.net.duplicates", stats.net.duplicates),
        ("serve.net.gap_skips", stats.net.gap_skips),
    ] {
        out.metric(name, count as f64, "count");
    }

    out.metric("serve.remote.board_bytes_mean", board_bytes.mean(), "B");
    let fab = live.fabric.as_ref();
    let fab_count = |f: fn(&fabric::FabricExtra) -> u64| fab.map_or(0.0, |x| f(x) as f64);
    let fenced = fab_count(|f| {
        let s = f.stats;
        s.stale_boards + s.duplicate_boards + s.replayed_boards + s.bad_boards
    });
    out.metric("serve.coordinator.fenced_boards", fenced, "count");
    let mut ckpt = Samples::new();
    fab.iter()
        .flat_map(|f| &f.checkpoint_ms)
        .for_each(|&v| ckpt.push(v));
    out.metric("serve.coordinator.checkpoint_ms_p50", ckpt.median(), "ms");
    out.metric("serve.coordinator.checkpoint_ms_max", ckpt.max(), "ms");
    out.metric("store.bytes_written", fab_count(|f| f.store_bytes), "B");

    for stage in Stage::ALL {
        let p99 = stage_hist(live, stage).map_or(0, LogHistogram::p99);
        let name = format!("obs.stage.{}_us_p99", stage.name());
        out.metric(name, p99 as f64 / 1e3, "us");
    }
    for (name, count) in [
        ("obs.exemplar.retained", fab_count(|f| f.exemplars_retained)),
        (
            "obs.exemplar.pending_evicted",
            fab_count(|f| f.pending_evicted),
        ),
        (
            "obs.exemplar.alarmed_missing",
            fab_count(|f| f.alarmed_missing as u64),
        ),
        (
            "obs.exemplar.incomplete",
            fab_count(|f| f.incomplete as u64),
        ),
    ] {
        out.metric(name, count, "count");
    }
    if let Some(f) = fab {
        out.note(format!(
            "exemplars: {} alarmed reports, {} without a retained exemplar, {} retained exemplars missing a stage",
            f.alarmed_reports, f.alarmed_missing, f.incomplete
        ));
    }
    out.metric(
        "loadgen.lag_p99_ms",
        live.lag_ms.map_or(0.0, |l| l[1]),
        "ms",
    );

    // The traced run's own end-to-end numbers: their difference from the
    // untraced run's is the tracing overhead.
    let mut latency = Samples::new();
    live.latency_ms.iter().for_each(|&v| latency.push(v));
    out.metric("traced.snapshots_per_s", snapshots_per_s, "1/s");
    out.metric("traced.latency_p50_ms", latency.median(), "ms");
    out.metric("traced.latency_p99_ms", latency.tail().value, "ms");

    // Layer separation: self time per span family.
    let mut families: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, s) in &by {
        *families
            .entry(name.rsplit_once('.').map_or(*name, |(f, _)| f))
            .or_default() += s.self_ns;
    }
    for (family, ns) in families {
        out.note(format!(
            "self time {family:<20} {:>12.3} ms",
            ns as f64 / 1e6
        ));
    }
    out.metric("trace.spans", spans.spans().len() as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::highest_cpu;

    #[test]
    fn highest_cpu_reads_kernel_cpu_lists() {
        assert_eq!(highest_cpu("0"), Some(0));
        assert_eq!(highest_cpu("0-1"), Some(1));
        assert_eq!(highest_cpu("0-3,8,10-11"), Some(11));
        assert_eq!(highest_cpu("12,2-5"), Some(12));
        assert_eq!(highest_cpu(""), None);
    }
}
