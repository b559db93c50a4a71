//! The benchmark's own spans: one per call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover (overlapping children are counted once).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The snapshot the call worked on.
    pub snap: u64,
}

/// Per-name totals over a span log.
#[derive(Debug, Default)]
pub struct NameSummary {
    pub durations_us: Samples,
    pub self_ns: u64,
}

/// An in-memory span log. A disabled log records nothing and costs one
/// branch per call, so end-to-end runs carry no spans.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, snap: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            snap,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        snap: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, snap);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Durations and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameSummary> {
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.durations_us.push((s.end_ns - s.start_ns) as f64 / 1e3);
            e.self_ns += self_ns;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"snap\":{}}}",
                s.name, s.start_ns, s.end_ns, s.snap
            );
        }
        out
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            snap: 0,
        }
    }

    fn log(spans: Vec<Span>) -> SpanLog {
        let mut log = SpanLog::new(true);
        spans.into_iter().for_each(|s| log.record(s));
        log
    }

    #[test]
    fn self_time_subtracts_children() {
        let log = log(vec![
            span("step", 0, 100, None),
            span("score", 10, 40, Some(0)),
            span("merge", 50, 60, Some(0)),
            span("row", 15, 25, Some(1)),
        ]);
        assert_eq!(log.self_times(), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let log = log(vec![
            span("step", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 260, Some(0)),
        ]);
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(log.self_times()[0], 40);
    }

    #[test]
    fn summaries_group_by_name() {
        let log = log(vec![
            span("step", 0, 100, None),
            span("score", 0, 30, Some(0)),
            span("step", 100, 150, None),
            span("score", 100, 140, Some(2)),
        ]);
        let by = log.by_name();
        assert_eq!(by["step"].self_ns, 70 + 10);
        assert_eq!(by["score"].self_ns, 70);
        assert_eq!(by["score"].durations_us.len(), 2);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("x", None, 0);
        log.close(id);
        assert_eq!(log.time("y", None, 1, || 7), 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn live_spans_nest() {
        let mut log = SpanLog::new(true);
        let outer = log.open("outer", None, 3);
        log.time("inner", Some(outer), 3, || std::hint::black_box(1 + 1));
        log.close(outer);
        let s = log.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(log.to_jsonl().lines().count() == 2);
    }
}
