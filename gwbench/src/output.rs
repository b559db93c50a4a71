//! The result line and the human-readable notes printed before it.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run prints: notes, then one JSON object as the last line.
#[derive(Debug, Default)]
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Output {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result object (a single line of JSON).
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// What one process of a multi-process run prints: its notes, then
    /// `result` and space-separated `name=value=unit` fields.
    pub fn print_child(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let mut result = format!(
            "result correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = write!(result, " {}={}={}", m.name, m.value, m.unit);
        }
        println!("{result}");
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Output {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Output::default()
        };
        out.metric("latency_p50_ms", 1.25, "ms");
        out.metric("setup_s", f64::NAN, "s");
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
