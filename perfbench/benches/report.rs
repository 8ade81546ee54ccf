//! Metric collection, correctness bookkeeping and the result line.

use std::fmt::Write as _;

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile of `xs` (NaN when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: &'static str,
}

/// The metrics of one run plus its correctness tally.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric taken over `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metric_noted(name, value, unit, samples, "");
    }

    /// Records a metric with a note printed next to it in the table.
    pub fn metric_noted(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize, note: &'static str) {
        assert!(!self.metrics.iter().any(|m| m.name == name), "metric {name} recorded twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note,
        });
    }

    /// Counts one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Counts `attempted` operations checked together, `failed` of which
    /// failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed ({failed} of {attempted}): {}", what());
        }
    }

    /// Prints the human-readable table, then the result line last.
    pub fn print(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("{:<40} {:>16.6} {:<8} n={}{note}", m.name, m.value, m.unit, m.samples);
        }
        let mut line = String::new();
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite());
        write!(
            line,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values have no JSON form; they already mark the run
            // incorrect above.
            let value = if m.value.is_finite() {
                format!("{:e}", m.value)
            } else {
                "null".into()
            };
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit).expect("write to String");
        }
        line.push_str("}}");
        println!("{line}");
    }
}
