//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and every metric by name with its unit.

use std::fmt::Write;

/// Metrics in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(metric, _, _)| *metric == name)
            .map(|&(_, value, _)| value)
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }
}

/// What one benchmark run found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Every output matched its reference and every internal check held.
    pub correct: bool,
    /// Operations attempted (campaigns).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line. Values are printed with every digit Rust's shortest
    /// round-trip formatting gives; non-finite values become 0 (JSON has no
    /// NaN).
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let separator = if index == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{separator}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms", 1.25, "ms");
        metrics.push("count", 3.0, "count");
        let outcome = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics,
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"count\":{\"value\":3.0,\"unit\":\"count\"}}}"
        );
    }
}
