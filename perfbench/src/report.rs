//! What one workload run reports: its metrics, the operations it
//! attempted and failed, and the output checks that failed.

use std::time::Instant;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: engine runs, served batches or cluster runs.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Median share of the VM's CPU the hypervisor left the timed
    /// operations (their times are scaled by it); 1 when not measured.
    pub kept: f64,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            kept: 1.0,
        }
    }
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one operation; a failure is recorded with its reason.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|why| self.fail(1, why)).ok()
    }

    /// Count `ops` attempted operations as failed, for reason `why`.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Metrics as an aligned table, one `name value unit` row each.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("  {:<30} {:>16} {}\n", m.name, fmt_value(m.value), m.unit))
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit `f64` formatting keeps (shortest round-trip form); JSON
/// has no NaN or infinity, so those print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run `op` until `seconds` have passed and it ran at least `min_ops`
/// times.
pub fn repeat_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// FNV-1a over a load vector: a cheap fingerprint for bit-identity
/// checks between repetitions and executors.
pub fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut out = Outcome::default();
        out.push("balls_per_s", 1234.5, "balls/s");
        out.push("setup_s", 0.000_123_456_789, "s");
        assert_eq!(out.record(Ok(7)), Some(7));
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"balls_per_s\": {\"value\": 1234.5, \"unit\": \"balls/s\"}, \
             \"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}}}"
        );
        assert_eq!(out.record::<()>(Err("bad".into())), None);
        assert!(!out.correct());
        assert!(out
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut seen = Vec::new();
        repeat_for(0.0, 3, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
