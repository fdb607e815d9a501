//! Named metrics and the result line.

use crate::sys::json_str;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. A non-finite value would not be JSON, so it makes
    /// the run incorrect and prints as 0.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0 && finite,
            body.join(",")
        )
    }
}
