//! The perf gate: exact comparison of perfbench counts.
//!
//! `pdc-insight diff BASE CAND` reads two perfbench result lines. BASE
//! is a committed, trimmed line (`tests/golden/perf_counts/<workload>.json`)
//! holding `correct`, `failed` and the counters that read the same on
//! every seed; CAND is the last stdout line of
//! `perfbench/run.py --workload <w> --seconds 2 --trace 1`. Every
//! top-level scalar and every metric value in BASE must appear in CAND
//! with an equal value. Keys only CAND has are ignored, so the timing
//! rows of a traced run never gate anything: timings drift on a shared
//! host and stay with the interleaved A/B protocol, while a count moves
//! only when the runtime sends another message or records another
//! event.
//!
//! Exit status: 0 on a match, 1 on any mismatch (each listed as
//! `metric: base → cand`), 2 when an input does not parse.

use serde_json::{Map, Value};

/// Parse one result line into its top-level object.
fn parse(label: &str, text: &str) -> Result<Map, String> {
    match serde_json::from_str::<Value>(text.trim()) {
        Ok(Value::Object(map)) => Ok(map),
        Ok(_) => Err(format!("{label}: not a JSON object")),
        Err(e) => Err(format!("{label}: {e}")),
    }
}

/// Numbers compare by value (`82` equals `82.0`), anything else exactly.
fn same(base: &Value, cand: &Value) -> bool {
    match (base.as_f64(), cand.as_f64()) {
        (Some(b), Some(c)) => b == c,
        _ => base == cand,
    }
}

/// Every BASE entry CAND does not reproduce, as `metric: base → cand`
/// lines; `Err` when either input is not a result line.
fn diff_counts(base: &str, cand: &str) -> Result<Vec<String>, String> {
    let base = parse("BASE", base)?;
    let cand = parse("CAND", cand)?;
    let metrics = |m: &Map| m.get("metrics").and_then(Value::as_object).cloned();
    let base_metrics = metrics(&base)
        .filter(|m| !m.is_empty())
        .ok_or("BASE: no metrics to compare")?;
    let cand_metrics = metrics(&cand).unwrap_or_default();

    let scalars = base
        .iter()
        .filter(|(_, v)| !matches!(v, Value::Object(_) | Value::Array(_)))
        .map(|(k, v)| (k, v, cand.get(k)));
    let values = base_metrics
        .iter()
        .map(|(k, m)| (k, &m["value"], cand_metrics.get(k).map(|c| &c["value"])));
    Ok(scalars
        .chain(values)
        .filter(|(_, b, c)| !c.is_some_and(|c| same(b, c)))
        .map(|(k, b, c)| match c {
            Some(c) => format!("{k}: {b} → {c}"),
            None => format!("{k}: {b} → missing"),
        })
        .collect())
}

/// The whole gate: the exit status and the text to print.
pub fn gate(base: &str, cand: &str) -> (u8, String) {
    match diff_counts(base, cand) {
        Ok(m) if m.is_empty() => (0, "counts match\n".into()),
        Ok(m) => (
            1,
            format!("{} mismatch(es):\n  {}\n", m.len(), m.join("\n  ")),
        ),
        Err(e) => (2, format!("pdc-insight: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"correct":true,"failed":0,"metrics":{"mpc.suite_msgs":{"value":82,"unit":"count"},"net.frames_per_lab":{"value":82,"unit":"count"}}}"#;

    fn cand(correct: bool, failed: u64, msgs: u64) -> String {
        format!(
            r#"{{"correct":{correct},"attempted":40,"failed":{failed},"metrics":{{"mpc.suite_msgs":{{"value":{msgs},"unit":"count"}},"net.frames_per_lab":{{"value":82.0,"unit":"count"}},"net.rtt_typed_u64_us":{{"value":51.3,"unit":"us"}}}}}}"#
        )
    }

    #[test]
    fn identical_lines_pass() {
        assert_eq!(gate(BASE, BASE).0, 0);
    }

    #[test]
    fn extra_timing_metrics_in_cand_are_ignored() {
        let (code, out) = gate(BASE, &cand(true, 0, 82));
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn one_count_off_by_one_fails_and_names_the_metric() {
        assert_eq!(
            diff_counts(BASE, &cand(true, 0, 83)).unwrap(),
            vec!["mpc.suite_msgs: 82 → 83"]
        );
        let (code, out) = gate(BASE, &cand(true, 0, 83));
        assert_eq!(code, 1);
        assert!(out.contains("mpc.suite_msgs: 82 → 83"), "{out}");
    }

    #[test]
    fn a_metric_missing_from_cand_fails() {
        let cand = r#"{"correct":true,"failed":0,"metrics":{"mpc.suite_msgs":{"value":82,"unit":"count"}}}"#;
        assert_eq!(
            diff_counts(BASE, cand).unwrap(),
            vec!["net.frames_per_lab: 82 → missing"]
        );
        assert_eq!(gate(BASE, cand).0, 1);
    }

    #[test]
    fn an_incorrect_or_failed_cand_fails() {
        assert_eq!(
            diff_counts(BASE, &cand(false, 0, 82)).unwrap(),
            vec!["correct: true → false"]
        );
        assert_eq!(
            diff_counts(BASE, &cand(true, 1, 82)).unwrap(),
            vec!["failed: 0 → 1"]
        );
        assert_eq!(gate(BASE, &cand(false, 1, 82)).0, 1);
    }

    #[test]
    fn truncated_or_non_json_input_exits_2() {
        let full = cand(true, 0, 82);
        for bad in [&full[..full.len() / 2], "", "run.py: build failed", "[1,2]"] {
            assert_eq!(gate(BASE, bad).0, 2, "CAND {bad:?}");
            assert_eq!(gate(bad, &full).0, 2, "BASE {bad:?}");
        }
        // A BASE with nothing to compare must not pass vacuously.
        assert_eq!(gate(r#"{"correct":true,"metrics":{}}"#, &full).0, 2);
    }
}
