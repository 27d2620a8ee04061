//! Shared helpers for the hand-rolled JSON the benchmark binaries emit
//! (the workspace deliberately has no serde).

/// Normalizes IEEE negative zero to positive zero for JSON output.
///
/// Aggregated simulated quantities can come out as `-0.0` (e.g. a sum of
/// negated durations that is exactly zero), and `format!("{:.3}", -0.0)`
/// prints `-0.000` — valid JSON, but a recurring diff-noise source in the
/// committed `BENCH_*.json` files. `-0.0 == 0.0` in IEEE 754, so the
/// comparison below catches exactly the negative-zero case.
pub fn nz(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// True when a run asks for more worker threads than the host has cores —
/// its wall-clock numbers measure oversubscription, not scaling. Logs a
/// warning to stderr the first time it trips for a given pair.
pub fn oversubscribed(worker_threads: usize, host_cpus: usize) -> bool {
    let over = worker_threads > host_cpus;
    if over {
        eprintln!(
            "warning: worker_threads={worker_threads} exceeds host_cpus={host_cpus}; \
             wall-clock samples measure oversubscription, not scaling"
        );
    }
    over
}

/// Top-level sections of `BENCH_engine.json`, in the order `bench_engine`
/// writes them.
pub const ENGINE_SECTIONS: [&str; 3] = ["host_cpus", "runs", "multi_app"];

/// Top-level sections of `BENCH_decision.json`, in the order
/// `bench_decision` writes them.
pub const DECISION_SECTIONS: [&str; 5] =
    ["host_cpus", "workloads", "stress", "certify", "certify_verify_ratio"];

/// Top-level sections of `BENCH_failure.json`, in the order `bench_failure`
/// writes them.
pub const FAILURE_SECTIONS: [&str; 5] =
    ["fault_plan", "runs", "speculation", "quarantine", "degradation"];

/// Renders a top-level JSON object, one `"key": value` line per section.
///
/// `values` are raw JSON. The shared length `N` ties an emitter's values to
/// its section constant, so a section cannot be written without being
/// declared there (and checked against the committed file by
/// `tests/bench_artifacts.rs`).
pub fn render_sections<const N: usize>(keys: [&str; N], values: [String; N]) -> String {
    let lines: Vec<String> =
        keys.iter().zip(values).map(|(key, value)| format!("  \"{key}\": {value}")).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Renders `rows` (raw JSON values) as an array with one row per line,
/// indented to sit under a [`render_sections`] key.
pub fn render_rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|row| format!("    {row}")).collect();
    if rows.is_empty() {
        "[\n  ]".to_string()
    } else {
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_is_normalized() {
        assert_eq!(format!("{:.3}", nz(-0.0)), "0.000");
        assert_eq!(format!("{:.3}", nz(0.0)), "0.000");
        assert_eq!(format!("{:.3}", nz(-1.5)), "-1.500");
        assert_eq!(format!("{:.3}", nz(2.25)), "2.250");
    }

    #[test]
    fn oversubscription_is_detected() {
        assert!(oversubscribed(8, 4));
        assert!(!oversubscribed(4, 4));
        assert!(!oversubscribed(1, 4));
    }

    #[test]
    fn sections_render_one_key_per_line() {
        let rows = render_rows(["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()]);
        let json = render_sections(["n", "rows"], ["3".to_string(), rows]);
        assert_eq!(
            json,
            "{\n  \"n\": 3,\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}\n"
        );
        assert_eq!(render_rows(Vec::new()), "[\n  ]");
    }
}
