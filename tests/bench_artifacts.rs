//! The committed `BENCH_*.json` artifacts carry every top-level section
//! their emitters write.
//!
//! Each emitter in `crates/bench` renders its file through one section
//! constant (`blaze_bench::json::*_SECTIONS`); this test reads the committed
//! files against the same constants, so an emitter that gains a section
//! fails here until its artifact is regenerated.

use blaze_bench::json::{DECISION_SECTIONS, ENGINE_SECTIONS, FAILURE_SECTIONS};

/// The keys of a JSON document's top-level object, in file order.
///
/// A minimal scanner (the workspace has no serde): it tracks nesting depth
/// outside string literals and takes a string at depth 1 as a key when the
/// next non-blank character is `:`.
fn top_level_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let rest = json[i + 1..].trim_start();
                if depth == 1 && rest.starts_with(':') {
                    keys.push(json[start..i].to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

fn committed_keys(file: &str) -> Vec<String> {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    top_level_keys(&json)
}

#[test]
fn scanner_reads_only_top_level_keys() {
    let json = r#"{"a": 1, "b": [{"c": "x:\"y"}], "d": {"e": [1, 2]}}"#;
    assert_eq!(top_level_keys(json), ["a", "b", "d"]);
}

#[test]
fn bench_engine_artifact_has_every_section() {
    assert_eq!(committed_keys("BENCH_engine.json"), ENGINE_SECTIONS);
}

#[test]
fn bench_decision_artifact_has_every_section() {
    assert_eq!(committed_keys("BENCH_decision.json"), DECISION_SECTIONS);
}

#[test]
fn bench_failure_artifact_has_every_section() {
    assert_eq!(committed_keys("BENCH_failure.json"), FAILURE_SECTIONS);
}
