//! Machine-readable benchmark reports.
//!
//! The criterion benches append their measurements (ops/sec plus, where
//! measured, allocations per iteration) into one JSON file —
//! `BENCH_kernels.json` by default — so future changes have a recorded perf
//! trajectory to compare against. Entries are merged by `(group, id)`:
//! re-running a bench overwrites its own rows and leaves the others.
//!
//! The file is a record, not an input: each bench gates its own numbers
//! in memory at the end of its run, after merging them here, so a failing
//! run still leaves its measurements on disk.

use serde::Value;
use serde_json::parse_value;

/// One benchmark row of the report.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark group (e.g. `"cg_budget"`).
    pub group: String,
    /// Benchmark id within the group (e.g. `"ws/10"`).
    pub id: String,
    /// Nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per second.
    pub ops_per_sec: f64,
    /// Heap allocations per iteration, when measured.
    pub allocs_per_iter: Option<f64>,
}

impl BenchEntry {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("group".to_string(), Value::Str(self.group.clone())),
            ("id".to_string(), Value::Str(self.id.clone())),
            ("ns_per_iter".to_string(), Value::Num(self.ns_per_iter)),
            ("ops_per_sec".to_string(), Value::Num(self.ops_per_sec)),
        ];
        if let Some(a) = self.allocs_per_iter {
            map.push(("allocs_per_iter".to_string(), Value::Num(a)));
        }
        Value::Map(map)
    }
}

/// Default report file name.
pub const DEFAULT_REPORT_PATH: &str = "BENCH_kernels.json";

/// Resolves the report path: the `NADMM_BENCH_JSON` environment variable if
/// set, otherwise `BENCH_kernels.json` at the workspace root (so repeated
/// `cargo bench` runs from any directory merge into one file).
pub fn report_path() -> String {
    if let Ok(path) = std::env::var("NADMM_BENCH_JSON") {
        return path;
    }
    format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), DEFAULT_REPORT_PATH)
}

fn key_of(v: &Value) -> Option<(String, String)> {
    let group = match v.get("group") {
        Some(Value::Str(s)) => s.clone(),
        _ => return None,
    };
    let id = match v.get("id") {
        Some(Value::Str(s)) => s.clone(),
        _ => return None,
    };
    Some((group, id))
}

/// Merges `entries` into the JSON report at `path` (created if missing).
/// Existing rows with the same `(group, id)` are replaced.
///
/// An existing file that fails to parse (e.g. truncated by a crashed bench
/// run) is preserved as `<path>.corrupt` instead of being silently
/// discarded — the report is the repo's perf trajectory.
pub fn merge_bench_json(path: &str, entries: &[BenchEntry]) -> std::io::Result<()> {
    let mut rows: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(text) => match parse_value(&text) {
            Ok(Value::Seq(items)) => items,
            _ => {
                let backup = format!("{path}.corrupt");
                eprintln!("warning: {path} is not a JSON array; preserving it as {backup} and starting fresh");
                std::fs::rename(path, &backup)?;
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    for entry in entries {
        let key = (entry.group.clone(), entry.id.clone());
        rows.retain(|row| key_of(row).map(|k| k != key).unwrap_or(true));
        rows.push(entry.to_value());
    }
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&render_compact(row));
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

fn render_compact(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if !n.is_finite() {
                // `inf`/`NaN` are not valid JSON tokens; keep the file parseable.
                "null".to_string()
            } else if *n == n.trunc() && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n:.3}")
            }
        }
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Seq(items) => {
            let inner: Vec<String> = items.iter().map(render_compact).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Map(entries) => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, val)| format!("\"{k}\": {}", render_compact(val)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// The first row of `entries` whose id starts with `id_prefix`.
///
/// # Panics
/// Panics naming the prefix when no row matches, so a bench gate cannot pass
/// on a measurement that was never taken.
pub fn find_entry<'a>(entries: &'a [BenchEntry], id_prefix: &str) -> &'a BenchEntry {
    entries
        .iter()
        .find(|e| e.id.starts_with(id_prefix))
        .unwrap_or_else(|| panic!("no `{id_prefix}` row was measured"))
}

/// Converts the criterion shim's recorded measurements into report rows
/// (without allocation counts).
pub fn criterion_entries() -> Vec<BenchEntry> {
    criterion::measurements()
        .into_iter()
        .map(|m| BenchEntry {
            group: m.group,
            id: m.id,
            ns_per_iter: m.ns_per_iter,
            ops_per_sec: if m.ns_per_iter > 0.0 {
                1.0e9 / m.ns_per_iter
            } else {
                f64::INFINITY
            },
            allocs_per_iter: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_report_is_preserved_not_wiped() {
        let dir = std::env::temp_dir().join(format!("nadmm_bench_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "[{\"group\": \"g\", \"id\": \"a\", trunca").unwrap();
        let entry = BenchEntry {
            group: "g".into(),
            id: "b".into(),
            ns_per_iter: 1.0,
            ops_per_sec: 1e9,
            allocs_per_iter: None,
        };
        merge_bench_json(path, &[entry]).unwrap();
        let backup = std::fs::read_to_string(format!("{path}.corrupt")).unwrap();
        assert!(backup.contains("trunca"), "corrupt content must be preserved");
        let rows = match parse_value(&std::fs::read_to_string(path).unwrap()).unwrap() {
            Value::Seq(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(rows.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let entry = BenchEntry {
            group: "g".into(),
            id: "fast".into(),
            ns_per_iter: 0.0,
            ops_per_sec: f64::INFINITY,
            allocs_per_iter: None,
        };
        let rendered = render_compact(&entry.to_value());
        assert!(rendered.contains("\"ops_per_sec\": null"), "got: {rendered}");
        assert!(parse_value(&rendered).is_ok(), "rendered row must stay parseable");
    }

    #[test]
    fn merge_replaces_matching_rows_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("nadmm_bench_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        let a = BenchEntry {
            group: "g".into(),
            id: "a".into(),
            ns_per_iter: 10.0,
            ops_per_sec: 1e8,
            allocs_per_iter: Some(0.0),
        };
        let b = BenchEntry {
            group: "g".into(),
            id: "b".into(),
            ns_per_iter: 20.0,
            ops_per_sec: 5e7,
            allocs_per_iter: None,
        };
        merge_bench_json(path, &[a.clone(), b]).unwrap();
        let a2 = BenchEntry { ns_per_iter: 12.0, ..a };
        merge_bench_json(path, &[a2]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let rows = match parse_value(&text).unwrap() {
            Value::Seq(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(rows.len(), 2);
        let a_row = rows.iter().find(|r| key_of(r) == Some(("g".into(), "a".into()))).unwrap();
        assert_eq!(a_row.get("ns_per_iter"), Some(&Value::Num(12.0)));
        assert_eq!(a_row.get("allocs_per_iter"), Some(&Value::Num(0.0)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
