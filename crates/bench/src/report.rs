//! Machine-readable benchmark reports.
//!
//! Perf-tracking benches (`scale_shards`, `durability`, …) write a small
//! JSON file at the repository root — `BENCH_shards.json`,
//! `BENCH_durability.json` — so the perf trajectory is tracked in
//! version control across PRs. The writer is deliberately dependency-free
//! (the container vendors no serde): reports are flat lists of numeric /
//! string fields, which is all a trend line needs.

use std::fmt::Write as _;
use std::path::PathBuf;

/// One measurement row: a name plus flat key→value fields.
pub struct BenchRow {
    /// Row identifier (e.g. `"shards=4/placement=local"`).
    pub name: String,
    /// Numeric fields, in insertion order.
    pub fields: Vec<(String, f64)>,
}

/// A whole report: schema name plus rows.
pub struct BenchReport {
    name: &'static str,
    rows: Vec<BenchRow>,
    summary: Vec<(String, f64)>,
}

impl BenchReport {
    /// Creates an empty report called `name`.
    pub fn new(name: &'static str) -> BenchReport {
        BenchReport {
            name,
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Appends one measurement row.
    pub fn push_row(&mut self, name: impl Into<String>, fields: &[(&str, f64)]) {
        self.rows.push(BenchRow {
            name: name.into(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Sets a headline summary field (e.g. the 1→4 shard speedup).
    pub fn push_summary(&mut self, key: impl Into<String>, value: f64) {
        self.summary.push((key.into(), value));
    }

    /// Renders the report as JSON (stable field order, 3 decimal places).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.name);
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = row
                .fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", {}}}{comma}",
                row.name,
                fields.join(", ")
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"summary\": {{");
        for (i, (k, v)) in self.summary.iter().enumerate() {
            let comma = if i + 1 < self.summary.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{k}\": {}{comma}", num(*v));
        }
        let _ = writeln!(out, "  }}");
        let _ = write!(out, "}}");
        out
    }

    /// Writes `BENCH_<suffix>.json` at the repository root and reports the
    /// path. Call only from real measurement runs — `--test` mode numbers
    /// are meaningless and must not overwrite tracked results.
    pub fn write_at_repo_root(&self, suffix: &str) {
        let path: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "..",
            "..",
            &format!("BENCH_{suffix}.json"),
        ]
        .iter()
        .collect();
        match std::fs::write(&path, self.to_json() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
}

/// True when the bench binary runs in `--test` mode (CI smoke): bodies
/// execute once and no JSON must be written.
pub fn bench_test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Reads the committed `BENCH_<suffix>.json` at the repository root, or
/// `None` when no baseline has been committed yet (first run).
pub fn read_committed(suffix: &str) -> Option<String> {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        &format!("BENCH_{suffix}.json"),
    ]
    .iter()
    .collect();
    std::fs::read_to_string(path).ok()
}

/// Extracts field `key` from the row named `row` in a report produced by
/// [`BenchReport::to_json`]. The format is this crate's own flat writer
/// output — one row object per line — so a line scan is a full parser
/// for it; a row or key that is not present yields `None`.
pub fn committed_field(json: &str, row: &str, key: &str) -> Option<f64> {
    let row_tag = format!("\"name\": \"{row}\"");
    let key_tag = format!("\"{key}\": ");
    for line in json.lines() {
        if !line.contains(&row_tag) {
            continue;
        }
        let rest = &line[line.find(&key_tag)? + key_tag.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        return rest[..end].parse().ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = BenchReport::new("demo");
        r.push_row("a=1", &[("msgs_per_sec", 1234.5678), ("count", 3.0)]);
        r.push_summary("speedup", 2.5);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"msgs_per_sec\": 1234.568"));
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"speedup\": 2.500"));
    }

    #[test]
    fn committed_field_round_trips() {
        let mut r = BenchReport::new("demo");
        r.push_row("base/4x4", &[("p99_us", 1234.5678), ("goodput_rps", 42.0)]);
        let json = r.to_json();
        assert_eq!(committed_field(&json, "base/4x4", "p99_us"), Some(1234.568));
        assert_eq!(
            committed_field(&json, "base/4x4", "goodput_rps"),
            Some(42.0)
        );
        assert_eq!(committed_field(&json, "base/4x4", "missing"), None);
        assert_eq!(committed_field(&json, "other", "p99_us"), None);
    }
}
