//! Machine-readable benchmark reports.
//!
//! Perf-tracking benches (`loadgen`, `durability`, …) write a small
//! JSON file at the repository root — `BENCH_latency.json`,
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
        let path = repo_root_json(suffix);
        match std::fs::write(&path, self.to_json() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
}

/// `BENCH_<suffix>.json` at the repository root.
fn repo_root_json(suffix: &str) -> PathBuf {
    let file = format!("BENCH_{suffix}.json");
    [env!("CARGO_MANIFEST_DIR"), "..", "..", &file]
        .iter()
        .collect()
}

/// True when the bench binary runs in `--test` mode (CI smoke): bodies
/// execute once and no JSON must be written.
pub fn bench_test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Reads the committed `BENCH_<suffix>.json` at the repository root, or
/// `None` when no baseline has been committed yet (first run).
fn read_committed(suffix: &str) -> Option<String> {
    std::fs::read_to_string(repo_root_json(suffix)).ok()
}

/// Extracts field `key` from the row named `row` in a report produced by
/// [`BenchReport::to_json`]. The format is this crate's own flat writer
/// output — one row object per line — so a line scan is a full parser
/// for it; a row or key that is not present yields `None`.
fn committed_field(json: &str, row: &str, key: &str) -> Option<f64> {
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

/// Multiplicative slack on [`gate_against_committed`]: measured p99 ≤
/// committed × slack, measured goodput ≥ committed ÷ slack. The gated
/// rows are deterministic under their seed, so the slack only absorbs
/// deliberate retunes riding along with a PR.
pub const GATE_SLACK: f64 = 1.25;

/// The always-on regression gate of the `loadgen` bench:
/// records the fresh `p99_us` / `goodput_rps` of `row` as summaries and
/// checks them against the committed `BENCH_<suffix>.json` (skipped on a
/// first run, when nothing is committed).
///
/// # Panics
///
/// Panics when either figure regressed past [`GATE_SLACK`].
pub fn gate_against_committed(
    report: &mut BenchReport,
    suffix: &str,
    bench: &str,
    row: &str,
    p99_us: f64,
    goodput_rps: f64,
) {
    report.push_summary("gate_p99_us", p99_us);
    report.push_summary("gate_goodput_rps", goodput_rps);
    let Some(json) = read_committed(suffix) else {
        println!("no committed BENCH_{suffix}.json — gate skipped (first run)");
        return;
    };
    let committed = |key: &str| {
        committed_field(&json, row, key)
            .unwrap_or_else(|| panic!("committed BENCH_{suffix}.json has no {row} {key}"))
    };
    let (committed_p99, committed_goodput) = (committed("p99_us"), committed("goodput_rps"));
    println!(
        "gate: p99 {p99_us:.1}us vs committed {committed_p99:.1}us, \
         goodput {goodput_rps:.0} rps vs committed {committed_goodput:.0} rps"
    );
    let refresh = format!(
        "(slack {GATE_SLACK}x) — if the change is intentional, rerun `cargo bench -p \
         asbestos-bench --bench {bench}` and commit the refreshed BENCH_{suffix}.json"
    );
    assert!(
        p99_us <= committed_p99 * GATE_SLACK,
        "{row} p99 regressed: {p99_us:.1}us vs committed {committed_p99:.1}us {refresh}"
    );
    assert!(
        goodput_rps >= committed_goodput / GATE_SLACK,
        "{row} goodput regressed: {goodput_rps:.0} rps vs committed {committed_goodput:.0} rps {refresh}"
    );
}

/// The `cluster` bench's gate: each `(key, value)` of `row` equals the
/// committed `BENCH_<suffix>.json` exactly, for counts that are a function
/// of the seed (skipped on a first run, when nothing is committed).
pub fn pin_against_committed(suffix: &str, row: &str, fields: &[(&str, f64)]) {
    let Some(json) = read_committed(suffix) else {
        return;
    };
    for &(key, value) in fields {
        let why = format!("{row} {key} moved: if on purpose, delete BENCH_{suffix}.json and rerun");
        assert_eq!(committed_field(&json, row, key), Some(value), "{why}");
    }
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
