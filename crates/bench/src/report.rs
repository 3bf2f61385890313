//! Machine-readable benchmark reports.
//!
//! Some benches keep a small JSON file at the repository root, so what
//! they measure is tracked in version control. `BENCH_latency.json` and
//! `BENCH_cluster.json` hold exact counts, which the `loadgen` and
//! `cluster` benches check by equality ([`pin_against_committed`]);
//! `BENCH_durability.json` is a host-clock trend with no gate. The writer
//! is deliberately dependency-free (the workspace vendors no serde):
//! reports are flat lists of numeric / string fields.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measurement row: a name plus flat key→value fields.
pub struct BenchRow {
    /// Row identifier (e.g. `"baseline/1x1"`).
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

    /// Sets a headline summary field.
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
        self.write_to(&repo_root_json(suffix));
    }

    fn write_to(&self, path: &Path) {
        match std::fs::write(path, self.to_json() + "\n") {
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

/// The gate of the `loadgen` and `cluster` benches: `report` must render
/// exactly as the committed `BENCH_<suffix>.json`. Every field is a count
/// that is a function of the seed, so any change to what a scenario does
/// fails until the file is regenerated on purpose. On a first run, when
/// nothing is committed, writes the file instead.
///
/// # Panics
///
/// Panics naming the first row that differs from the committed file.
pub fn pin_against_committed(report: &BenchReport, suffix: &str) {
    pin_at(report, &repo_root_json(suffix));
}

fn pin_at(report: &BenchReport, path: &Path) {
    let Ok(committed) = std::fs::read_to_string(path) else {
        report.write_to(path);
        return;
    };
    let fresh = report.to_json();
    let (was, now): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let Some(i) = (0..was.len().max(now.len())).find(|&i| was.get(i) != now.get(i)) else {
        return;
    };
    let (was, now) = (was.get(i).copied(), now.get(i).copied());
    let row = now
        .or(was)
        .and_then(|line| line.split("\"name\": \"").nth(1)?.split('"').next())
        .map_or(format!("line {}", i + 1), |name| format!("row {name}"));
    panic!(
        "{} {row} moved\n  committed: {}\n  now:       {}\n\
         if on purpose, delete the file and rerun the bench",
        path.display(),
        was.unwrap_or("(none)"),
        now.unwrap_or("(none)"),
    );
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

    fn demo(completed: f64) -> BenchReport {
        let mut r = BenchReport::new("demo");
        r.push_row("base/1x1", &[("issued", 512.0), ("completed", 512.0)]);
        r.push_row("base/4x4", &[("issued", 512.0), ("completed", completed)]);
        r
    }

    /// A scratch report path, removed when dropped (also on a panic).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let file = format!("asbestos-pin-{tag}-{}.json", std::process::id());
            let path = std::env::temp_dir().join(file);
            let _ = std::fs::remove_file(&path);
            Scratch(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn pin_passes_an_equal_rendering() {
        let file = Scratch::new("equal");
        std::fs::write(&file.0, demo(512.0).to_json() + "\n").unwrap();
        pin_at(&demo(512.0), &file.0);
    }

    #[test]
    #[should_panic(expected = "row base/4x4 moved")]
    fn pin_names_the_row_a_count_moved_in() {
        let file = Scratch::new("moved");
        std::fs::write(&file.0, demo(512.0).to_json() + "\n").unwrap();
        pin_at(&demo(511.0), &file.0);
    }

    #[test]
    fn pin_writes_a_missing_file() {
        let file = Scratch::new("missing");
        pin_at(&demo(511.0), &file.0);
        let written = std::fs::read_to_string(&file.0).unwrap();
        assert_eq!(written, demo(511.0).to_json() + "\n");
    }
}
