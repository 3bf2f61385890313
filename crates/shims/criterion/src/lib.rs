//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset the bench files use — groups, `bench_function`,
//! `bench_with_input`, [`BenchmarkId`], `iter`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple
//! calibrate-then-measure timer instead of criterion's statistics. Each
//! benchmark prints one `name: time/iter` line.
//!
//! Running with `--test` (what `cargo bench -- --test` passes, and what CI
//! uses) executes every benchmark body exactly once so perf code can't
//! bit-rot without paying for full measurement runs.

use std::time::{Duration, Instant};

/// Target wall-clock time per measurement.
const TARGET: Duration = Duration::from_millis(200);

/// A benchmark identifier: an optional function name plus a parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a name and a parameter, shown as `name/param`.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(param: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: param.to_string(),
        }
    }
}

/// The per-benchmark timing driver passed to bench closures.
pub struct Bencher {
    test_mode: bool,
    /// Measured nanoseconds per iteration, filled by [`Bencher::iter`].
    ns_per_iter: f64,
}

impl Bencher {
    /// Times `f`, calibrating the iteration count to `TARGET`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.test_mode {
            std::hint::black_box(f());
            self.ns_per_iter = 0.0;
            return;
        }
        // Calibrate: double the batch until it takes long enough to time.
        let mut batch: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET || batch >= 1 << 30 {
                break elapsed.as_nanos() as f64 / batch as f64;
            }
            batch = match TARGET.as_nanos().checked_div(elapsed.as_nanos().max(1)) {
                Some(factor) => (batch * (factor as u64 + 1)).min(batch * 16).max(batch * 2),
                None => batch * 2,
            };
        };
        self.ns_per_iter = per_iter;
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's timer self-calibrates.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl IntoLabel, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.criterion
            .run_one(&format!("{}/{}", self.name, id.into_label()), &mut f);
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.criterion
            .run_one(&format!("{}/{}", self.name, id.label), &mut |b| f(b, input));
    }

    /// Ends the group (no-op beyond API compatibility).
    pub fn finish(self) {}
}

/// Conversion of the forms `bench_function` accepts as a label.
pub trait IntoLabel {
    fn into_label(self) -> String;
}

impl IntoLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoLabel for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Reads CLI configuration (the shim only honors `--test`).
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: impl IntoLabel, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let label = name.into_label();
        self.run_one(&label, &mut f);
    }

    fn run_one(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            ns_per_iter: 0.0,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("{label}: ok (test mode)");
        } else if bencher.ns_per_iter >= 1000.0 {
            println!("{label}: {:.2} µs/iter", bencher.ns_per_iter / 1000.0);
        } else {
            println!("{label}: {:.0} ns/iter", bencher.ns_per_iter);
        }
    }
}

/// Re-export for benches that use `criterion::black_box`.
pub use std::hint::black_box;

/// Declares a benchmark group function running the listed targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
