//! In-memory spans around the harness's own calls into the program.
//!
//! A span is (name, start, end, parent, round). Spans nest by call order:
//! `enter` pushes, `exit` pops, and a span's parent is whatever was open
//! when it began. Nothing is written until the repetition ends. With the
//! tracer disabled `enter`/`exit` read no clock and store nothing, so the
//! untraced repetitions pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            round: self.round,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes the spans as tab-separated text, one per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tround")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        out.flush()
    }
}

/// Per-name totals with self time: a span's duration minus the durations
/// of the spans that name it as their parent.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let spans = vec![
            span("round", 0, 100, NO_PARENT),
            span("open", 5, 15, 0),
            span("run", 20, 90, 0),
            span("kernel0.run", 25, 55, 2),
            span("pump_wire", 60, 80, 2),
            span("round", 100, 150, NO_PARENT),
            span("run", 110, 140, 5),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["round"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: (100 - 10 - 70) + (50 - 30)
            }
        );
        assert_eq!(
            t["run"],
            NameTotals {
                count: 2,
                total_ns: 100,
                self_ns: (70 - 30 - 20) + 30
            }
        );
        assert_eq!(t["open"].self_ns, 10);
        assert_eq!(t["pump_wire"].total_ns, 20);
        // Self times partition the root spans' wall time.
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 150);
    }

    #[test]
    fn tracer_nests_by_call_order_and_is_inert_when_disabled() {
        let mut tr = Tracer::new(true);
        tr.set_round(7);
        tr.enter("round");
        tr.enter("run");
        tr.exit();
        tr.enter("poll");
        tr.exit();
        tr.exit();
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, NO_PARENT);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[2].parent, 0);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.round == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        off.enter("round");
        off.exit();
        assert!(off.totals().is_empty());
    }
}
