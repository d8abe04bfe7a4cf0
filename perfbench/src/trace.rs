//! In-memory span recorder for the traced mode.
//!
//! A span is a named, timed call into one layer's public API: a start, an
//! end, an optional parent span, the job it belongs to, and one integer
//! argument (accesses simulated, tiles, ...). Spans stay in memory while
//! the workload runs and are written out once, at exit. A span's *self
//! time* is its duration minus the time covered by its children (children
//! may overlap — cells run on several threads — so coverage is the union
//! of their intervals).

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// The recorder. Disabled recorders make `begin`/`end` no-ops, so the
/// untraced path pays one branch per call site.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (meaningless when disabled).
    fn begin(&self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a span holder panicked");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
            arg: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id`, attaching `arg`.
    fn end(&self, id: usize, arg: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a span holder panicked");
        spans[id].end_ns = end_ns;
        spans[id].arg = arg;
    }

    /// Runs `f` inside a span; `f` returns its value plus the span's arg.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce(Option<usize>) -> (T, u64),
    ) -> T {
        let id = self.begin(name, parent, job);
        let (value, arg) = f(self.enabled.then_some(id));
        self.end(id, arg);
        value
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span holder panicked").clone()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Tab-separated dump: one line per span plus its self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns\targ\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}\t{}",
            s.job, s.name, s.start_ns, s.end_ns, s.arg
        );
    }
    out
}

/// Per-name totals: `(name, count, total ms, self ms)`, in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => row,
            None => {
                rows.push((s.name, 0, 0.0, 0.0));
                rows.last_mut().expect("row just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.ms();
        row.3 += self_ns as f64 / 1e6;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 70) + [90, 100) = 70 ns.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", None, 0, |_| (7, 1));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
