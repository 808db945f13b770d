//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (name, start, end, parent, job id), kept in memory,
//! and written out once when the run ends. A disabled tracer runs the
//! same closures and records nothing, so the untraced reference and the
//! traced run execute identical code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `ga.search`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A recorder; `on = false` gives the untraced reference.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Starts the next job: later spans carry a fresh job id.
    pub fn start_job(&mut self) {
        self.job += 1;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the current span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.secs(Instant::now());
        out
    }

    /// Records an already-finished interval under the current span (used
    /// by the run-audit observer, which sees only boundary instants).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start: self.secs(start),
                end: self.secs(end),
                parent: self.stack.last().copied(),
                job: self.job,
            };
            self.spans.push(span);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur() - c)
            .collect()
    }

    /// Total self time and total wall time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += s.dur();
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start, s.end, s.job
            )
            .expect("write to String");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_wall() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(1)));
            t.span("c", |_| ());
        });
        let own: f64 = t.self_times().iter().sum();
        let root = t.spans()[0].dur();
        assert!((own - root).abs() < 1e-9, "{own} vs {root}");
        assert_eq!(t.spans()[2].parent, Some(1));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
