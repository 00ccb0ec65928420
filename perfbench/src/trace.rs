//! Spans recorded by the benchmark around its calls into each layer, and a
//! trace sink that timestamps engine rounds.
//!
//! Spans stay in memory and are written out once, when the run ends. A
//! span's self time is its duration minus the time its child spans cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use ncc_model::{TraceEvent, TraceSink};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, e.g. `core.mst`.
    pub name: &'static str,
    /// Cell or request id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Spans opened with [`Tracer::begin`] nest: the
/// innermost open span is the parent of the next one.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `h` and any span still open inside it (left open by an
    /// early error return); returns its seconds.
    pub fn end(&mut self, h: usize) -> f64 {
        let end_ns = self.ns(Instant::now());
        if let Some(pos) = self.open.iter().rposition(|&x| x == h) {
            self.open.truncate(pos);
        }
        self.spans[h].end_ns = end_ns;
        self.spans[h].secs()
    }

    /// Records a span measured elsewhere (another thread's request).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One line per span name, in first-seen order: its summed self time.
    pub fn self_time_notes(&self) -> Vec<String> {
        let own = self.self_ns();
        let mut sums: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match sums.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += ns as f64 * 1e-9,
                None => sums.push((s.name, ns as f64 * 1e-9)),
            }
        }
        sums.into_iter()
            .map(|(name, secs)| format!("self time {name}: {secs:.6} s"))
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.name,
                s.id,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    /// Writes the spans under the build directory (`CARGO_TARGET_DIR`,
    /// else `target`) and returns the path written.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let dir = std::path::Path::new(&root).join("perfbench-spans");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path.display().to_string())
    }
}

/// Round timestamps collected by [`ClockSink`].
#[derive(Debug, Default)]
pub struct RoundClock {
    last: Option<Instant>,
    /// Gaps between consecutive round ends (the first gap of a call runs
    /// from its [`RoundClock::mark`]), in microseconds.
    pub gaps_us: Vec<f64>,
}

impl RoundClock {
    pub fn shared() -> Rc<RefCell<RoundClock>> {
        Rc::new(RefCell::new(RoundClock {
            last: None,
            gaps_us: Vec::with_capacity(1 << 18),
        }))
    }

    /// Starts a new series: the next round's gap is measured from now.
    pub fn mark(&mut self) {
        self.last = Some(Instant::now());
    }

    /// Ends the series, so the time until the next [`RoundClock::mark`]
    /// is not counted as a round.
    pub fn stop(&mut self) {
        self.last = None;
    }
}

/// A [`TraceSink`] that only timestamps `on_round` calls; the engine hands
/// it each round's deliveries and it ignores them.
pub struct ClockSink(pub Rc<RefCell<RoundClock>>);

impl TraceSink for ClockSink {
    fn on_round(&mut self, _round: u64, _delivered: &[TraceEvent]) {
        let now = Instant::now();
        let mut c = self.0.borrow_mut();
        if let Some(last) = c.last {
            c.gaps_us.push(now.duration_since(last).as_secs_f64() * 1e6);
        }
        c.last = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = std::time::Duration::from_millis;
        let mut t = Tracer::new(t0);
        let root = t.record("cell", 1, None, t0, t0 + ms(10));
        t.record("a", 1, Some(root), t0 + ms(1), t0 + ms(4));
        t.record("b", 1, Some(root), t0 + ms(5), t0 + ms(9));
        let own = t.self_ns();
        assert_eq!(own, vec![3_000_000, 3_000_000, 4_000_000]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"cell\"") && json.contains("\"parent\": 0"));
    }

    #[test]
    fn nested_spans_take_the_innermost_parent() {
        let mut t = Tracer::default();
        let a = t.begin("a", 0);
        let b = t.begin("b", 0);
        t.end(b);
        t.end(a);
        let c = t.begin("c", 0);
        t.end(c);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert_eq!(t.spans()[c].parent, None);
    }
}
