//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A disabled tracer records nothing; an enabled one appends to a
//! pre-sized vector and is written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request (or one pipeline repeat) share this id.
    pub id: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub thread: &'static str,
}

/// One thread's span log. Tracers of one run share an epoch so their
/// spans can be merged.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self, thread: &'static str) -> Tracer {
        Tracer::new(self.enabled, self.epoch, thread)
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.us(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us: now,
            end_us: now,
            thread: self.thread,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    pub fn end(&mut self, index: usize) {
        if index == NO_SPAN {
            return;
        }
        let now = self.us(Instant::now());
        self.spans[index].end_us = now;
        if let Some(pos) = self.open.iter().rposition(|&i| i == index) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name, id);
        let out = f();
        self.end(index);
        out
    }

    /// Records a span whose bounds were measured elsewhere (for example
    /// from timing the program itself reports).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            id,
            parent: parent.filter(|&p| p != NO_SPAN),
            start_us,
            end_us,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a tracer: count, wall time and self time (wall
/// time minus the time its child spans cover), in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn totals(tracers: &[Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for tracer in tracers {
        let mut child_us = vec![0.0f64; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        for (span, children) in tracer.spans.iter().zip(child_us) {
            let wall = span.end_us - span.start_us;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += wall / 1e3;
            entry.self_ms += (wall - children).max(0.0) / 1e3;
        }
    }
    out
}

/// Serialises every span plus the per-name totals as JSON.
pub fn to_json(tracers: &[Tracer]) -> String {
    let mut s = String::from("{\"spans\":[");
    let mut first = true;
    for tracer in tracers {
        for (index, span) in tracer.spans.iter().enumerate() {
            if !first {
                s.push(',');
            }
            first = false;
            let parent = span
                .parent
                .map(|p| format!("\"{}:{p}\"", span.thread))
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                s,
                "{{\"span\":\"{}:{index}\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"thread\":\"{}\"}}",
                span.thread, span.name, span.id, span.start_us, span.end_us, span.thread
            );
        }
    }
    s.push_str("],\"self_time\":{");
    for (i, (name, t)) in totals(tracers).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{name}\":{{\"count\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
            t.count, t.total_ms, t.self_ms
        );
    }
    s.push_str("}}\n");
    s
}
