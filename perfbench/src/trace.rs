//! The benchmark's own spans: recorded in memory around calls into the
//! program (requests, CLI runs, in-process layer calls) and written at
//! exit as Chrome trace-event JSON, which Perfetto and chrome://tracing
//! load directly.

use std::time::Instant;

/// Spans kept per forked (per-connection) recorder; later ones are
/// counted, not stored, which keeps the Chrome trace to a few MB.
const FORK_SPANS: usize = 20_000;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// One thread's span recorder. Disabled recorders cost one branch per
/// call, so the untraced run takes the same code path.
pub struct Tracer {
    on: bool,
    t0: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cap: usize,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant, tid: u32) -> Self {
        Self {
            on,
            t0,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            cap: usize::MAX,
            dropped: 0,
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self, tid: u32) -> Self {
        Self {
            cap: FORK_SPANS,
            ..Self::new(self.on, self.t0, tid)
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span as a child of the innermost open one.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            tid: self.tid,
        };
        self.spans.push(span);
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.record(name, now, now);
        if let Some(i) = self.spans.len().checked_sub(1) {
            self.open.push(i);
        }
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Time `f` as a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Fold another thread's spans in (their parents are re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// the span index and its parent's index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                s.name.replace('"', "'"),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Self time per span name in ms: each span's duration minus the part
    /// its direct children cover, summed by name, largest first.
    pub fn self_times_ms(&self) -> Vec<(String, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            let e = by_name.entry(&s.name).or_default();
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        let mut v: Vec<(String, f64, usize)> = by_name
            .into_iter()
            .map(|(k, (ms, n))| (k.to_string(), ms, n))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}
