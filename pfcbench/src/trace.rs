//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public function: name (`layer.what`), start, end, parent span, and the
//! point or request id it belongs to. Spans stay in memory until the run
//! ends and are then written as JSON lines. When tracing is off every call
//! is a no-op, so untraced repeats pay one branch per boundary. A traced run
//! alternates traced and untraced repeats, so that the difference between
//! them is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    /// Recorded on a twin of the traced state just before or just after
    /// its parent ran (see the serve workload): it accounts for part of
    /// the parent's work without lying inside the parent's interval.
    pub mirror: bool,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(usize);

pub struct Tracer {
    /// Whether this run traces at all.
    traced_run: bool,
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new(traced_run: bool) -> Self {
        Tracer {
            traced_run,
            on: traced_run,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn is_traced_run(&self) -> bool {
        self.traced_run
    }

    /// Trace the repeats that follow, in a traced run.
    pub fn enable(&mut self, on: bool) {
        self.on = self.traced_run && on;
    }

    /// Set the point/request id stamped on the spans that follow.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id: self.id,
            mirror: false,
        });
        self.stack.push(idx);
        Some(Open(idx))
    }

    pub fn end(&mut self, open: Option<Open>) {
        if let Some(Open(idx)) = open {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Make the spans `from..to` that are siblings of `parent` its mirror
    /// children.
    pub fn adopt_mirrors(&mut self, from: usize, to: usize, parent: Option<Open>) {
        if let Some(Open(p)) = parent {
            let grand = self.spans[p].parent;
            for (i, s) in self.spans.iter_mut().enumerate().take(to).skip(from) {
                if i != p && s.parent == grand {
                    s.parent = Some(p);
                    s.mirror = true;
                }
            }
        }
    }

    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Self time per layer: each span's duration minus its children's
    /// durations, summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer()).or_insert(0.0) += (s.dur_s() - child[i]).max(0.0);
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"mirror\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.mirror
            )?;
        }
        out.flush()
    }
}
