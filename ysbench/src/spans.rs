//! Real-time spans around the benchmark's calls into the program's public
//! API. Each request opens a root span; every public call inside it is a
//! child span named after the layer it enters. Spans stay in memory and are
//! written out when the run ends; per-layer times are the sums of the child
//! spans, and the part of each request no child covers is "unattributed"
//! (the benchmark's own glue plus anything between calls).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// At most this many spans are kept for the written trace; the per-layer
/// sums always cover every span.
const KEPT_SPANS: usize = 100_000;

struct SpanRecord {
    request: u64,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// Span recorder. When off, [`Recorder::span`] only runs its closure.
pub struct Recorder {
    on: bool,
    origin: Instant,
    open: Option<(Instant, u128)>,
    requests: u64,
    unattributed_ns: u128,
    layer_ns: BTreeMap<&'static str, u128>,
    kept: Vec<SpanRecord>,
}

impl Recorder {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            open: None,
            requests: 0,
            unattributed_ns: 0,
            layer_ns: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a request's root span.
    pub fn begin(&mut self) {
        if self.on {
            self.open = Some((Instant::now(), 0));
        }
    }

    /// Times `f` as a child span of the open request, named after `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = (end - start).as_nanos();
        *self.layer_ns.entry(layer).or_default() += ns;
        if let Some((_, covered)) = &mut self.open {
            *covered += ns;
        }
        self.keep(layer, start, end);
        out
    }

    /// Closes the open request's root span.
    pub fn end(&mut self) {
        let Some((start, covered)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        self.keep("request", start, end);
        self.requests += 1;
        self.unattributed_ns += (end - start).as_nanos().saturating_sub(covered);
    }

    fn keep(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(SpanRecord {
                request: self.requests,
                name,
                start_ns: (start - self.origin).as_nanos(),
                end_ns: (end - self.origin).as_nanos(),
            });
        }
    }

    /// Mean milliseconds per request spent in `layer`'s spans.
    #[must_use]
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.per_request(self.layer_ns.get(layer).copied().unwrap_or(0))
    }

    /// Total nanoseconds spent in `layer`'s spans.
    #[must_use]
    pub fn layer_ns(&self, layer: &str) -> u128 {
        self.layer_ns.get(layer).copied().unwrap_or(0)
    }

    /// Mean milliseconds per request covered by no layer span.
    #[must_use]
    pub fn unattributed_ms(&self) -> f64 {
        self.per_request(self.unattributed_ns)
    }

    fn per_request(&self, ns: u128) -> f64 {
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Writes the kept spans as tab-separated `request, name, parent,
    /// start_ns, end_ns` lines (a layer span's parent is its request's
    /// root span, named `request`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("request\tname\tparent\tstart_ns\tend_ns\n");
        for s in &self.kept {
            let parent = if s.name == "request" { "-" } else { "request" };
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
