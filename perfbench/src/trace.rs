//! In-memory spans for the traced run, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call at a layer boundary. `parent` is the span of the layer
/// above whose call had the same inputs; `request` ties together every span
/// of one request.
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a span now. [`Tracer::time_into`] may re-time it later, so a
    /// parent can be named before its children run.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span { id, name, parent, request, start_us: now, end_us: now });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Times `f` into span `id`.
    pub fn time_into<R>(&mut self, id: usize, f: impl FnOnce() -> R) -> R {
        self.spans[id].start_us = self.now_us();
        let r = std::hint::black_box(f());
        self.close(id);
        r
    }

    /// Times `f` as one new span; returns its result and the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, request);
        (self.time_into(id, f), id)
    }

    /// Durations in µs of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Self time of span `id`: its duration minus the durations of the
    /// calls one layer below made on the same inputs.
    pub fn self_us(&self, id: usize) -> f64 {
        let children: f64 = self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::us).sum();
        self.spans[id].us() - children
    }
}

/// Measured cost in µs of recording one span the way the replay does
/// (open, re-time, close), on a scratch tracer.
pub fn span_cost_us() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(Instant::now());
    let start = Instant::now();
    for i in 0..N {
        t.time("span_cost", None, i as u64, || ());
    }
    start.elapsed().as_secs_f64() * 1e6 / N as f64
}

/// Serializes spans, with their self times, as a JSON array. Ids must be
/// positions in `spans`.
pub fn to_json(spans: &[Span]) -> String {
    let mut children = vec![0.0; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p] += sp.us();
        }
    }
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}{{\"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \
             \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
            sp.id,
            sp.name,
            sp.request,
            sp.start_us,
            sp.end_us,
            sp.us() - children[i]
        );
    }
    s.push_str("\n]");
    s
}
