//! The benchmark's own span recorder, Chrome trace export and stage
//! ledger.
//!
//! Spans are recorded here, around the benchmark's calls into each
//! layer, rather than through `webcache_obs::span`, so a change to the
//! `obs` crate cannot change how the benchmark measures. A span's name is
//! `<layer>.<stage>`; the layer is the part before the first dot.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Track of the thread that runs the op (the replay side).
pub const MAIN: u32 = 0;
/// Track of the benchmark's HTTP handler thread (serve only).
pub const HTTP: u32 = 90;
/// Track of the scrape generator (serve only).
pub const SCRAPER: u32 = 91;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// In-memory span store, shared by every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span ending at the matching [`Recorder::end`].
    pub fn begin(&self, name: &'static str, tid: u32, op: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            tid,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    pub fn end(&self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span store")[id].end_ns = now;
    }

    /// Records a span that already happened.
    pub fn record(
        &self,
        name: &'static str,
        tid: u32,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(Span {
            name,
            tid,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        })
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        tid: u32,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, tid, op, parent);
        let out = f();
        self.end(id);
        out
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store");
        spans.push(span);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let name = match *tid {
            MAIN => "op".to_owned(),
            HTTP => "http-handler".to_owned(),
            SCRAPER => "scraper".to_owned(),
            worker => format!("sweep-worker-{}", worker - 1),
        };
        let _ = writeln!(
            out,
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}},",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.op,
        );
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Per-layer self time over the traced ops.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Wall time of the traced ops: the summed durations of the root
    /// spans on the op track.
    pub op_wall_s: f64,
    /// Number of root spans (ops or serve passes).
    pub roots: usize,
    /// `(layer, self seconds)`, in first-seen order. Root self time is
    /// the `unattributed` remainder and is not listed here.
    pub layers: Vec<(&'static str, f64)>,
    /// `(stage, self seconds)` for every non-root span name.
    pub stages: Vec<(&'static str, f64)>,
    pub unattributed_s: f64,
}

impl Ledger {
    /// Builds the ledger from the spans on the op track. A span's self
    /// time is its duration minus its direct children on the same track;
    /// spans on other threads (sweep workers, HTTP) run beside the op and
    /// are not subtracted.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter().filter(|s| s.tid == MAIN) {
            if let Some(p) = s.parent {
                if spans[p].tid == MAIN {
                    child_s[p] += s.secs();
                }
            }
        }
        let mut ledger = Ledger::default();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.tid == MAIN) {
            let own = (s.secs() - child_s[i]).max(0.0);
            if s.parent.is_none() {
                ledger.op_wall_s += s.secs();
                ledger.roots += 1;
                ledger.unattributed_s += own;
                continue;
            }
            add(&mut ledger.layers, s.layer(), own);
            add(&mut ledger.stages, s.name, own);
        }
        ledger
    }

    pub fn layer_s(&self, layer: &str) -> f64 {
        find(&self.layers, layer)
    }

    pub fn stage_s(&self, stage: &str) -> f64 {
        find(&self.stages, stage)
    }

    /// Share of the op wall time a number of seconds stands for.
    pub fn share(&self, secs: f64) -> f64 {
        if self.op_wall_s > 0.0 {
            secs / self.op_wall_s
        } else {
            0.0
        }
    }

    /// The stage ledger as text: self time per root, and share of the
    /// op wall time, by layer and by stage.
    pub fn render(&self, per: &str) -> String {
        let n = self.roots.max(1) as f64;
        let mut out = format!(
            "stage ledger per {per} ({} traced): {:.6} s wall\n",
            self.roots,
            self.op_wall_s / n
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>8}",
            "layer / stage", "self s", "share"
        );
        for &(layer, secs) in &self.layers {
            let _ = writeln!(
                out,
                "  {layer:<28} {:>12.6} {:>7.2}%",
                secs / n,
                100.0 * self.share(secs)
            );
            for &(stage, stage_s) in self
                .stages
                .iter()
                .filter(|(s, _)| s.split('.').next() == Some(layer))
            {
                let _ = writeln!(
                    out,
                    "    {stage:<26} {:>12.6} {:>7.2}%",
                    stage_s / n,
                    100.0 * self.share(stage_s)
                );
            }
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12.6} {:>7.2}%",
            "unattributed",
            self.unattributed_s / n,
            100.0 * self.share(self.unattributed_s)
        );
        out
    }
}

fn add(list: &mut Vec<(&'static str, f64)>, key: &'static str, secs: f64) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += secs,
        None => list.push((key, secs)),
    }
}

fn find(list: &[(&'static str, f64)], key: &str) -> f64 {
    list.iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |&(_, s)| s)
}
