//! Flight recorder: a fixed-capacity audit trail of cache decisions.
//!
//! Aggregate metrics (PR 4's [`Registry`](crate::Registry)) say *that*
//! hit rates moved; the flight recorder says *why* individual documents
//! were admitted, rejected, or evicted. It keeps the last N decisions in
//! a wrap-around ring of compact [`DecisionRecord`]s — request index,
//! doc id, type, size, event kind, and a per-policy [`Reason`] payload
//! (GreedyDual H/L, LFU-DA key, TinyLFU estimate, ARC/S3-FIFO queue
//! provenance) — cheap enough to leave on during live replay and dump
//! as JSONL when an anomaly fires.
//!
//! ```
//! use webcache_obs::flight::{DecisionRecord, EventKind, FlightRecorder, Reason};
//!
//! let mut ring = FlightRecorder::new(2);
//! for i in 0..5u64 {
//!     ring.record(DecisionRecord {
//!         index: i,
//!         doc: 7,
//!         doc_type: 0,
//!         size: 100,
//!         event: EventKind::Evict,
//!         reason: Reason::greedy_dual(1.5, 0.5),
//!     });
//! }
//! // Capacity 2: only the last two survive, oldest first.
//! let kept: Vec<u64> = ring.iter().map(|r| r.index).collect();
//! assert_eq!(kept, vec![3, 4]);
//! assert_eq!(ring.total(), 5);
//!
//! let dump = ring.to_jsonl();
//! let back = FlightRecorder::parse_jsonl(&dump).unwrap();
//! assert_eq!(back, ring.snapshot());
//! ```
//!
//! The recorder itself is single-threaded; [`SharedRecorder`] wraps it
//! in `Arc<Mutex<..>>` for the serve path where the replay thread writes
//! and HTTP handlers read. [`ReasonChannel`] is the FIFO seam carrying
//! policy-emitted reasons from a [`MetricsSink`]
//! ([`FlightSink`]) to the observer that stamps them onto events: the
//! cache pushes exactly one reason per eviction (in victim order) and
//! one per admission verdict, and the observer pops in the same order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{self, Value};
use crate::sink::MetricsSink;

/// What happened to the document at this record's request index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Request served from cache.
    Hit,
    /// Request missed (document absent).
    Miss,
    /// Request missed because the cached copy was stale.
    ModificationMiss,
    /// Fetched document stored.
    Insert,
    /// Fetched document refused by the admission filter.
    AdmissionReject,
    /// Resident document evicted to make room.
    Evict,
}

impl EventKind {
    /// Every kind, in serialization order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Hit,
        EventKind::Miss,
        EventKind::ModificationMiss,
        EventKind::Insert,
        EventKind::AdmissionReject,
        EventKind::Evict,
    ];

    /// Stable wire label (used in JSONL dumps and `/debug/*` payloads).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Hit => "hit",
            EventKind::Miss => "miss",
            EventKind::ModificationMiss => "mod_miss",
            EventKind::Insert => "insert",
            EventKind::AdmissionReject => "admit_reject",
            EventKind::Evict => "evict",
        }
    }

    /// Parses a wire label back into a kind.
    pub fn parse(label: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// Which policy mechanism produced a [`Reason`], and therefore how its
/// two scalar payload fields are named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReasonKind {
    /// No reason attached (plain events, or policies without one).
    None,
    /// GreedyDual family (GDS/GDSF/GD\*): victim H-value and the
    /// inflation value L before this eviction. Fields `h`, `l`.
    GreedyDual,
    /// LFU-DA: victim key (count + age) and raw count. Fields `key`,
    /// `count`.
    LfuDa,
    /// Plain LFU: victim access count. Field `count`.
    Frequency,
    /// SIZE policy: victim byte size. Field `bytes`.
    Size,
    /// TinyLFU admission verdict: sketch frequency estimate vs the
    /// admit threshold. Fields `estimate`, `threshold`.
    TinyLfu,
    /// Second-hit admission verdict: whether the doc was remembered
    /// (1.0) or first-seen (0.0). Field `seen`.
    SecondHit,
    /// Max-size admission verdict: document size vs the ceiling.
    /// Fields `bytes`, `ceiling`.
    MaxSize,
    /// ARC eviction from T1 (recency queue): T1 bytes and the adaptive
    /// target p. Fields `t1_bytes`, `target`.
    ArcT1,
    /// ARC eviction from T2 (frequency queue): same fields.
    ArcT2,
    /// S3-FIFO eviction from the small queue (freq stayed 0).
    /// Field `freq`.
    S3Small,
    /// S3-FIFO eviction from the main queue (second chance exhausted).
    /// Field `freq`.
    S3Main,
    /// LRU-2 eviction: touches since the victim's second-latest
    /// reference, or since its only one, and the references counted (2,
    /// or 1 for a one-timer). Fields `distance`, `refs`.
    BackwardK,
}

impl ReasonKind {
    /// Every kind, in serialization order.
    pub const ALL: [ReasonKind; 13] = [
        ReasonKind::None,
        ReasonKind::GreedyDual,
        ReasonKind::LfuDa,
        ReasonKind::Frequency,
        ReasonKind::Size,
        ReasonKind::TinyLfu,
        ReasonKind::SecondHit,
        ReasonKind::MaxSize,
        ReasonKind::ArcT1,
        ReasonKind::ArcT2,
        ReasonKind::S3Small,
        ReasonKind::S3Main,
        ReasonKind::BackwardK,
    ];

    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ReasonKind::None => "none",
            ReasonKind::GreedyDual => "greedy_dual",
            ReasonKind::LfuDa => "lfu_da",
            ReasonKind::Frequency => "frequency",
            ReasonKind::Size => "size",
            ReasonKind::TinyLfu => "tinylfu",
            ReasonKind::SecondHit => "second_hit",
            ReasonKind::MaxSize => "max_size",
            ReasonKind::ArcT1 => "arc_t1",
            ReasonKind::ArcT2 => "arc_t2",
            ReasonKind::S3Small => "s3_small",
            ReasonKind::S3Main => "s3_main",
            ReasonKind::BackwardK => "backward_k",
        }
    }

    /// Parses a wire label back into a kind.
    pub fn parse(label: &str) -> Option<ReasonKind> {
        ReasonKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Wire names of the two payload fields (`None` when unused).
    pub fn field_names(&self) -> (Option<&'static str>, Option<&'static str>) {
        match self {
            ReasonKind::None => (None, None),
            ReasonKind::GreedyDual => (Some("h"), Some("l")),
            ReasonKind::LfuDa => (Some("key"), Some("count")),
            ReasonKind::Frequency => (Some("count"), None),
            ReasonKind::Size => (Some("bytes"), None),
            ReasonKind::TinyLfu => (Some("estimate"), Some("threshold")),
            ReasonKind::SecondHit => (Some("seen"), None),
            ReasonKind::MaxSize => (Some("bytes"), Some("ceiling")),
            ReasonKind::ArcT1 | ReasonKind::ArcT2 => (Some("t1_bytes"), Some("target")),
            ReasonKind::S3Small | ReasonKind::S3Main => (Some("freq"), None),
            ReasonKind::BackwardK => (Some("distance"), Some("refs")),
        }
    }
}

/// A compact policy "reason" payload: a kind plus up to two scalars
/// whose meaning (and wire names) depend on the kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reason {
    /// Which mechanism produced this reason.
    pub kind: ReasonKind,
    /// First payload scalar (see [`ReasonKind::field_names`]).
    pub a: f64,
    /// Second payload scalar.
    pub b: f64,
}

impl Reason {
    /// The absent reason.
    pub fn none() -> Reason {
        Reason {
            kind: ReasonKind::None,
            a: 0.0,
            b: 0.0,
        }
    }

    /// GreedyDual-family eviction: victim H-value, prior inflation L.
    pub fn greedy_dual(h: f64, l: f64) -> Reason {
        Reason {
            kind: ReasonKind::GreedyDual,
            a: h,
            b: l,
        }
    }

    /// LFU-DA eviction: victim key (count + age) and raw count.
    pub fn lfu_da(key: f64, count: f64) -> Reason {
        Reason {
            kind: ReasonKind::LfuDa,
            a: key,
            b: count,
        }
    }

    /// Plain LFU eviction: victim access count.
    pub fn frequency(count: f64) -> Reason {
        Reason {
            kind: ReasonKind::Frequency,
            a: count,
            b: 0.0,
        }
    }

    /// SIZE eviction: victim byte size.
    pub fn size(bytes: f64) -> Reason {
        Reason {
            kind: ReasonKind::Size,
            a: bytes,
            b: 0.0,
        }
    }

    /// TinyLFU admission verdict: estimate vs threshold.
    pub fn tinylfu(estimate: f64, threshold: f64) -> Reason {
        Reason {
            kind: ReasonKind::TinyLfu,
            a: estimate,
            b: threshold,
        }
    }

    /// Second-hit admission verdict.
    pub fn second_hit(seen: bool) -> Reason {
        Reason {
            kind: ReasonKind::SecondHit,
            a: if seen { 1.0 } else { 0.0 },
            b: 0.0,
        }
    }

    /// Max-size admission verdict.
    pub fn max_size(bytes: f64, ceiling: f64) -> Reason {
        Reason {
            kind: ReasonKind::MaxSize,
            a: bytes,
            b: ceiling,
        }
    }

    /// ARC eviction from T1.
    pub fn arc_t1(t1_bytes: f64, target: f64) -> Reason {
        Reason {
            kind: ReasonKind::ArcT1,
            a: t1_bytes,
            b: target,
        }
    }

    /// ARC eviction from T2.
    pub fn arc_t2(t1_bytes: f64, target: f64) -> Reason {
        Reason {
            kind: ReasonKind::ArcT2,
            a: t1_bytes,
            b: target,
        }
    }

    /// S3-FIFO eviction from the small queue.
    pub fn s3_small(freq: f64) -> Reason {
        Reason {
            kind: ReasonKind::S3Small,
            a: freq,
            b: 0.0,
        }
    }

    /// S3-FIFO eviction from the main queue.
    pub fn s3_main(freq: f64) -> Reason {
        Reason {
            kind: ReasonKind::S3Main,
            a: freq,
            b: 0.0,
        }
    }

    /// LRU-2 eviction: touches since the victim's second-latest (or
    /// only) reference, and the references counted.
    pub fn backward_k(distance: f64, refs: f64) -> Reason {
        Reason {
            kind: ReasonKind::BackwardK,
            a: distance,
            b: refs,
        }
    }

    /// Whether any reason is attached.
    pub fn is_some(&self) -> bool {
        self.kind != ReasonKind::None
    }

    /// Renders the JSON object (`{"kind": .., "h": .., "l": ..}`), or
    /// `None` for the absent reason.
    pub fn to_json(&self) -> Option<String> {
        if !self.is_some() {
            return None;
        }
        let mut out = format!("{{\"kind\": \"{}\"", self.kind.label());
        let (fa, fb) = self.kind.field_names();
        if let Some(name) = fa {
            out.push_str(&format!(", \"{name}\": {}", json_f64(self.a)));
        }
        if let Some(name) = fb {
            out.push_str(&format!(", \"{name}\": {}", json_f64(self.b)));
        }
        out.push('}');
        Some(out)
    }

    /// Parses the object rendered by [`Reason::to_json`].
    pub fn from_value(value: &Value) -> Option<Reason> {
        let kind = ReasonKind::parse(value.get("kind")?.as_str()?)?;
        let (fa, fb) = kind.field_names();
        let field = |name: Option<&str>| -> Option<f64> {
            match name {
                Some(name) => value.get(name).and_then(Value::as_f64),
                None => Some(0.0),
            }
        };
        Some(Reason {
            kind,
            a: field(fa)?,
            b: field(fb)?,
        })
    }
}

impl Default for Reason {
    fn default() -> Self {
        Reason::none()
    }
}

/// One cache decision: what happened to which document, and why.
///
/// Types are raw `u64`/`u8` because `webcache-obs` sits below
/// `webcache-core`; the CLI maps `doc_type` back to `DocumentType`
/// labels when rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Global request index at which the decision happened.
    pub index: u64,
    /// Document id (the trace's dense slot or raw id).
    pub doc: u64,
    /// Document type index (`DocumentType::index()`).
    pub doc_type: u8,
    /// Document size in bytes.
    pub size: u64,
    /// What happened.
    pub event: EventKind,
    /// The policy's reasoning, when the mechanism exposes one.
    pub reason: Reason,
}

impl DecisionRecord {
    /// Renders one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"index\": {}, \"doc\": {}, \"type\": {}, \"size\": {}, \"event\": \"{}\"",
            self.index,
            self.doc,
            self.doc_type,
            self.size,
            self.event.label()
        );
        if let Some(reason) = self.reason.to_json() {
            out.push_str(&format!(", \"reason\": {reason}"));
        }
        out.push('}');
        out
    }

    /// Parses a [`Value`] produced by parsing a `to_json` line.
    pub fn from_value(value: &Value) -> Option<DecisionRecord> {
        let num = |key: &str| value.get(key).and_then(Value::as_f64);
        let reason = match value.get("reason") {
            Some(v) => Reason::from_value(v)?,
            None => Reason::none(),
        };
        Some(DecisionRecord {
            index: num("index")? as u64,
            doc: num("doc")? as u64,
            doc_type: num("type")? as u8,
            size: num("size")? as u64,
            event: EventKind::parse(value.get("event")?.as_str()?)?,
            reason,
        })
    }
}

/// Error from [`FlightRecorder::parse_jsonl`]: which line failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecordError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flight record line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseRecordError {}

/// Fixed-capacity wrap-around ring of [`DecisionRecord`]s.
///
/// Pushing the (N+1)-th record overwrites the oldest; iteration and
/// snapshots always run oldest → newest. `total()` counts every record
/// ever pushed, so `total() - len()` is the number overwritten.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    records: Vec<DecisionRecord>,
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            records: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            total: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained (`min(total, capacity)`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Appends a record, overwriting the oldest once full.
    pub fn record(&mut self, record: DecisionRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Iterates retained records oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &DecisionRecord> {
        let (tail, wrapped) = self.records.split_at(self.head);
        wrapped.iter().chain(tail.iter())
    }

    /// Copies the retained records, oldest → newest.
    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.iter().copied().collect()
    }

    /// The newest `n` records, oldest → newest.
    pub fn last(&self, n: usize) -> Vec<DecisionRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.iter().skip(skip).copied().collect()
    }

    /// Retained history for one document, oldest → newest.
    pub fn records_for_doc(&self, doc: u64) -> Vec<DecisionRecord> {
        self.iter().filter(|r| r.doc == doc).copied().collect()
    }

    /// Dumps the retained records as JSONL, oldest → newest.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.iter() {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL dump back into records.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number and message for the first
    /// malformed line.
    pub fn parse_jsonl(input: &str) -> Result<Vec<DecisionRecord>, ParseRecordError> {
        let mut records = Vec::new();
        for (i, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| ParseRecordError {
                line: i + 1,
                message: e.to_string(),
            })?;
            let record = DecisionRecord::from_value(&value).ok_or_else(|| ParseRecordError {
                line: i + 1,
                message: "not a decision record".to_owned(),
            })?;
            records.push(record);
        }
        Ok(records)
    }
}

/// Renders an f64 the way the registry's JSON exporter does: integral
/// values without a fraction, non-finite values as null.
fn json_f64(value: f64) -> String {
    if !value.is_finite() {
        "null".to_owned()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// A [`FlightRecorder`] behind `Arc<Mutex<..>>`, for the serve path
/// where the replay thread records and HTTP handlers snapshot.
#[derive(Debug, Clone)]
pub struct SharedRecorder(Arc<Mutex<FlightRecorder>>);

impl SharedRecorder {
    /// A shared recorder keeping the last `capacity` records.
    pub fn new(capacity: usize) -> SharedRecorder {
        SharedRecorder(Arc::new(Mutex::new(FlightRecorder::new(capacity))))
    }

    /// Appends a record.
    pub fn record(&self, record: DecisionRecord) {
        self.0.lock().expect("flight recorder lock").record(record);
    }

    /// Appends `records` in order under one lock, so a reader sees all
    /// of them or none.
    pub fn record_all(&self, records: &[DecisionRecord]) {
        let mut ring = self.0.lock().expect("flight recorder lock");
        for &record in records {
            ring.record(record);
        }
    }

    /// Copies the retained records, oldest → newest.
    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.0.lock().expect("flight recorder lock").snapshot()
    }

    /// The newest `n` records, oldest → newest.
    pub fn last(&self, n: usize) -> Vec<DecisionRecord> {
        self.0.lock().expect("flight recorder lock").last(n)
    }

    /// Retained history for one document.
    pub fn records_for_doc(&self, doc: u64) -> Vec<DecisionRecord> {
        self.0
            .lock()
            .expect("flight recorder lock")
            .records_for_doc(doc)
    }

    /// Dumps the retained records as JSONL.
    pub fn to_jsonl(&self) -> String {
        self.0.lock().expect("flight recorder lock").to_jsonl()
    }

    /// Records ever pushed.
    pub fn total(&self) -> u64 {
        self.0.lock().expect("flight recorder lock").total()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.0.lock().expect("flight recorder lock").capacity()
    }
}

/// Merges the retained records of several recorders (e.g. one per cache
/// shard) into one stream ordered by global request index. Each shard's
/// stream is already index-sorted, so a stable sort costs O(n log n)
/// over nearly-sorted input.
pub fn merge_sorted(recorders: &[SharedRecorder]) -> Vec<DecisionRecord> {
    let mut merged: Vec<DecisionRecord> = recorders
        .iter()
        .flat_map(SharedRecorder::snapshot)
        .collect();
    merged.sort_by_key(|r| r.index);
    merged
}

/// FIFO channel carrying [`Reason`]s from the policy/admission layer to
/// the observer that stamps them onto events. Push and pop orders match
/// because the cache emits reasons in the same order the simulator
/// delivers the corresponding observer events.
///
/// The queue length is mirrored in an atomic, updated under the lock, so
/// [`ReasonChannel::pop`], [`ReasonChannel::len`] and
/// [`ReasonChannel::is_empty`] return without locking while the channel
/// is empty — the common case for policies that push no eviction reasons.
#[derive(Debug, Clone, Default)]
pub struct ReasonChannel(Arc<ReasonQueue>);

#[derive(Debug, Default)]
struct ReasonQueue {
    queue: Mutex<VecDeque<Reason>>,
    /// `queue.len()`, stored (Release) after every change while the lock
    /// is held and loaded (Acquire) by the lock-free readers. Only the
    /// length is read without the lock: a pop that loads a nonzero
    /// length takes the lock before touching the queue, and one that
    /// loads 0 behaves as if it ran before the push it missed.
    len: AtomicUsize,
}

impl ReasonChannel {
    /// An empty channel.
    pub fn new() -> ReasonChannel {
        ReasonChannel::default()
    }

    /// Runs `f` on the locked queue and republishes its length.
    fn with_queue<T>(&self, f: impl FnOnce(&mut VecDeque<Reason>) -> T) -> T {
        let mut queue = self.0.queue.lock().expect("reason channel lock");
        let out = f(&mut queue);
        self.0.len.store(queue.len(), Ordering::Release);
        out
    }

    /// Enqueues a reason.
    pub fn push(&self, reason: Reason) {
        self.with_queue(|queue| queue.push_back(reason));
    }

    /// Dequeues the oldest reason, if any.
    pub fn pop(&self) -> Option<Reason> {
        if self.is_empty() {
            return None;
        }
        self.with_queue(VecDeque::pop_front)
    }

    /// Drops any queued reasons.
    pub fn clear(&self) {
        self.with_queue(VecDeque::clear);
    }

    /// Queued reason count.
    pub fn len(&self) -> usize {
        self.0.len.load(Ordering::Acquire)
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`MetricsSink`] that forwards policy eviction reasons into a
/// [`ReasonChannel`] (and ignores the heap-op/inflation callbacks —
/// those stay the [`Registry`](crate::Registry) probe's job).
#[derive(Debug, Clone, Default)]
pub struct FlightSink {
    evictions: ReasonChannel,
}

impl FlightSink {
    /// A sink pushing eviction reasons into `evictions`.
    pub fn new(evictions: ReasonChannel) -> FlightSink {
        FlightSink { evictions }
    }
}

impl MetricsSink for FlightSink {
    #[inline]
    fn evict_reason(&mut self, reason: Reason) {
        self.evictions.push(reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: u64, event: EventKind, reason: Reason) -> DecisionRecord {
        DecisionRecord {
            index,
            doc: index % 3,
            doc_type: (index % 5) as u8,
            size: 100 + index,
            event,
            reason,
        }
    }

    #[test]
    fn ring_keeps_last_capacity_records_in_order() {
        let mut ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(rec(i, EventKind::Hit, Reason::none()));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total(), 10);
        let kept: Vec<u64> = ring.iter().map(|r| r.index).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(
            ring.last(2).iter().map(|r| r.index).collect::<Vec<_>>(),
            [8, 9]
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = FlightRecorder::new(0);
        ring.record(rec(1, EventKind::Miss, Reason::none()));
        ring.record(rec(2, EventKind::Miss, Reason::none()));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.snapshot()[0].index, 2);
    }

    #[test]
    fn jsonl_round_trips_every_event_and_reason_kind() {
        let reasons = [
            Reason::none(),
            Reason::greedy_dual(1.75, 0.25),
            Reason::lfu_da(12.5, 3.0),
            Reason::frequency(7.0),
            Reason::size(4096.0),
            Reason::tinylfu(5.0, 2.0),
            Reason::second_hit(true),
            Reason::max_size(9000.0, 8192.0),
            Reason::arc_t1(65536.0, 32768.0),
            Reason::arc_t2(65536.0, 32768.0),
            Reason::s3_small(0.0),
            Reason::s3_main(1.0),
            Reason::backward_k(37.0, 2.0),
        ];
        let mut ring = FlightRecorder::new(100);
        let mut i = 0;
        for event in EventKind::ALL {
            for reason in reasons {
                ring.record(rec(i, event, reason));
                i += 1;
            }
        }
        let parsed = FlightRecorder::parse_jsonl(&ring.to_jsonl()).unwrap();
        assert_eq!(parsed, ring.snapshot());
    }

    #[test]
    fn parse_jsonl_reports_the_offending_line() {
        let input =
            "{\"index\": 1, \"doc\": 2, \"type\": 0, \"size\": 5, \"event\": \"hit\"}\nnot json\n";
        let err = FlightRecorder::parse_jsonl(input).unwrap_err();
        assert_eq!(err.line, 2);
        let input2 = "{\"index\": 1, \"doc\": 2, \"type\": 0, \"size\": 5, \"event\": \"nope\"}\n";
        let err2 = FlightRecorder::parse_jsonl(input2).unwrap_err();
        assert_eq!(err2.line, 1);
        assert!(err2.message.contains("not a decision record"), "{err2}");
    }

    #[test]
    fn records_for_doc_filters_history() {
        let mut ring = FlightRecorder::new(16);
        for i in 0..9 {
            ring.record(rec(i, EventKind::Hit, Reason::none()));
        }
        let doc0: Vec<u64> = ring.records_for_doc(0).iter().map(|r| r.index).collect();
        assert_eq!(doc0, vec![0, 3, 6]);
    }

    #[test]
    fn reason_channel_is_fifo() {
        let ch = ReasonChannel::new();
        assert_eq!((ch.len(), ch.is_empty()), (0, true));
        assert!(ch.pop().is_none());
        ch.push(Reason::frequency(1.0));
        ch.push(Reason::frequency(2.0));
        assert_eq!((ch.len(), ch.is_empty()), (2, false));
        assert_eq!(ch.pop().unwrap().a, 1.0);
        assert_eq!((ch.len(), ch.is_empty()), (1, false));
        assert_eq!(ch.pop().unwrap().a, 2.0);
        assert_eq!((ch.len(), ch.is_empty()), (0, true));
        assert!(ch.pop().is_none());

        // A clone shares the queue and its length; clear empties both.
        let other = ch.clone();
        other.push(Reason::frequency(3.0));
        assert_eq!((ch.len(), ch.is_empty()), (1, false));
        ch.push(Reason::frequency(4.0));
        other.clear();
        assert_eq!((ch.len(), ch.is_empty()), (0, true));
        assert!(ch.pop().is_none());
        ch.push(Reason::frequency(5.0));
        assert_eq!(other.pop().unwrap().a, 5.0);
        assert!(other.is_empty());
    }

    #[test]
    fn record_all_appends_in_order_under_one_lock() {
        let shared = SharedRecorder::new(3);
        let batch: Vec<DecisionRecord> = (0..4)
            .map(|i| rec(i, EventKind::Insert, Reason::none()))
            .collect();
        shared.record_all(&batch[..1]);
        shared.record_all(&[]);
        shared.record_all(&batch[1..]);
        assert_eq!(shared.total(), 4);
        assert_eq!(shared.snapshot(), batch[1..].to_vec());
    }

    #[test]
    fn flight_sink_forwards_evict_reasons() {
        let ch = ReasonChannel::new();
        let mut sink = FlightSink::new(ch.clone());
        sink.evict_reason(Reason::greedy_dual(2.0, 1.0));
        let got = ch.pop().unwrap();
        assert_eq!(got.kind, ReasonKind::GreedyDual);
        assert_eq!((got.a, got.b), (2.0, 1.0));
    }

    #[test]
    fn shared_recorder_is_cloneable_and_consistent() {
        let shared = SharedRecorder::new(3);
        let writer = shared.clone();
        for i in 0..5 {
            writer.record(rec(i, EventKind::Evict, Reason::size(10.0)));
        }
        assert_eq!(shared.total(), 5);
        assert_eq!(
            shared
                .snapshot()
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(shared.records_for_doc(2).len(), 1);
    }
}
