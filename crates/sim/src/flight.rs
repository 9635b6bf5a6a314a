//! Bridging simulator events into the flight recorder.
//!
//! [`FlightObserver`] is an [`Observer`] that turns every replay event
//! into a [`DecisionRecord`] in a [`SharedRecorder`] ring. Reason
//! payloads arrive over two FIFO [`ReasonChannel`]s:
//!
//! * **evictions** — filled by an instrumented policy's
//!   [`FlightSink`](webcache_obs::FlightSink) (one reason per `evict()`
//!   victim, in victim order), drained one per
//!   [`Observer::on_evict`];
//! * **admissions** — filled by the cache at each Inserted /
//!   RejectedByAdmission outcome (see `Cache::set_admit_reasons`),
//!   drained one per [`Observer::on_insert`] /
//!   [`Observer::on_admission_reject`].
//!
//! Both pairings are exact because the simulator documents its event
//! order per request: `on_access`, then on a miss exactly one of
//! `on_insert` / `on_admission_reject`, then one `on_evict` per victim
//! in eviction order — and TooLarge outcomes emit neither an event nor
//! a reason. Un-instrumented policies (LRU, FIFO, SLRU, LRU-2, or any
//! policy built without a sink) simply leave the channel empty and the
//! records carry the none-kind reason.

use webcache_core::Eviction;
use webcache_obs::flight::{DecisionRecord, EventKind, Reason, ReasonChannel, SharedRecorder};

use crate::observe::{AccessEvent, AccessKind, Observer};

/// Observer recording every replay event into a shared flight ring.
/// See the module-level documentation above.
#[derive(Debug, Clone)]
pub struct FlightObserver {
    recorder: SharedRecorder,
    evictions: Option<ReasonChannel>,
    admissions: Option<ReasonChannel>,
}

impl FlightObserver {
    /// An observer recording plain events, without reason channels:
    /// every record carries the none-kind reason. `webcache serve`
    /// instead gives each shard [`FlightObserver::with_reasons`] over
    /// that shard's own channels.
    pub fn new(recorder: SharedRecorder) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: None,
            admissions: None,
        }
    }

    /// An observer that additionally stamps eviction records with
    /// reasons popped from `evictions` and insert/reject records with
    /// reasons popped from `admissions`.
    pub fn with_reasons(
        recorder: SharedRecorder,
        evictions: ReasonChannel,
        admissions: ReasonChannel,
    ) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: Some(evictions),
            admissions: Some(admissions),
        }
    }

    /// The ring this observer records into.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    fn pop(channel: &Option<ReasonChannel>) -> Reason {
        channel
            .as_ref()
            .and_then(ReasonChannel::pop)
            .unwrap_or_default()
    }

    fn record(&self, event: AccessEvent, kind: EventKind, reason: Reason) {
        self.recorder.record(DecisionRecord {
            index: event.index,
            doc: event.doc.as_u64(),
            doc_type: event.doc_type.index() as u8,
            size: event.size.as_u64(),
            event: kind,
            reason,
        });
    }
}

impl Observer for FlightObserver {
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let kind = match kind {
            AccessKind::Hit => EventKind::Hit,
            AccessKind::Miss => EventKind::Miss,
            AccessKind::ModificationMiss => EventKind::ModificationMiss,
        };
        self.record(event, kind, Reason::none());
    }

    fn on_insert(&mut self, event: AccessEvent) {
        let reason = Self::pop(&self.admissions);
        self.record(event, EventKind::Insert, reason);
    }

    fn on_admission_reject(&mut self, event: AccessEvent) {
        let reason = Self::pop(&self.admissions);
        self.record(event, EventKind::AdmissionReject, reason);
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        let reason = Self::pop(&self.evictions);
        self.recorder.record(DecisionRecord {
            index: at.index,
            doc: evicted.doc.as_u64(),
            doc_type: evicted.doc_type.index() as u8,
            size: evicted.size.as_u64(),
            event: EventKind::Evict,
            reason,
        });
    }

    fn on_run_end(&mut self) {
        // Defensive: a policy that emitted reasons nobody paired (e.g.
        // evictions driven outside the replay loop) must not poison the
        // next pass's pairing.
        if let Some(ch) = &self.evictions {
            ch.clear();
        }
        if let Some(ch) = &self.admissions {
            ch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use webcache_core::PolicyKind;
    use webcache_obs::flight::{FlightSink, ReasonKind};
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

    use crate::{SimulationConfig, Simulator};

    fn trace(requests: &[(u64, u64)]) -> Trace {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(doc, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::Html,
                    ByteSize::new(size),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build()
    }

    #[test]
    fn records_full_event_stream_with_greedy_dual_reasons() {
        // Capacity one 80-byte doc; the third request evicts the first.
        let t = trace(&[(1, 80), (1, 80), (2, 80)]);
        let recorder = SharedRecorder::new(64);
        let evict_ch = ReasonChannel::new();
        let admit_ch = ReasonChannel::new();
        let observer =
            FlightObserver::with_reasons(recorder.clone(), evict_ch.clone(), admit_ch.clone());

        let policy = PolicyKind::Gds(webcache_core::CostModel::Constant)
            .build_instrumented(FlightSink::new(evict_ch));
        let mut sim = Simulator::new(policy, config(100));
        sim.set_admit_reasons(admit_ch);
        let mut obs = observer;
        sim.run_observed(&t, &mut obs);

        let records = recorder.snapshot();
        let kinds: Vec<EventKind> = records.iter().map(|r| r.event).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Hit,
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Evict,
            ]
        );
        let evict = records.last().unwrap();
        assert_eq!(evict.reason.kind, ReasonKind::GreedyDual);
        assert!(evict.reason.a > 0.0, "victim H must be positive");
        // Channels fully drained: pairing was exact.
        assert!(obs.recorder().total() == 6);
    }

    #[test]
    fn uninstrumented_policy_records_none_reasons() {
        let t = trace(&[(1, 80), (2, 80), (3, 80)]);
        let recorder = SharedRecorder::new(64);
        let mut obs = FlightObserver::new(recorder.clone());
        let sim = Simulator::new(PolicyKind::Lru.build(), config(100));
        sim.run_observed(&t, &mut obs);
        assert!(recorder
            .snapshot()
            .iter()
            .all(|r| r.reason.kind == ReasonKind::None));
        assert!(recorder
            .snapshot()
            .iter()
            .any(|r| r.event == EventKind::Evict));
    }
}
