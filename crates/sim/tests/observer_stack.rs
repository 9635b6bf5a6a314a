//! Pins what `webcache serve`'s observer chain exports, bit for bit.
//!
//! Seeded 1/1024-scale DFN epochs replay pass after pass through the
//! chain `serve` builds for each shard: the flight observer with reason
//! channels, then (on a one-shard run only, as in `serve`) the regret
//! tracker, the profiling counters, the anomaly detectors and the event
//! log, then the latency observer and the SLO tracker with both
//! objectives set. After each pass the loop does `serve`'s pass-boundary
//! bookkeeping (a `pass complete` record, the latency rotation, the SLO
//! evaluation and its breach records). Three replay modes run the chain: the
//! serial simulator (the route perfbench rebuilds), the one-shard
//! concurrent replay `serve` runs by default, and the concurrent replay
//! with 4 shards and 2 clients.
//!
//! After every pass the registry's Prometheus text and the flight rings'
//! merged JSONL are folded into a 64-bit FNV-1a hash, and so is the
//! regret tracker's last gap after every request it sees (which pins
//! each recomputed gap and the request it was computed at); the event
//! log follows at the end, each record without its `ts_ms` field. The hash is compared with a recorded
//! constant, so any change to a value a reader of the chain can see
//! (a counter, a quantile gauge, a burn rate, a flight record, a reason,
//! a log record) fails this test. Observer optimisations must leave it
//! as recorded.

use webcache_core::{Eviction, PolicySpec};
use webcache_obs::{merge_sorted, FlightSink, Level, Logger, Registry, SharedRecorder};
use webcache_sim::{
    AccessEvent, AccessKind, AnomalyConfig, AnomalyObserver, ConcurrentSimulator, FlightObserver,
    LatencyModel, LatencyObserver, LogObserver, Observer, ProfileObserver, RegretConfig,
    RegretTracker, RunMeta, ShardReasons, ShardedTrace, SimulationConfig, Simulator, SloConfig,
    SloTracker,
};
use webcache_trace::{ByteSize, DenseTrace};
use webcache_workload::{WorkloadProfile, WorkloadStream};

/// A 64-bit FNV-1a hash state (written out: `DefaultHasher`'s algorithm
/// may change between releases).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const PASSES: usize = 5;
const SEED: u64 = 1;

/// The regret tracker, folding its last gap into a hash after every
/// access it forwards.
struct GapTap {
    tracker: RegretTracker,
    gaps: Fnv,
}

impl Observer for GapTap {
    fn on_run_start(&mut self, meta: RunMeta) {
        self.tracker.on_run_start(meta);
    }

    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        self.tracker.on_access(event, kind);
        let gap = self.tracker.last_gap().map_or(u64::MAX, f64::to_bits);
        self.gaps.bytes(&gap.to_le_bytes());
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        self.tracker.on_evict(at, evicted);
    }

    fn on_run_end(&mut self) {
        self.tracker.on_run_end();
    }
}

/// `serve`'s single-stream stage.
type Single = (GapTap, (ProfileObserver, (AnomalyObserver, LogObserver)));
/// One shard's chain, in `serve`'s order.
type Chain = (
    FlightObserver,
    (Option<Single>, (LatencyObserver, SloTracker)),
);

#[derive(Clone, Copy, Debug)]
enum Mode {
    Serial,
    Sharded { shards: usize, clients: usize },
}

/// Both objectives set, at levels the seeded passes burn through, so
/// the breach counters and breach records carry data.
fn slo_config() -> SloConfig {
    SloConfig {
        hit_rate: Some(0.7),
        p99_latency_us: Some(250_000),
        window_passes: 3,
        burn_threshold: 2.0,
    }
}

/// Short, sensitive detection windows, so the detectors fire and log
/// within a few passes.
fn anomaly_config() -> AnomalyConfig {
    AnomalyConfig {
        window: 256,
        hit_rate_drop: 0.1,
        storm_factor: 1.5,
        min_storm_evictions: 4,
        reject_factor: 1.5,
        min_reject_spike: 4,
        cooldown_windows: 1,
        ..AnomalyConfig::default()
    }
}

fn epochs() -> (Vec<DenseTrace>, SimulationConfig) {
    let mut stream = WorkloadStream::new(WorkloadProfile::dfn().scaled(1.0 / 1024.0), SEED);
    let per_pass = stream.epoch_len();
    let epochs: Vec<DenseTrace> = (0..PASSES)
        .map(|_| DenseTrace::build(&stream.take_trace(per_pass)))
        .collect();
    let capacity = ByteSize::new(epochs[0].overall_size().as_u64() / 20);
    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(0.1)
        .build();
    (epochs, config)
}

/// Runs `PASSES` passes of `spec` through `serve`'s chain and returns
/// the hash of everything the chain exported.
fn replay(spec: &str, mode: Mode) -> u64 {
    let spec: PolicySpec = spec.parse().expect("spec parses");
    let (epochs, config) = epochs();
    let shards = match mode {
        Mode::Serial => 1,
        Mode::Sharded { shards, .. } => shards,
    };
    let registry = Registry::new();
    let (logger, capture) = Logger::capture(Level::Info);
    let model = LatencyModel::campus_2001();
    let latency = LatencyObserver::register(model, 4, &registry);
    let slo = SloTracker::register(slo_config(), model, &registry);
    let recorders: Vec<SharedRecorder> = (0..shards).map(|_| SharedRecorder::new(512)).collect();
    let reasons: Vec<ShardReasons> = (0..shards).map(|_| ShardReasons::default()).collect();
    let profile = ProfileObserver::register(&registry, &spec.label());
    let anomaly = AnomalyObserver::register(&registry, logger.clone(), anomaly_config());
    let log = LogObserver::new(logger.clone());
    // Smaller than `serve`'s default windows, so each pass recomputes
    // the gap several times, over windows whose slots reach past the
    // window length.
    let regret = GapTap {
        tracker: RegretTracker::with_registry(
            RegretConfig {
                window: 512,
                gap_window: 1024,
                gap_every: 500,
            },
            &registry,
        ),
        gaps: Fnv::new(),
    };
    let mut single = (shards == 1).then_some((regret, (profile, (anomaly, log))));
    let mut chains: Vec<Chain> = recorders
        .iter()
        .zip(&reasons)
        .map(|(recorder, reasons)| {
            (
                FlightObserver::with_reasons(
                    recorder.clone(),
                    reasons.evictions.clone(),
                    reasons.admissions.clone(),
                ),
                (single.take(), (latency.clone(), slo.clone())),
            )
        })
        .collect();
    let concurrent = ConcurrentSimulator::new(spec, config).with_reasons(reasons.clone());

    let mut hash = Fnv::new();
    for (pass, dense) in epochs.iter().enumerate() {
        let (requests, hit_rate) = match mode {
            Mode::Serial => {
                let mut sim = Simulator::from_spec_instrumented(
                    spec,
                    config,
                    FlightSink::new(reasons[0].evictions.clone()),
                );
                sim.set_admit_reasons(reasons[0].admissions.clone());
                let report = sim.run_dense_observed(dense, &mut chains[0]);
                (dense.len() as u64, report.overall().hit_rate())
            }
            Mode::Sharded { shards, clients } => {
                let sharded = ShardedTrace::build(dense, shards).expect("valid shard count");
                let report = concurrent.run_sharded_controlled(
                    dense,
                    &sharded,
                    clients,
                    None,
                    None,
                    &mut chains,
                );
                assert!(report.completed);
                (report.requests, report.overall().hit_rate())
            }
        };
        logger.info(
            "serve",
            "pass complete",
            &[
                ("pass", (pass as u64).into()),
                ("requests", requests.into()),
                ("hit_rate", hit_rate.into()),
            ],
        );
        latency.rotate_and_publish();
        for breach in slo.evaluate() {
            logger.warn(
                "serve",
                "slo breach",
                &[("slo", breach.slo.into()), ("detail", breach.detail.into())],
            );
        }

        hash.bytes(registry.prometheus_text().as_bytes());
        for record in merge_sorted(&recorders) {
            hash.bytes(record.to_json().as_bytes());
        }
        if let Some((tap, _)) = &chains[0].1 .0 {
            hash.bytes(&tap.gaps.0.to_le_bytes());
        }
    }
    drop(chains);
    for line in capture.lines() {
        let (_, rest) = line
            .split_once(',')
            .expect("a record has fields past ts_ms");
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        hash.bytes(rest.as_bytes());
    }
    hash.0
}

fn check(spec: &str, mode: Mode, want: u64) {
    let got = replay(spec, mode);
    assert_eq!(
        got, want,
        "{spec} via {mode:?}: observer outputs hash to {got:#018x}, recorded {want:#018x}"
    );
}

/// Serial and one-shard replays feed the chain the same events, so they
/// share a hash.
const LRU_ONE_STREAM: u64 = 0x4b54_0959_ab0a_ecf7;
const REASONED_ONE_STREAM: u64 = 0x3c77_5348_922c_7129;
const LRU_FOUR_SHARDS: u64 = 0x7d8b_1913_fe71_5334;
const REASONED_FOUR_SHARDS: u64 = 0xa664_23f4_a076_6126;

/// Serve's default policy: evictions carry no reason.
const LRU: &str = "lru";
/// Reasons on both channels: GD*(P)'s eviction reasons and the
/// second-hit filter's admission verdicts.
const REASONED: &str = "2hit:16+gd*(p)";
const ONE_SHARD: Mode = Mode::Sharded {
    shards: 1,
    clients: 1,
};
const FOUR_SHARDS: Mode = Mode::Sharded {
    shards: 4,
    clients: 2,
};

#[test]
fn serial_lru_chain_is_pinned() {
    check(LRU, Mode::Serial, LRU_ONE_STREAM);
}

#[test]
fn serial_reasoned_chain_is_pinned() {
    check(REASONED, Mode::Serial, REASONED_ONE_STREAM);
}

#[test]
fn one_shard_lru_chain_is_pinned() {
    check(LRU, ONE_SHARD, LRU_ONE_STREAM);
}

#[test]
fn one_shard_reasoned_chain_is_pinned() {
    check(REASONED, ONE_SHARD, REASONED_ONE_STREAM);
}

#[test]
fn four_shards_two_clients_lru_chain_is_pinned() {
    check(LRU, FOUR_SHARDS, LRU_FOUR_SHARDS);
}

#[test]
fn four_shards_two_clients_reasoned_chain_is_pinned() {
    check(REASONED, FOUR_SHARDS, REASONED_FOUR_SHARDS);
}
