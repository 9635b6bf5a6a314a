//! `webcache serve` — the live observability daemon.
//!
//! Replays pass after pass on a background thread while the calling
//! thread answers HTTP requests (each accepted as soon as it arrives;
//! see [`HttpServer`]). Every pass is one
//! [`ConcurrentSimulator::run_sharded_controlled`] call over a cold
//! cache, and its bookkeeping records the daemon's progress in the
//! registry: `/healthz` and `/dash` read the same counters and gauges
//! that `/metrics` exports. Every endpoint lives in one routing table
//! ([`route_paths`] lists them):
//!
//! * `GET /metrics` — Prometheus text exposition of the live registry
//!   (simulator counters, anomaly totals, regret gauges, serve-loop
//!   gauges);
//! * `GET /healthz` — liveness plus replay progress as JSON;
//! * `GET /snapshot` — the full registry snapshot as JSON;
//! * `GET /debug/flight` — the flight recorder's retained decision
//!   records (merged across shards, ordered by request index) as JSON;
//! * `GET /debug/doc?id=N` — the retained decision history of one
//!   document as JSON;
//! * `GET /query?metric=NAME&last=N` — the trailing window of any
//!   registered metric from the in-process snapshot ring as JSON;
//! * `GET /dash` — a self-contained, self-refreshing HTML dashboard
//!   with inline-SVG sparklines rendered from the snapshot ring.
//!
//! Every pass boundary also drives the tail-latency machinery: the
//! [`LatencyObserver`] rotates its windowed percentile histograms and
//! republishes per-document-type `p50/p90/p99/p999` gauges, the
//! [`SloTracker`] folds the pass into its burn-rate windows (a breach
//! entering both the short and long window fires once and, with
//! `--bundle-dir`, writes a post-mortem bundle through the same writer
//! as the anomaly trigger), per-shard lock contention gauges refresh
//! from the [`ShardLockProbe`]s, and the registry is sampled into the
//! [`SnapshotRing`] that backs `/query` and `/dash`.
//!
//! The replay is fed either by one fixed trace file replayed pass after
//! pass, or by the endless [`WorkloadStream`] generator (one epoch per
//! pass). In generator mode a producer thread generates and interns
//! each epoch in order and hands it to the replay thread over a
//! rendezvous channel, so epoch k+1 is built while pass k replays and a
//! pass costs the longer of the two stages rather than their sum; the
//! daemon holds one extra epoch for it. A `--trace` daemon starts no
//! producer. There is one pass loop: without `--shards`, every pass is
//! the one-shard, one-client replay, run on the replay thread itself;
//! `--shards N --clients M` runs the same loop, bookkeeping and pacer.
//! The shutdown flag and the `--rate` pacer are checked every 128
//! requests of a shard. Each shard has one observer chain: its
//! flight recorder (stamped with reasons from that shard's policy and
//! admission filter), the latency observer and the SLO tracker, plus —
//! on a one-shard daemon only, since they read one ordered event stream
//! — the regret tracker, the profiling counters, the anomaly detectors
//! and the structured event log. Observers persist across passes, so
//! EWMA baselines, rings and totals accumulate for the daemon's
//! lifetime. With `--bundle-dir` set, an anomaly that logs a warning
//! also snapshots the flight rings and the registry into a post-mortem
//! bundle (see [`crate::forensics`]), rate limited by the anomaly
//! cooldown and capped by `--max-bundles`.
//!
//! Shutdown is cooperative: SIGINT (or anything else raising the shared
//! flag) stops the HTTP accept loop within one poll interval and the
//! replay within 128 requests of a shard (the interrupted pass is
//! discarded). The replay thread then drops its end of the epoch
//! channel, which stops the producer after at most the epoch it is
//! building, and [`serve_with`] joins every thread and returns a
//! summary.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use webcache_core::PolicySpec;
use webcache_obs::{
    merge_sorted, Counter, Gauge, HttpRequest, HttpResponse, HttpServer, Level, Logger, Registry,
    SharedRecorder, SnapshotRing,
};
use webcache_sim::latency_obs::DEFAULT_LATENCY_WINDOWS;
use webcache_sim::{
    AnomalyConfig, AnomalyObserver, AnomalyTrigger, ConcurrentSimulator, FlightObserver,
    LatencyModel, LatencyObserver, LogObserver, ProfileObserver, RegretConfig, RegretTracker,
    ShardLockProbe, ShardReasons, ShardedTrace, SimulationConfig, SloConfig, SloTracker,
};
use webcache_trace::{DenseTrace, Trace};
use webcache_workload::{WorkloadProfile, WorkloadStream};

use crate::args::Args;
use crate::forensics::{self, BundleMeta};
use crate::CliError;

/// Default listen port (loopback only).
pub const DEFAULT_PORT: u16 = 9184;

/// Default flight-recorder ring capacity (decision records retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Default cap on post-mortem bundles written per serve run.
pub const DEFAULT_MAX_BUNDLES: usize = 8;

/// Default snapshot-ring depth backing `/query` and `/dash` (one
/// snapshot per completed pass).
pub const DEFAULT_DASH_HISTORY: usize = 120;

/// Points returned by `/query` when `last` is not given.
pub const DEFAULT_QUERY_LAST: usize = 32;

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Raised by the SIGINT handler; [`sigint_flag`] hands it to callers.
#[cfg(unix)]
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    SIGINT_FLAG.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler (idempotent) and returns the flag it
/// raises. The handler only stores to an atomic — async-signal-safe —
/// and the serve loops poll the flag, so Ctrl-C lands at the next poll
/// interval / pass boundary rather than tearing the process down.
#[cfg(unix)]
pub fn sigint_flag() -> &'static AtomicBool {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
    &SIGINT_FLAG
}

/// What feeds the pass loop.
enum Source {
    /// One trace file, replayed on every pass.
    Fixed(DenseTrace),
    /// The endless workload generator, one epoch per pass, built on a
    /// producer thread (see [`feed`]). The stream is boxed to keep the
    /// two variants comparably sized.
    Stream {
        stream: Box<WorkloadStream>,
        per_pass: usize,
        /// Epoch 0, pre-generated to resolve the cache capacity.
        first: Trace,
    },
}

/// The replay thread's trace source: the fixed trace, or the epochs
/// the producer hands over.
enum Feed {
    Fixed(DenseTrace),
    Epochs {
        epochs: Receiver<DenseTrace>,
        current: Option<DenseTrace>,
    },
}

impl Feed {
    /// The next pass's trace; `None` once the producer has stopped.
    fn next_pass(&mut self) -> Option<&DenseTrace> {
        match self {
            Feed::Fixed(dense) => Some(dense),
            Feed::Epochs { epochs, current } => {
                // Free the replayed epoch before taking the next.
                *current = None;
                *current = epochs.recv().ok();
                current.as_ref()
            }
        }
    }
}

/// Starts `source` on `scope`. A stream source gets a producer thread
/// that generates and interns each epoch in order — epoch 0 first —
/// and hands it over a rendezvous channel, so epoch k+1 is built while
/// pass k replays and at most one finished epoch waits. When the replay
/// thread drops the returned [`Feed`], the producer's next send fails
/// and it exits, after at most one epoch's generation.
fn feed<'scope>(scope: &'scope Scope<'scope, '_>, source: Source) -> Feed {
    let (mut stream, per_pass, first) = match source {
        Source::Fixed(fixed) => return Feed::Fixed(fixed),
        Source::Stream {
            stream,
            per_pass,
            first,
        } => (stream, per_pass, first),
    };
    let (sender, epochs) = sync_channel(0);
    scope.spawn(move || {
        let mut trace = first;
        while !trace.is_empty() {
            let dense = DenseTrace::build(&trace);
            drop(trace);
            if sender.send(dense).is_err() {
                return;
            }
            trace = stream.take_trace(per_pass);
        }
    });
    Feed::Epochs {
        epochs,
        current: None,
    }
}

/// Everything `serve` needs, resolved from the command line. Built by
/// [`ServeOptions::from_args`] so the end-to-end tests exercise the same
/// parsing as the binary.
pub struct ServeOptions {
    source: Source,
    spec: PolicySpec,
    config: SimulationConfig,
    rate: Option<f64>,
    max_passes: Option<u64>,
    port: u16,
    logger: Logger,
    anomaly: AnomalyConfig,
    shards: usize,
    clients: usize,
    flight_capacity: usize,
    bundle_dir: Option<PathBuf>,
    max_bundles: usize,
    slo: SloConfig,
    dash_history: usize,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("spec", &self.spec)
            .field("port", &self.port)
            .field("rate", &self.rate)
            .field("max_passes", &self.max_passes)
            .field("shards", &self.shards)
            .field("clients", &self.clients)
            .field("flight_capacity", &self.flight_capacity)
            .field("bundle_dir", &self.bundle_dir)
            .field("slo", &self.slo)
            .field("dash_history", &self.dash_history)
            .finish_non_exhaustive()
    }
}

/// The switches `serve` reads.
pub(crate) const SWITCHES: &str = "quick";

/// The value flags `serve` reads.
pub(crate) const VALUES: &str = "trace workload policy capacity warmup scale seed rate passes \
     port log-level log-file anomaly-window shards clients flight-capacity bundle-dir \
     max-bundles slo-hit-rate slo-p99-ms slo-window slo-burn dash-history";

impl ServeOptions {
    /// Resolves options from parsed arguments. See the usage text for
    /// the flag reference.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on a flag serve does not read and on
    /// contradictory or malformed flags, [`CliError::Input`] on an empty
    /// `--trace`, I/O errors from reading `--trace` or opening
    /// `--log-file`.
    pub fn from_args(args: &Args) -> Result<ServeOptions, CliError> {
        args.check_declared(SWITCHES, VALUES)?;
        let quick = args.switch("quick");
        let level = match args.get("log-level") {
            None => Level::Info,
            Some(raw) => Level::parse(raw)
                .ok_or_else(|| usage(format!("unknown log level `{raw}` (trace..error)")))?,
        };
        let logger = match args.get("log-file") {
            Some(path) => Logger::to_file(std::path::Path::new(path), level)?,
            None => Logger::stderr(level),
        };

        // The replay source: a trace file, or the endless generator.
        let (source, reference_trace_bytes) = match (args.get("trace"), args.get("workload")) {
            (Some(path), None) => {
                let dense = crate::commands::load_dense(path)?;
                if dense.is_empty() {
                    return Err(CliError::Input(format!("trace `{path}` is empty")));
                }
                let bytes = dense.overall_size();
                (Source::Fixed(dense), bytes)
            }
            (None, Some(name)) => {
                let profile = match name.to_ascii_lowercase().as_str() {
                    "dfn" => WorkloadProfile::dfn(),
                    "rtp" => WorkloadProfile::rtp(),
                    other => return Err(usage(format!("unknown workload `{other}` (dfn|rtp)"))),
                };
                let denom =
                    crate::commands::scale_denominator(args, if quick { 4096.0 } else { 256.0 })?;
                let seed: u64 = args.get_parsed("seed")?.unwrap_or(1);
                let mut stream = WorkloadStream::new(profile.scaled(1.0 / denom), seed);
                let per_pass = stream.epoch_len();
                let first = stream.take_trace(per_pass);
                let bytes = first.overall_size();
                (
                    Source::Stream {
                        stream: Box::new(stream),
                        per_pass,
                        first,
                    },
                    bytes,
                )
            }
            _ => {
                return Err(usage(
                    "give exactly one of --trace FILE or --workload dfn|rtp",
                ))
            }
        };

        let policy_name = args.get("policy").unwrap_or("lru");
        let spec: PolicySpec = policy_name
            .parse()
            .map_err(|e: webcache_core::ParseSpecError| usage(e.to_string()))?;
        let (capacity, warmup) = crate::commands::capacity_and_warmup(args, reference_trace_bytes)?;
        let rate: Option<f64> = args.get_parsed("rate")?;
        // NaN slips through a plain `<= 0.0` check and would blow up the
        // pacer's Duration math — demand a finite positive rate.
        if rate.is_some_and(|r| !r.is_finite() || r <= 0.0) {
            return Err(usage("--rate expects a finite requests/second > 0"));
        }
        let shards: usize = args.get_parsed("shards")?.unwrap_or(1);
        webcache_sim::validate_shard_count(shards).map_err(|e| usage(format!("--shards: {e}")))?;
        let clients: usize = args.get_parsed("clients")?.unwrap_or(1);
        if clients == 0 {
            return Err(usage("--clients expects a thread count ≥ 1"));
        }
        let max_passes: Option<u64> = args.get_parsed("passes")?;
        let port: u16 = args.get_parsed("port")?.unwrap_or(DEFAULT_PORT);
        let mut anomaly = AnomalyConfig::default();
        if let Some(window) = args.get_parsed::<u64>("anomaly-window")? {
            if window == 0 {
                return Err(usage("--anomaly-window expects a positive request count"));
            }
            anomaly.window = window;
        }
        let flight_capacity: usize = args
            .get_parsed("flight-capacity")?
            .unwrap_or(DEFAULT_FLIGHT_CAPACITY);
        if flight_capacity == 0 {
            return Err(usage("--flight-capacity expects a positive record count"));
        }
        let bundle_dir: Option<PathBuf> = args.get("bundle-dir").map(PathBuf::from);
        let max_bundles: usize = args
            .get_parsed("max-bundles")?
            .unwrap_or(DEFAULT_MAX_BUNDLES);
        if max_bundles == 0 {
            return Err(usage("--max-bundles expects a bundle count ≥ 1"));
        }

        let mut slo = SloConfig::default();
        if let Some(target) = args.get_parsed::<f64>("slo-hit-rate")? {
            if !target.is_finite() || target <= 0.0 || target >= 1.0 {
                return Err(usage("--slo-hit-rate expects a hit-rate floor in (0, 1)"));
            }
            slo.hit_rate = Some(target);
        }
        if let Some(ms) = args.get_parsed::<f64>("slo-p99-ms")? {
            if !ms.is_finite() || ms <= 0.0 {
                return Err(usage(
                    "--slo-p99-ms expects a finite millisecond budget > 0",
                ));
            }
            slo.p99_latency_us = ((ms * 1_000.0) as u64).max(1).into();
        }
        if let Some(window) = args.get_parsed::<usize>("slo-window")? {
            if window == 0 {
                return Err(usage("--slo-window expects a pass count ≥ 1"));
            }
            slo.window_passes = window;
        }
        if let Some(burn) = args.get_parsed::<f64>("slo-burn")? {
            if !burn.is_finite() || burn <= 0.0 {
                return Err(usage("--slo-burn expects a finite burn-rate multiple > 0"));
            }
            slo.burn_threshold = burn;
        }
        let dash_history: usize = args
            .get_parsed("dash-history")?
            .unwrap_or(DEFAULT_DASH_HISTORY);
        if dash_history == 0 {
            return Err(usage("--dash-history expects a snapshot count ≥ 1"));
        }

        Ok(ServeOptions {
            source,
            spec,
            config: SimulationConfig::builder()
                .capacity(capacity)
                .warmup_fraction(warmup)
                .build(),
            rate,
            max_passes,
            port,
            logger,
            anomaly,
            shards,
            clients,
            flight_capacity,
            bundle_dir,
            max_bundles,
            slo,
            dash_history,
        })
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before the epoch), used to timestamp ring snapshots.
fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Writes post-mortem bundles for *any* alerting source — anomaly
/// detectors and SLO burn-rate breaches share one writer behind an
/// `Arc<Mutex<..>>`, so the `--max-bundles` cap and the bundle sequence
/// are global to the serve run rather than per trigger.
struct BundleWriter {
    dir: PathBuf,
    registry: Registry,
    recorders: Vec<SharedRecorder>,
    logger: Logger,
    policy: String,
    capacity_bytes: u64,
    max_bundles: usize,
    seq: u32,
}

impl BundleWriter {
    /// Snapshots the flight rings and the registry into one bundle
    /// directory named after `kind` (rate limiting is the trigger's
    /// job; the writer only enforces the global cap).
    fn write(&mut self, kind: &str, doc_type: &str) {
        if self.seq as usize >= self.max_bundles {
            return;
        }
        let unix_ms = u128::from(unix_ms_now());
        let records = merge_sorted(&self.recorders);
        let jsonl: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let meta = BundleMeta {
            kind,
            doc_type,
            seq: self.seq,
            policy: &self.policy,
            capacity_bytes: self.capacity_bytes,
            unix_ms,
        };
        match forensics::write_bundle(&self.dir, &meta, &jsonl, &self.registry.json_snapshot()) {
            Ok(path) => {
                self.seq += 1;
                self.logger.info(
                    "serve",
                    "post-mortem bundle written",
                    &[
                        ("path", path.display().to_string().into()),
                        ("kind", kind.to_owned().into()),
                        ("records", (records.len() as u64).into()),
                    ],
                );
            }
            Err(e) => self.logger.warn(
                "serve",
                "post-mortem bundle write failed",
                &[("error", e.to_string().into())],
            ),
        }
    }
}

/// Everything a route handler can reach: shared read-only views of the
/// daemon's state.
struct RouteContext<'a> {
    registry: &'a Registry,
    /// The registry's progress series, which the pass loop's bookkeeping
    /// sets: completed passes, requests replayed, whether the loop is
    /// running and the last pass's request rate.
    passes: &'a Counter,
    requests: &'a Counter,
    replaying: &'a Gauge,
    last_pass_req_per_sec: &'a Gauge,
    policy: &'a str,
    started: Instant,
    /// One flight ring per shard (exactly one in serial mode).
    flight: &'a [SharedRecorder],
    /// The mini-TSDB behind `/query` and `/dash`, captured once per
    /// completed pass.
    ring: &'a SnapshotRing,
}

/// One servable endpoint: its path and its handler.
type Route = (
    &'static str,
    fn(&RouteContext<'_>, &HttpRequest) -> HttpResponse,
);

/// The routing table. Adding an endpoint means adding a row here — the
/// dispatcher, the per-path request counters and the 404 coverage test
/// all iterate this table.
const ROUTES: [Route; 7] = [
    ("/metrics", route_metrics),
    ("/healthz", route_healthz),
    ("/snapshot", route_snapshot),
    ("/debug/flight", route_debug_flight),
    ("/debug/doc", route_debug_doc),
    ("/query", route_query),
    ("/dash", route_dash),
];

/// The endpoint paths served, in routing-table order (also the `path`
/// label values of `webcache_http_requests_total`).
pub fn route_paths() -> impl Iterator<Item = &'static str> {
    ROUTES.iter().map(|(path, _)| *path)
}

fn route_metrics(ctx: &RouteContext<'_>, _req: &HttpRequest) -> HttpResponse {
    HttpResponse::text(ctx.registry.prometheus_text())
}

fn route_snapshot(ctx: &RouteContext<'_>, _req: &HttpRequest) -> HttpResponse {
    HttpResponse::json(ctx.registry.json_snapshot())
}

fn route_healthz(ctx: &RouteContext<'_>, _req: &HttpRequest) -> HttpResponse {
    HttpResponse::json(format!(
        "{{\"status\": \"ok\", \"replaying\": {}, \"passes\": {}, \
         \"requests_replayed\": {}, \"last_pass_req_per_sec\": {:.1}, \
         \"uptime_ms\": {}, \"policy\": \"{}\"}}",
        ctx.replaying.get() != 0.0,
        ctx.passes.get(),
        ctx.requests.get(),
        ctx.last_pass_req_per_sec.get(),
        ctx.started.elapsed().as_millis(),
        ctx.policy,
    ))
}

/// Renders decision records as a JSON array body.
fn records_json(records: &[webcache_obs::DecisionRecord]) -> String {
    let rendered: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    rendered.join(", ")
}

fn route_debug_flight(ctx: &RouteContext<'_>, _req: &HttpRequest) -> HttpResponse {
    let records = merge_sorted(ctx.flight);
    let total: u64 = ctx.flight.iter().map(SharedRecorder::total).sum();
    let capacity: usize = ctx.flight.iter().map(SharedRecorder::capacity).sum();
    HttpResponse::json(format!(
        "{{\"total\": {total}, \"capacity\": {capacity}, \"shards\": {}, \"records\": [{}]}}",
        ctx.flight.len(),
        records_json(&records),
    ))
}

fn route_debug_doc(ctx: &RouteContext<'_>, req: &HttpRequest) -> HttpResponse {
    let Some(id) = query_param(req, "id").and_then(|v| v.parse::<u64>().ok()) else {
        return HttpResponse::status(400, "expected ?id=<numeric document id>\n");
    };
    let mut records: Vec<webcache_obs::DecisionRecord> = ctx
        .flight
        .iter()
        .flat_map(|r| r.records_for_doc(id))
        .collect();
    records.sort_by_key(|r| r.index);
    HttpResponse::json(format!(
        "{{\"doc\": {id}, \"records\": [{}]}}",
        records_json(&records),
    ))
}

/// Extracts one query-string parameter (`?key=value&...`).
fn query_param<'q>(req: &'q HttpRequest, key: &str) -> Option<&'q str> {
    req.query.as_deref().and_then(|q| {
        q.split('&').find_map(|pair| {
            let (k, value) = pair.split_once('=')?;
            (k == key).then_some(value)
        })
    })
}

fn route_query(ctx: &RouteContext<'_>, req: &HttpRequest) -> HttpResponse {
    let Some(metric) = query_param(req, "metric").filter(|m| !m.is_empty()) else {
        return HttpResponse::status(
            400,
            "expected ?metric=<flat sample name>[&last=N]; see /query?metric= on a \
             name from /snapshot (histograms export <name>_count and <name>_sum)\n",
        );
    };
    let last = match query_param(req, "last") {
        None => DEFAULT_QUERY_LAST,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return HttpResponse::status(400, "last expects a positive point count\n"),
        },
    };
    match ctx.ring.query_json(metric, last) {
        Some(body) => HttpResponse::json(body),
        None => HttpResponse::status(
            404,
            format!(
                "unknown metric `{metric}`; known: {}\n",
                ctx.ring.metric_names().join(", "),
            ),
        ),
    }
}

/// The `/dash` panel list: title, metric, and the label subset selecting
/// one series out of the metric's family.
#[allow(clippy::type_complexity)]
const DASH_PANELS: [(&str, &str, &[(&str, &str)]); 8] = [
    (
        "Hit rate (last pass)",
        "webcache_serve_last_pass_hit_rate",
        &[],
    ),
    (
        "Replay throughput (req/s)",
        "webcache_serve_last_pass_req_per_sec",
        &[],
    ),
    (
        "Modeled latency p50, overall (µs)",
        "webcache_modeled_latency_us",
        &[("doc_type", "overall"), ("quantile", "p50")],
    ),
    (
        "Modeled latency p99, overall (µs)",
        "webcache_modeled_latency_us",
        &[("doc_type", "overall"), ("quantile", "p99")],
    ),
    (
        "Requests replayed (total)",
        "webcache_serve_requests_total",
        &[],
    ),
    (
        "SLO burn rate: hit_rate (short window)",
        "webcache_slo_burn_rate",
        &[("slo", "hit_rate"), ("window", "short")],
    ),
    (
        "SLO burn rate: latency_p99 (short window)",
        "webcache_slo_burn_rate",
        &[("slo", "latency_p99"), ("window", "short")],
    ),
    (
        "Lock contention ratio (shard 0)",
        "webcache_shard_lock_contention_ratio",
        &[("shard", "0")],
    ),
];

/// Renders one sparkline as an inline SVG polyline (fixed 240×48
/// viewport, y-normalised over the series' own range).
fn sparkline_svg(series: &[(u64, f64)]) -> String {
    const W: f64 = 240.0;
    const H: f64 = 48.0;
    const PAD: f64 = 3.0;
    if series.is_empty() {
        return format!(
            "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\">\
             <text x=\"8\" y=\"30\" class=\"nodata\">no data yet</text></svg>"
        );
    }
    let min = series.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let max = series
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let n = series.len();
    let points: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, &(_, v))| {
            let x = if n == 1 {
                W / 2.0
            } else {
                PAD + i as f64 / (n - 1) as f64 * (W - 2.0 * PAD)
            };
            let y = H - PAD - (v - min) / span * (H - 2.0 * PAD);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\">\
         <polyline fill=\"none\" stroke=\"#2a9d6f\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        points.join(" "),
    )
}

fn route_dash(ctx: &RouteContext<'_>, _req: &HttpRequest) -> HttpResponse {
    use std::fmt::Write as _;
    let mut page = String::with_capacity(8 * 1024);
    page.push_str(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\">\
         <title>webcache dash</title><style>\
         body{font-family:monospace;background:#101418;color:#d8dee4;margin:1.5em}\
         h1{font-size:1.2em}.meta{color:#7a8691}\
         .grid{display:flex;flex-wrap:wrap;gap:1em}\
         .panel{background:#161c22;border:1px solid #242c34;border-radius:4px;padding:.6em .8em}\
         .panel h2{font-size:.8em;margin:0 0 .4em;color:#9fb0bf;font-weight:normal}\
         .last{color:#2a9d6f;font-size:.9em}\
         .nodata{fill:#566069;font-size:11px}\
         </style></head><body>\n",
    );
    let _ = writeln!(
        page,
        "<h1>webcache live dashboard</h1>\
         <p class=\"meta\">policy {} · pass {} · {} requests replayed · \
         up {} s · {} snapshots retained (refreshes every 2 s)</p>\n<div class=\"grid\">",
        ctx.policy,
        ctx.passes.get(),
        ctx.requests.get(),
        ctx.started.elapsed().as_secs(),
        ctx.ring.len(),
    );
    for (title, metric, labels) in DASH_PANELS {
        let series = ctx.ring.series(metric, labels);
        let last = series
            .last()
            .map(|&(_, v)| format!("{v:.3}"))
            .unwrap_or_else(|| "—".to_owned());
        let _ = writeln!(
            page,
            "<div class=\"panel\"><h2>{title}</h2>{}<div class=\"last\">last: {last}</div></div>",
            sparkline_svg(&series),
        );
    }
    page.push_str("</div></body></html>\n");
    HttpResponse::html(page)
}

/// Routes one HTTP request through [`ROUTES`].
fn respond(req: &HttpRequest, ctx: &RouteContext<'_>, http_counters: &[Counter]) -> HttpResponse {
    match ROUTES.iter().position(|(path, _)| *path == req.path) {
        Some(i) => {
            http_counters[i].inc();
            (ROUTES[i].1)(ctx, req)
        }
        None => {
            http_counters[ROUTES.len()].inc();
            HttpResponse::not_found()
        }
    }
}

/// `webcache serve` with an injectable shutdown flag and readiness
/// callback (the binary passes [`sigint_flag`]; tests pass their own
/// flag, port 0, and collect the bound address from `on_ready`).
///
/// Returns after the flag rises (or the HTTP listener fails): the HTTP
/// loop stops within one poll interval, the replay within 128 requests
/// of a shard, a generator's producer after at most the epoch it is
/// building, and all are joined.
///
/// # Errors
///
/// Propagates listener bind/accept failures.
pub fn serve_with(
    opts: ServeOptions,
    shutdown: &AtomicBool,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<String, CliError> {
    let ServeOptions {
        source,
        spec,
        config,
        rate,
        max_passes,
        port,
        logger,
        anomaly,
        shards,
        clients,
        flight_capacity,
        bundle_dir,
        max_bundles,
        slo,
        dash_history,
    } = opts;
    let server = HttpServer::bind(("127.0.0.1", port))?;
    let addr = server.local_addr();
    let started = Instant::now();

    let registry = Registry::new();
    let label = spec.label();
    let build_info = registry.gauge(
        "webcache_build_info",
        "Build metadata carried in labels; the value is always 1.",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("features", "default"),
        ],
    );
    build_info.set(1.0);
    let passes_total = registry.counter(
        "webcache_serve_passes_total",
        "Completed replay passes.",
        &[],
    );
    let requests_total = registry.counter(
        "webcache_serve_requests_total",
        "Requests replayed across all passes.",
        &[],
    );
    let rps_gauge = registry.gauge(
        "webcache_serve_last_pass_req_per_sec",
        "Replay throughput of the last completed pass.",
        &[],
    );
    let hit_rate_gauge = registry.gauge(
        "webcache_serve_last_pass_hit_rate",
        "Overall hit rate of the last completed pass.",
        &[],
    );
    let replaying_gauge = registry.gauge(
        "webcache_serve_replaying",
        "1 while the replay loop is running, else 0.",
        &[],
    );
    let http_counters: Vec<Counter> = route_paths()
        .chain(std::iter::once("other"))
        .map(|path| {
            registry.counter(
                "webcache_http_requests_total",
                "HTTP requests served, by path.",
                &[("path", path)],
            )
        })
        .collect();

    // Per-shard balance metrics; a plain daemon exports shard 0's.
    let shard_labels: Vec<String> = (0..shards).map(|s| s.to_string()).collect();
    let shard_metrics: Vec<(Counter, Counter, Gauge)> = shard_labels
        .iter()
        .map(|s| {
            let labels = [("shard", s.as_str())];
            (
                registry.counter(
                    "webcache_serve_shard_requests_total",
                    "Requests routed to the shard, across all passes.",
                    &labels,
                ),
                registry.counter(
                    "webcache_serve_shard_bytes_total",
                    "Bytes requested from the shard, across all passes.",
                    &labels,
                ),
                registry.gauge(
                    "webcache_serve_shard_hit_rate",
                    "Shard hit rate over the last completed pass.",
                    &labels,
                ),
            )
        })
        .collect();
    let request_imbalance_gauge = registry.gauge(
        "webcache_serve_shard_request_imbalance",
        "Max/mean per-shard request count of the last pass (1.0 = even).",
        &[],
    );
    let byte_imbalance_gauge = registry.gauge(
        "webcache_serve_shard_byte_imbalance",
        "Max/mean per-shard requested bytes of the last pass (1.0 = even).",
        &[],
    );

    // Lock contention instrumentation: one probe per shard, its
    // histograms/counters attached under stable per-shard labels.
    let lock_probes: Vec<ShardLockProbe> = (0..shards).map(|_| ShardLockProbe::new()).collect();
    let contention_gauges: Vec<Gauge> = shard_labels
        .iter()
        .zip(&lock_probes)
        .map(|(s, probe)| {
            let labels = [("shard", s.as_str())];
            registry.attach_histogram(
                "webcache_shard_lock_wait_us",
                "Microseconds spent waiting for the shard's stripe lock \
                 (uncontended acquisitions observe 0).",
                &labels,
                &probe.wait_us,
            );
            registry.attach_histogram(
                "webcache_shard_lock_hold_us",
                "Microseconds the shard's stripe lock was held per acquisition.",
                &labels,
                &probe.hold_us,
            );
            registry.attach_counter(
                "webcache_shard_lock_acquire_total",
                "Stripe-lock acquisitions through the probed paths.",
                &labels,
                &probe.acquisitions,
            );
            registry.attach_counter(
                "webcache_shard_lock_contended_total",
                "Stripe-lock acquisitions that found the lock held.",
                &labels,
                &probe.contended,
            );
            registry.gauge(
                "webcache_shard_lock_contention_ratio",
                "Fraction of stripe-lock acquisitions that had to block.",
                &labels,
            )
        })
        .collect();

    // Tail-latency & SLO machinery: modeled per-request latency into
    // windowed percentile histograms, burn-rate tracking against the
    // configured objectives, and the snapshot ring behind /query and
    // /dash.
    let latency_model = LatencyModel::campus_2001();
    let latency_obs = LatencyObserver::register(latency_model, DEFAULT_LATENCY_WINDOWS, &registry);
    let slo_tracker = SloTracker::register(slo, latency_model, &registry);
    let ring = SnapshotRing::new(dash_history);

    // One flight ring and one pair of reason channels per shard. HTTP
    // handlers snapshot the rings while the replay records into them.
    let recorders: Vec<SharedRecorder> = (0..shards)
        .map(|_| SharedRecorder::new(flight_capacity))
        .collect();
    let reasons: Vec<ShardReasons> = (0..shards).map(|_| ShardReasons::default()).collect();

    let profile_obs = ProfileObserver::register(&registry, &label);
    let mut anomaly_obs = AnomalyObserver::register(&registry, logger.clone(), anomaly);
    // Post-mortem bundles: one writer shared by the anomaly trigger
    // (rate limited by the anomaly cooldown) and the pass loop, which
    // writes one for each SLO breach (edge-triggered), so --max-bundles
    // caps the run globally.
    let bundle_writer = bundle_dir.map(|dir| {
        Arc::new(Mutex::new(BundleWriter {
            dir,
            registry: registry.clone(),
            recorders: recorders.clone(),
            logger: logger.clone(),
            policy: label.clone(),
            capacity_bytes: config.capacity.as_u64(),
            max_bundles,
            seq: 0,
        }))
    });
    if let Some(writer) = bundle_writer.clone() {
        anomaly_obs.set_trigger(AnomalyTrigger::new(move |kind, doc_type| {
            writer
                .lock()
                .expect("bundle writer")
                .write(kind.label(), doc_type);
        }));
    }
    let log_obs = LogObserver::new(logger.clone());
    let regret_obs = RegretTracker::with_registry(RegretConfig::default(), &registry);
    // The regret tracker, profiler, anomaly detectors and event log read
    // one ordered event stream, so only a one-shard daemon runs them;
    // they are registered either way, keeping the exposition surface
    // configuration-independent.
    let mut single = (shards == 1).then_some((regret_obs, (profile_obs, (anomaly_obs, log_obs))));
    // One observer chain per shard, the single-stream stage on shard 0
    // only. The flight observer is first in the chain so the ring
    // already holds the current event when the anomaly trigger
    // snapshots it.
    let mut observers: Vec<_> = recorders
        .iter()
        .zip(&reasons)
        .map(|(recorder, reasons)| {
            (
                FlightObserver::with_reasons(
                    recorder.clone(),
                    reasons.evictions.clone(),
                    reasons.admissions.clone(),
                ),
                (single.take(), (latency_obs.clone(), slo_tracker.clone())),
            )
        })
        .collect();

    let simulator = ConcurrentSimulator::new(spec, config)
        .with_lock_probes(lock_probes.clone())
        .with_reasons(reasons);
    logger.info(
        "serve",
        "listening",
        &[
            ("addr", addr.to_string().into()),
            ("policy", label.as_str().into()),
        ],
    );
    replaying_gauge.set(1.0);

    let http_served = std::thread::scope(|scope| {
        let source = feed(scope, source);
        let replay_handle = scope.spawn(|| {
            // Owned by this thread, so the producer stops as soon as the
            // loop ends.
            let mut source = source;
            while !shutdown.load(Ordering::Relaxed)
                && max_passes.is_none_or(|max| passes_total.get() < max)
            {
                let Some(dense) = source.next_pass() else {
                    break;
                };
                // Rebuilt per pass: a generator hands out a new epoch each
                // pass, and the split is one O(n) sweep — noise next to
                // the replay itself.
                let sharded =
                    ShardedTrace::build(dense, shards).expect("shard count validated in from_args");
                let report = simulator.run_sharded_controlled(
                    dense,
                    &sharded,
                    clients,
                    rate,
                    Some(shutdown),
                    &mut observers,
                );
                if !report.completed {
                    // An interrupted pass is discarded, not reported.
                    break;
                }
                // Publish the pass's counters and gauges before its
                // `pass complete` record, then do the pass-boundary
                // bookkeeping: rotate the latency windows, fold the pass
                // into the SLO burn windows (each fired breach writes its
                // bundle, then every breach is logged), refresh the
                // contention gauges, and sample the registry into the
                // snapshot ring.
                let pass = passes_total.get();
                let req_per_sec = report.requests_per_sec();
                let hit_rate = report.overall().hit_rate();
                passes_total.inc();
                requests_total.add(report.requests);
                rps_gauge.set(req_per_sec);
                hit_rate_gauge.set(hit_rate);
                for summary in &report.per_shard {
                    let (requests, bytes, rate) = &shard_metrics[summary.shard];
                    requests.add(summary.requests);
                    bytes.add(u64::try_from(summary.bytes_requested).unwrap_or(u64::MAX));
                    rate.set(if summary.requests > 0 {
                        summary.hits as f64 / summary.requests as f64
                    } else {
                        0.0
                    });
                }
                let balance = report.balance();
                request_imbalance_gauge.set(balance.request_imbalance);
                byte_imbalance_gauge.set(balance.byte_imbalance);
                logger.info(
                    "serve",
                    "pass complete",
                    &[
                        ("pass", pass.into()),
                        ("requests", report.requests.into()),
                        ("req_per_sec", req_per_sec.into()),
                        ("hit_rate", hit_rate.into()),
                        ("request_imbalance", balance.request_imbalance.into()),
                    ],
                );
                latency_obs.rotate_and_publish();
                let breaches = slo_tracker.evaluate();
                if let Some(writer) = &bundle_writer {
                    let mut writer = writer.lock().expect("bundle writer");
                    for breach in &breaches {
                        writer.write(&format!("slo_{}_burn", breach.slo), "overall");
                    }
                }
                for breach in breaches {
                    logger.warn(
                        "serve",
                        "slo breach",
                        &[("slo", breach.slo.into()), ("detail", breach.detail.into())],
                    );
                }
                for (probe, gauge) in lock_probes.iter().zip(contention_gauges.iter()) {
                    gauge.set(probe.contention_ratio());
                }
                ring.capture(&registry, unix_ms_now());
            }
            replaying_gauge.set(0.0);
        });
        on_ready(addr);
        let served = server.serve(shutdown, |req| {
            let ctx = RouteContext {
                registry: &registry,
                passes: &passes_total,
                requests: &requests_total,
                replaying: &replaying_gauge,
                last_pass_req_per_sec: &rps_gauge,
                policy: &label,
                started,
                flight: &recorders,
                ring: &ring,
            };
            respond(req, &ctx, &http_counters)
        });
        replay_handle.join().expect("replay thread");
        served
    })?;

    let (passes, requests) = (passes_total.get(), requests_total.get());
    logger.info(
        "serve",
        "shut down",
        &[
            ("passes", passes.into()),
            ("requests_replayed", requests.into()),
            ("http_requests", http_served.into()),
        ],
    );
    Ok(format!(
        "served {http_served} HTTP requests on {addr}; replayed {requests} requests over {passes} passes\n",
    ))
}

/// `webcache serve` as invoked by the binary: SIGINT-driven shutdown.
pub fn serve(args: &Args) -> Result<String, CliError> {
    let opts = ServeOptions::from_args(args)?;
    #[cfg(unix)]
    let shutdown = sigint_flag();
    #[cfg(not(unix))]
    let shutdown = {
        static NEVER: AtomicBool = AtomicBool::new(false);
        &NEVER
    };
    serve_with(opts, shutdown, |_| {})
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use webcache_obs::{DecisionRecord, EventKind, Reason};
    use webcache_trace::DocumentType;

    use super::*;

    /// Keys and values for `key=value&...` query strings: the keys
    /// `/query` and `/debug/doc` read and others, a known and an unknown
    /// metric, counts at and past the integer limits, signs, escapes and
    /// multi-byte text.
    const KEYS: &[&str] = &["metric", "last", "id", "doc", ""];
    const VALUES: &[&str] = &[
        "hits_total",
        "nope",
        "",
        "0",
        "7",
        "-1",
        "+3",
        "1e3",
        "18446744073709551615",
        "18446744073709551616",
        "%20",
        "é=😀",
        "\u{0}",
    ];

    /// No query, arbitrary text, or a run of `key=value` pairs.
    fn query() -> impl Strategy<Value = Option<String>> {
        let pair = (
            prop::sample::select(KEYS.to_vec()),
            prop::sample::select(VALUES.to_vec()),
        )
            .prop_map(|(key, value)| format!("{key}={value}"));
        prop::option::of(prop_oneof![
            "\\PC{0,40}",
            prop::collection::vec(pair, 0..4).prop_map(|pairs| pairs.join("&")),
        ])
    }

    #[test]
    fn epoch_feed_runs_dry_when_its_producer_stops() {
        let (sender, epochs) = sync_channel(2);
        let epoch = DenseTrace::from_requests(
            (0..30usize).map(|i| (i as u64 % 4, 700, DocumentType::Html)),
        );
        sender.send(epoch.clone()).unwrap();
        sender.send(epoch).unwrap();
        drop(sender);
        let mut feed = Feed::Epochs {
            epochs,
            current: None,
        };
        assert_eq!(feed.next_pass().map(DenseTrace::len), Some(30));
        assert_eq!(feed.next_pass().map(DenseTrace::len), Some(30));
        assert!(feed.next_pass().is_none(), "the pass loop ends here");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever a client puts after the `?`, both handlers answer
        /// 200, 400 or 404.
        #[test]
        fn query_handlers_answer_every_query_string(query in query()) {
            let registry = Registry::new();
            registry.counter("hits_total", "Hits.", &[]).inc();
            let ring = SnapshotRing::new(4);
            ring.capture(&registry, 0);
            let flight = [SharedRecorder::new(4)];
            flight[0].record(DecisionRecord {
                index: 0,
                doc: 7,
                doc_type: 0,
                size: 100,
                event: EventKind::Insert,
                reason: Reason::none(),
            });
            let (passes, requests) = (Counter::detached(), Counter::detached());
            let (replaying, last_pass_req_per_sec) = (Gauge::detached(), Gauge::detached());
            let ctx = RouteContext {
                registry: &registry,
                passes: &passes,
                requests: &requests,
                replaying: &replaying,
                last_pass_req_per_sec: &last_pass_req_per_sec,
                policy: "LRU",
                started: Instant::now(),
                flight: &flight,
                ring: &ring,
            };
            let counters: Vec<Counter> = (0..=ROUTES.len())
                .map(|_| registry.counter("requests_total", "Requests.", &[]))
                .collect();
            for path in ["/query", "/debug/doc"] {
                let request = HttpRequest {
                    method: "GET".to_owned(),
                    path: path.to_owned(),
                    query: query.clone(),
                };
                let answer = respond(&request, &ctx, &counters).status;
                prop_assert!(matches!(answer, 200 | 400 | 404), "{path} {query:?}: {answer}");
            }
        }
    }
}
