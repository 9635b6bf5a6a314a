//! The `serve-dfn-scraped` workload: `serve_with` for a fixed pass
//! budget while an open-loop generator scrapes it, and the traced rebuild
//! of `serve_with`'s pass (epoch → intern → instrumented observed replay
//! → end of pass) from the same public calls.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use webcache_cli::capacity::CapacitySpec;
use webcache_cli::serve::{DEFAULT_DASH_HISTORY, DEFAULT_FLIGHT_CAPACITY};
use webcache_cli::{serve_with, Args, ServeOptions};
use webcache_core::PolicySpec;
use webcache_obs::{
    Counter, FlightSink, Gauge, HttpRequest, HttpResponse, HttpServer, Level, Logger,
    ReasonChannel, Registry, SharedRecorder, SnapshotRing,
};
use webcache_sim::latency_obs::DEFAULT_LATENCY_WINDOWS;
use webcache_sim::{
    AnomalyConfig, AnomalyObserver, FlightObserver, LatencyModel, LatencyObserver, LogObserver,
    ProfileObserver, RegretConfig, RegretTracker, SimulationConfig, Simulator, SloConfig,
    SloTracker,
};
use webcache_trace::{DenseTrace, Trace};
use webcache_workload::{WorkloadProfile, WorkloadStream};

use crate::cli_ops::{publish_shares, Counts};
use crate::host::HostClock;
use crate::inputs::{self, Expect, Workload, WARMUP};
use crate::report::{median, quantile, tail, Results};
use crate::scrape::{self, Scrape};
use crate::spans::{Ledger, Recorder, HTTP, MAIN, SCRAPER};

/// `serve`'s default scale (not passed on the command line).
const SCALE: f64 = 256.0;
const POLICY: &str = "lru";
/// Passes per `serve_with` call.
pub const PASSES: u64 = 100;
/// A serve op that has not finished its passes by then has failed.
const GIVE_UP: Duration = Duration::from_secs(60);

fn unix_ms() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

fn spec() -> PolicySpec {
    POLICY.parse().expect("the serve policy parses")
}

/// What `ServeOptions::from_args` does for `--workload dfn`: the stream,
/// its pass length, the pre-generated first epoch and the config.
fn open_stream(seed: u64) -> (WorkloadStream, usize, Trace, SimulationConfig) {
    let mut stream = WorkloadStream::new(WorkloadProfile::dfn().scaled(1.0 / SCALE), seed);
    let per_pass = stream.epoch_len();
    let first = stream.take_trace(per_pass);
    let capacity = CapacitySpec::FractionOfTrace(0.05).resolve(first.overall_size());
    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(WARMUP)
        .build();
    (stream, per_pass, first, config)
}

/// The facts a serve op is checked against. Every pass starts a fresh
/// cache and observers do not change outcomes, so the final pass's hit
/// rate is that of a bare replay of the final epoch.
pub fn expectations(seed: u64) -> Expect {
    let (mut stream, per_pass, first, config) = open_stream(seed);
    let mut expect = Expect::default();
    expect.set("requests", per_pass);
    expect.set("documents", first.distinct_documents());
    expect.set("input_bytes", 0);
    expect.set("scale", SCALE);
    let mut last = first;
    for _ in 1..PASSES {
        last = stream.take_trace(per_pass);
    }
    let report = Simulator::from_spec(spec(), config).run_dense(&DenseTrace::build(&last));
    expect.set("final_hit_rate", report.overall().hit_rate());
    expect
}

/// The rendered outcome the golden copy pins: the run summary and the
/// final-pass hit rate.
fn rendered(summary: &str, hit_rate: &str) -> String {
    let replayed = summary.split("; ").nth(1).unwrap_or_default().trim_end();
    format!("{replayed}\nwebcache_serve_last_pass_hit_rate {hit_rate}\n")
}

/// The series a Prometheus text body exposes: each family's `# TYPE`
/// line and each sample's name and labels, without its value. Which `le`
/// buckets and `sample` points exist depends on the data, so those labels
/// are dropped; the `version` label names the build, so its value is
/// masked.
fn series_ids(text: &str) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    for line in text.lines().filter(|l| !l.starts_with("# HELP ")) {
        if line.starts_with('#') {
            ids.insert(line.to_owned());
            continue;
        }
        let key = line.rsplit_once(' ').map_or(line, |(key, _)| key);
        let Some((name, labels)) = key.split_once('{') else {
            ids.insert(key.to_owned());
            continue;
        };
        let labels: Vec<&str> = labels
            .trim_end_matches('}')
            .split(',')
            .filter(|l| !l.starts_with("le=") && !l.starts_with("sample="))
            .map(|l| {
                if l.starts_with("version=") {
                    "version"
                } else {
                    l
                }
            })
            .collect();
        ids.insert(format!("{name}{{{}}}", labels.join(",")));
    }
    ids
}

/// Fails, naming a few series only one side exposes, unless the daemon's
/// series equal the rebuilt registry's.
fn series_diff(daemon: &BTreeSet<String>, rebuilt: &BTreeSet<String>) -> Result<(), String> {
    if daemon == rebuilt {
        return Ok(());
    }
    let only = |a: &BTreeSet<String>, b: &BTreeSet<String>| -> Vec<String> {
        a.difference(b).take(3).cloned().collect()
    };
    Err(format!(
        "the rebuilt serve registry differs from the daemon's: only in the daemon {:?}, \
         only rebuilt {:?}",
        only(daemon, rebuilt),
        only(rebuilt, daemon)
    ))
}

/// One `serve_with` call.
struct ServeOp {
    setup_s: f64,
    replay_s: f64,
    requests: u64,
    /// Scrapes due before the replay ended.
    scrapes: Vec<Scrape>,
    /// Every output check passed.
    checked: Result<(), String>,
    hit_rate: String,
    /// The series of the final `/metrics` body.
    series: BTreeSet<String>,
    summary: String,
}

/// The `"ts_ms"` of the log record of the final pass, once written.
fn final_pass_ms(log: &Path, marker: &str) -> Option<f64> {
    let text = std::fs::read_to_string(log).ok()?;
    let line = text.lines().find(|l| l.contains(marker))?;
    let digits: String = line
        .strip_prefix("{\"ts_ms\":")?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Raises the shutdown flag when dropped, so a failing scraper can never
/// leave `serve_with` running.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn serve_op(seed: u64, op: u64, work: &Path, expect: &Expect) -> Result<ServeOp, String> {
    let log = work.join("serve.log");
    let _ = std::fs::remove_file(&log);
    let argv: Vec<String> = [
        "--workload",
        "dfn",
        "--policy",
        POLICY,
        "--port",
        "0",
        "--seed",
        &seed.to_string(),
        "--passes",
        &PASSES.to_string(),
        "--log-file",
        &log.display().to_string(),
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    let started = Instant::now();
    let args = Args::parse(&argv, &["quick"]).map_err(|e| e.to_string())?;
    let opts = ServeOptions::from_args(&args).map_err(|e| e.to_string())?;
    let shutdown = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel::<(SocketAddr, Instant, f64)>();
    let marker = format!("\"msg\":\"pass complete\",\"pass\":{},", PASSES - 1);

    let (summary, scraped) = std::thread::scope(|scope| {
        let (shutdown, log, marker) = (&shutdown, &log, &marker);
        let scraper = scope.spawn(move || {
            let _raise = RaiseOnDrop(shutdown);
            let (addr, ready, ready_ms) = ready_rx.recv().ok()?;
            let mut end_ms = None;
            let start = ready + scrape::start_offset(seed, op);
            let scrapes = scrape::run(addr, start, || {
                end_ms = end_ms.or_else(|| final_pass_ms(log, marker));
                end_ms.is_none() && ready.elapsed() < GIVE_UP
            });
            let metrics = scrape::get(addr, "/metrics").ok();
            Some((ready, ready_ms, end_ms, scrapes, metrics))
        });
        let summary = serve_with(opts, shutdown, move |addr| {
            let _ = ready_tx.send((addr, Instant::now(), unix_ms()));
        });
        (summary, scraper.join().expect("scraper thread"))
    });
    let summary = summary.map_err(|e| e.to_string())?;
    let (ready, ready_ms, end_ms, mut scrapes, metrics) =
        scraped.ok_or("serve_with never became ready")?;
    let end_ms = end_ms.ok_or("the replay did not finish its passes")?;
    // `ts_ms` is truncated to the millisecond: take the middle.
    let replay_s = (end_ms + 0.5 - ready_ms) / 1e3;
    let replay_end = ready + Duration::from_secs_f64(replay_s.max(0.0));
    scrapes.retain(|s| s.due <= replay_end);

    let requests = PASSES * expect.num("requests") as u64;
    let hit_rate = metrics
        .as_ref()
        .and_then(|m| {
            m.body
                .lines()
                .find_map(|l| l.strip_prefix("webcache_serve_last_pass_hit_rate "))
        })
        .unwrap_or("missing")
        .to_owned();
    let series = metrics
        .as_ref()
        .map_or_else(BTreeSet::new, |m| series_ids(&m.body));
    let want_rate = expect.get("final_hit_rate");
    let checked = if !summary.contains(&format!(
        "replayed {requests} requests over {PASSES} passes"
    )) {
        Err(format!("unexpected serve summary `{}`", summary.trim_end()))
    } else if hit_rate.parse::<f64>().map(f64::to_bits)
        != want_rate.parse::<f64>().map(f64::to_bits)
    {
        Err(format!(
            "last-pass hit rate {hit_rate}, expected {want_rate}"
        ))
    } else {
        Ok(())
    };
    Ok(ServeOp {
        setup_s: (ready - started).as_secs_f64(),
        replay_s,
        requests,
        scrapes,
        checked,
        hit_rate,
        series,
        summary,
    })
}

/// Counts one serve op and its scrapes.
fn check_op(op: &Result<ServeOp, String>, seed: u64, res: &mut Results) {
    let checked = op.as_ref().map_err(Clone::clone).and_then(|op| {
        op.checked.clone()?;
        let out = rendered(&op.summary, &op.hit_rate);
        inputs::check_golden(Workload::Serve, seed, &out)
    });
    res.check(&checked);
    for scrape in op.iter().flat_map(|op| &op.scrapes) {
        let outcome = if scrape.ok {
            Ok(())
        } else {
            Err(format!("scrape {} of {}", scrape.seq, scrape.route))
        };
        res.check(&outcome);
    }
}

/// The timed runs: `serve_with` calls back to back until `seconds` have
/// passed, each scraped from `on_ready` to the end of its replay. Set-up
/// and replay times are scaled by the host speed around each call (see
/// `host`); scrape latencies, which the daemon's poll interval sets, are
/// not.
pub fn run_untraced(
    seed: u64,
    seconds: f64,
    work: &Path,
    expect: &Expect,
    clock: &mut HostClock,
    res: &mut Results,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setups, mut latency, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut replay_s, mut wall_s, mut ops) = (0u64, 0.0, 0.0, 0u64);
    loop {
        let op = serve_op(seed, ops, work, expect);
        let factor = clock.factor();
        check_op(&op, seed, res);
        if let Ok(op) = op {
            setups.push(op.setup_s * factor);
            requests += op.requests;
            replay_s += op.replay_s * factor;
            wall_s += op.replay_s;
            latency.extend(op.scrapes.iter().map(|s| s.latency_s));
            late.extend(op.scrapes.iter().map(|s| s.late_s * 1e3));
        }
        ops += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let tail_p = Workload::Serve.tail_percentile();
    let (tail_s, beyond) = tail(&latency, tail_p);
    println!(
        "serve ops {ops} ({PASSES} passes each), scrapes {} (open loop, {} /s): \
         scrape_p50_ms {:.3}, scrape_tail_ms {:.3} (p{tail_p}, {beyond} beyond), \
         gen_late_ms p50 {:.3} max {:.3}; wall req_per_s {:.0}, host factor p50 {:.4} \
         (min {:.4}, max {:.4})",
        latency.len(),
        scrape::RATE_HZ,
        median(&latency) * 1e3,
        tail_s * 1e3,
        median(&late),
        quantile(&late, 1.0),
        requests as f64 / wall_s,
        median(&clock.factors),
        quantile(&clock.factors, 0.0),
        quantile(&clock.factors, 1.0),
    );
    res.set("setup_s", median(&setups), "s");
    res.set("op_p50_s", median(&latency), "s");
    res.set("op_tail_s", tail_s, "s");
    res.set("req_per_s", requests as f64 / replay_s, "requests/s");
}

type Observers = (
    FlightObserver,
    (
        RegretTracker,
        (
            ProfileObserver,
            (
                AnomalyObserver,
                (LogObserver, (LatencyObserver, SloTracker)),
            ),
        ),
    ),
);

/// `serve_with`'s registry and serial observer stack, registered in the
/// same order.
struct Stack {
    registry: Registry,
    observer: Observers,
    latency: LatencyObserver,
    slo: SloTracker,
    ring: SnapshotRing,
    evict_reasons: ReasonChannel,
    admit_reasons: ReasonChannel,
    logger: Logger,
    passes_total: Counter,
    requests_total: Counter,
    rps: Gauge,
    hit_rate: Gauge,
    contention: Gauge,
}

impl Stack {
    fn register(label: &str, logger: Logger) -> Stack {
        let registry = Registry::new();
        registry
            .gauge(
                "webcache_build_info",
                "Build metadata.",
                &[("version", "perfbench"), ("features", "default")],
            )
            .set(1.0);
        let passes_total = registry.counter("webcache_serve_passes_total", "Passes.", &[]);
        let requests_total = registry.counter("webcache_serve_requests_total", "Requests.", &[]);
        let rps = registry.gauge("webcache_serve_last_pass_req_per_sec", "Throughput.", &[]);
        let hit_rate = registry.gauge("webcache_serve_last_pass_hit_rate", "Hit rate.", &[]);
        registry
            .gauge("webcache_serve_replaying", "Replaying.", &[])
            .set(1.0);
        for path in webcache_cli::serve::route_paths().chain(std::iter::once("other")) {
            registry.counter(
                "webcache_http_requests_total",
                "Requests.",
                &[("path", path)],
            );
        }
        // The shard and lock series a serial pass never updates.
        let shard = [("shard", "0")];
        for name in [
            "webcache_serve_shard_requests_total",
            "webcache_serve_shard_bytes_total",
        ] {
            registry.counter(name, "Shard totals.", &shard);
        }
        registry.gauge("webcache_serve_shard_hit_rate", "Shard hit rate.", &shard);
        for name in [
            "webcache_serve_shard_request_imbalance",
            "webcache_serve_shard_byte_imbalance",
        ] {
            registry.gauge(name, "Imbalance.", &[]);
        }
        for name in ["webcache_shard_lock_wait_us", "webcache_shard_lock_hold_us"] {
            registry.histogram(name, "Lock times.", &shard);
        }
        for name in [
            "webcache_shard_lock_acquire_total",
            "webcache_shard_lock_contended_total",
        ] {
            registry.counter(name, "Lock counts.", &shard);
        }
        let contention = registry.gauge(
            "webcache_shard_lock_contention_ratio",
            "Contention.",
            &shard,
        );

        let model = LatencyModel::campus_2001();
        let latency = LatencyObserver::register(model, DEFAULT_LATENCY_WINDOWS, &registry);
        let slo = SloTracker::register(SloConfig::default(), model, &registry);
        let ring = SnapshotRing::new(DEFAULT_DASH_HISTORY);
        let recorder = SharedRecorder::new(DEFAULT_FLIGHT_CAPACITY);
        let profile = ProfileObserver::register(&registry, label);
        let anomaly =
            AnomalyObserver::register(&registry, logger.clone(), AnomalyConfig::default());
        let log = LogObserver::new(logger.clone());
        let regret = RegretTracker::with_registry(RegretConfig::default(), &registry);
        let evict_reasons = ReasonChannel::new();
        let admit_reasons = ReasonChannel::new();
        let flight =
            FlightObserver::with_reasons(recorder, evict_reasons.clone(), admit_reasons.clone());
        let observer = (
            flight,
            (
                regret,
                (profile, (anomaly, (log, (latency.clone(), slo.clone())))),
            ),
        );
        Stack {
            registry,
            observer,
            latency,
            slo,
            ring,
            evict_reasons,
            admit_reasons,
            logger,
            passes_total,
            requests_total,
            rps,
            hit_rate,
            contention,
        }
    }

    /// The pass callback's counters, gauges and log record.
    fn publish(&self, pass: u64, requests: u64, replay: Duration, hit_rate: f64) {
        let req_per_sec = requests as f64 / replay.as_secs_f64().max(1e-9);
        self.passes_total.inc();
        self.requests_total.add(requests);
        self.rps.set(req_per_sec);
        self.hit_rate.set(hit_rate);
        self.logger.info(
            "serve",
            "pass complete",
            &[
                ("pass", pass.into()),
                ("requests", requests.into()),
                ("req_per_sec", req_per_sec.into()),
                ("hit_rate", hit_rate.into()),
            ],
        );
    }

    /// `serve_with`'s end-of-pass bookkeeping.
    fn end_of_pass(&self) {
        self.latency.rotate_and_publish();
        for breach in self.slo.evaluate() {
            self.logger.warn(
                "serve",
                "slo breach",
                &[("slo", breach.slo.into()), ("detail", breach.detail.into())],
            );
        }
        // An unused probe's contention ratio.
        self.contention.set(0.0);
        self.ring.capture(&self.registry, unix_ms() as u64);
    }
}

/// The benchmark's handler for `HttpServer::serve`, over the traced
/// stack's registry. Each response is timed as an `obs` span.
fn handle(
    req: &HttpRequest,
    registry: &Registry,
    ring: &SnapshotRing,
    rec: &Recorder,
    op: u64,
    handled: &Mutex<Vec<(u64, f64)>>,
) -> HttpResponse {
    let started = Instant::now();
    let (name, response) = match req.path.as_str() {
        "/metrics" => (
            "obs.render_metrics",
            HttpResponse::text(registry.prometheus_text()),
        ),
        "/snapshot" => (
            "obs.render_snapshot",
            HttpResponse::json(registry.json_snapshot()),
        ),
        "/healthz" => (
            "obs.render_healthz",
            HttpResponse::json(format!(
                "{{\"status\": \"ok\", \"series\": {}}}",
                registry.len()
            )),
        ),
        "/dash" => (
            "obs.render_dash",
            HttpResponse::html(format!(
                "<!doctype html><pre>{:?}</pre>\n",
                ring.series("webcache_serve_last_pass_hit_rate", &[])
            )),
        ),
        _ => ("obs.not_found", HttpResponse::not_found()),
    };
    let elapsed = started.elapsed();
    rec.record(name, HTTP, op, None, started, started + elapsed);
    let seq = req
        .query
        .as_deref()
        .and_then(|q| q.strip_prefix("n="))
        .and_then(|n| n.parse().ok());
    if let Some(seq) = seq {
        handled
            .lock()
            .expect("handler log")
            .push((seq, elapsed.as_secs_f64()));
    }
    response
}

/// One traced op: `PASSES` passes of `serve_with`'s pass, rebuilt, while
/// the generator scrapes a benchmark handler on the same registry.
struct Composed {
    final_hit_rate: f64,
    /// The passes' summed wall time.
    op_wall_s: f64,
    generate_s: f64,
    /// Bare `run_dense` of each pass's epoch, timed outside the pass.
    bare_s: Vec<f64>,
    /// Factory plus observed replay, per pass.
    observed_s: Vec<f64>,
    scrapes: Vec<Scrape>,
    handled: Vec<(u64, f64)>,
    /// `Registry::len` and the series of the final registry.
    series: usize,
    series_ids: BTreeSet<String>,
    checked: Result<(), String>,
}

fn compose(
    seed: u64,
    work: &Path,
    rec: &Recorder,
    op: u64,
    counts: Option<&mut Counts>,
) -> Result<Composed, String> {
    let started = Instant::now();
    let (mut stream, per_pass, first, config) = open_stream(seed);
    let generate_s = started.elapsed().as_secs_f64();
    let log = work.join("traced.log");
    let _ = std::fs::remove_file(&log);
    let logger = Logger::to_file(&log, Level::Info).map_err(|e| e.to_string())?;
    let spec = spec();
    let mut stack = Stack::register(&spec.label(), logger);
    let server = HttpServer::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let replaying = AtomicBool::new(true);
    let handled = Mutex::new(Vec::new());
    let mut pending = Some(first);
    let mut counts = counts;
    let (mut bare_s, mut observed_s) = (Vec::new(), Vec::new());
    let mut final_hit_rate = 0.0;
    let mut op_wall_s = 0.0;
    let mut checked = Ok(());

    let scrapes = std::thread::scope(|scope| {
        let registry = stack.registry.clone();
        let ring = stack.ring.clone();
        let (stop, replaying, handled) = (&stop, &replaying, &handled);
        let http = scope.spawn(move || {
            server.serve(stop, |req| handle(req, &registry, &ring, rec, op, handled))
        });
        let scraper = scope.spawn(move || {
            let _raise = RaiseOnDrop(stop);
            let start = Instant::now() + scrape::start_offset(seed, op);
            let scrapes = scrape::run(addr, start, || replaying.load(Ordering::SeqCst));
            for s in &scrapes {
                let done = s.due + Duration::from_secs_f64(s.latency_s);
                rec.record("bench.scrape", SCRAPER, op, None, s.due, done);
            }
            scrapes
        });
        for pass in 0..PASSES {
            let pass_started = Instant::now();
            let root = rec.begin("bench.pass", MAIN, op, None);
            let parent = Some(root);
            let trace = match pending.take() {
                Some(first) => first,
                None => rec.time("workload.epoch", MAIN, op, parent, || {
                    stream.take_trace(per_pass)
                }),
            };
            let dense = rec.time("trace.intern", MAIN, op, parent, || {
                DenseTrace::build(&trace)
            });
            let replay_started = Instant::now();
            let report = rec.time("sim.replay_observed", MAIN, op, parent, || {
                let mut sim = Simulator::from_spec_instrumented(
                    spec,
                    config,
                    FlightSink::new(stack.evict_reasons.clone()),
                );
                sim.set_admit_reasons(stack.admit_reasons.clone());
                sim.run_dense_observed(&dense, &mut stack.observer)
            });
            let replay = replay_started.elapsed();
            let hit_rate = report.overall().hit_rate();
            rec.time("obs.pass_publish", MAIN, op, parent, || {
                stack.publish(pass, dense.len() as u64, replay, hit_rate)
            });
            rec.time("sim.pass_end", MAIN, op, parent, || stack.end_of_pass());
            rec.end(root);
            op_wall_s += pass_started.elapsed().as_secs_f64();

            // Outside the pass: the bare replay of the same epoch, and
            // the counting replay.
            let bare_started = Instant::now();
            let bare = Simulator::from_spec(spec, config).run_dense(&dense);
            bare_s.push(bare_started.elapsed().as_secs_f64());
            observed_s.push(replay.as_secs_f64());
            if bare.overall().hit_rate().to_bits() != hit_rate.to_bits() {
                checked = Err(format!("pass {pass}: observed and bare replays disagree"));
            }
            if let Some(counts) = counts.as_deref_mut() {
                counts.add_replay(spec, config, &dense);
            }
            final_hit_rate = hit_rate;
        }
        replaying.store(false, Ordering::SeqCst);
        // The scraper raises `stop` as it finishes.
        let scrapes = scraper.join().expect("scraper thread");
        let served = http.join().expect("http thread");
        if let Err(e) = served {
            checked = Err(format!("benchmark HTTP server: {e}"));
        }
        scrapes
    });
    Ok(Composed {
        final_hit_rate,
        op_wall_s,
        generate_s,
        bare_s,
        observed_s,
        scrapes,
        handled: handled.into_inner().expect("handler log"),
        series: stack.registry.len(),
        series_ids: series_ids(&stack.registry.prometheus_text()),
        checked,
    })
}

/// The traced run: untraced `serve_with` ops and traced compositions
/// alternate until `seconds` have passed. The daemon's final-pass hit
/// rate must equal the composition's, bit for bit, and its final
/// `/metrics` must expose the same series as the rebuilt registry, so
/// the copy of `serve_with`'s stack cannot drift unnoticed.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    work: &Path,
    expect: &Expect,
    trace_out: &Path,
    res: &mut Results,
) {
    let rec = Recorder::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut counts = Counts::default();
    let (mut plain_s, mut traced_s, mut generate_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bare_s, mut observed_s) = (Vec::new(), Vec::new());
    let (mut wait_ms, mut handler_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut series = 0;
    for op in 0.. {
        let plain = serve_op(seed, op, work, expect);
        check_op(&plain, seed, res);
        let composed = compose(seed, work, &rec, op, (op == 0).then_some(&mut counts));
        let checked = match (&plain, &composed) {
            (Ok(plain), Ok(composed)) => {
                plain_s.push(plain.replay_s);
                traced_s.push(composed.op_wall_s);
                composed.checked.clone().and_then(|()| {
                    let daemon = plain.hit_rate.parse::<f64>().map(f64::to_bits);
                    if daemon != Ok(composed.final_hit_rate.to_bits()) {
                        return Err(format!(
                            "daemon hit rate {} != traced composition {}",
                            plain.hit_rate, composed.final_hit_rate
                        ));
                    }
                    series_diff(&plain.series, &composed.series_ids)
                })
            }
            (_, Err(e)) => Err(e.clone()),
            (Err(_), _) => Err("untraced serve op failed".to_owned()),
        };
        res.check(&checked);
        if let Ok(c) = composed {
            generate_s.push(c.generate_s);
            bare_s.extend(c.bare_s);
            observed_s.extend(c.observed_s);
            series = c.series;
            for s in &c.scrapes {
                late_ms.push(s.late_s * 1e3);
                if let Some(&(_, handler)) = c.handled.iter().find(|(seq, _)| *seq == s.seq) {
                    handler_ms.push(handler * 1e3);
                    wait_ms.push((s.latency_s - handler) * 1e3);
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let spans = rec.spans();
    let ledger = Ledger::from_spans(&spans);
    if let Err(e) = std::fs::write(trace_out, crate::spans::chrome_trace(&spans)) {
        eprintln!("perfbench: {}: {e}", trace_out.display());
    }
    print!("{}", ledger.render("pass"));
    let passes = ledger.roots.max(1) as f64;
    let per_pass = |secs: f64| secs / passes;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let span_mean = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .collect();
        mean(&d)
    };
    res.set(
        "trace.intern_s",
        per_pass(ledger.stage_s("trace.intern")),
        "s",
    );
    res.set("workload.generate_s", median(&generate_s), "s");
    res.set(
        "workload.epoch_s",
        per_pass(ledger.stage_s("workload.epoch")),
        "s",
    );
    let bare = mean(&bare_s);
    res.set("sim.replay_s", bare, "s");
    res.set(
        "sim.replay_req_per_s",
        expect.num("requests") / bare,
        "requests/s",
    );
    res.set("sim.observers_s", mean(&observed_s) - bare, "s");
    res.set(
        "sim.pass_end_s",
        per_pass(ledger.stage_s("sim.pass_end")),
        "s",
    );
    res.set("obs.render_metrics_s", span_mean("obs.render_metrics"), "s");
    res.set(
        "obs.render_snapshot_s",
        span_mean("obs.render_snapshot"),
        "s",
    );
    res.set("obs.http_wait_ms", median(&wait_ms), "ms");
    res.set("obs.http_handler_ms", median(&handler_ms), "ms");
    res.set("obs.series", series as f64, "count");
    res.set("bench.gen_late_ms", quantile(&late_ms, 1.0), "ms");
    res.set(
        "bench.trace_overhead",
        median(&traced_s) / median(&plain_s),
        "ratio",
    );
    publish_shares(&ledger, res);
    counts.publish(res);
}
