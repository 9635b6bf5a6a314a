//! Acceptance tests for `webcache serve`: the daemon answers /metrics,
//! /healthz and /snapshot while (and after) replaying, an injected
//! hit-rate cliff increments `webcache_anomaly_total` AND produces
//! exactly one rate-limited JSONL warn record, and shutdown via the
//! shared flag is clean.
//!
//! The tests drive [`serve_with`] directly (own shutdown flag, port 0,
//! address collected from the readiness callback) but build their
//! [`ServeOptions`] through the same `Args` parsing as the binary.

use std::fs;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use webcache_cli::capacity::CapacitySpec;
use webcache_cli::{serve_with, Args, CliError, ServeOptions};
use webcache_core::PolicyKind;
use webcache_sim::{SimulationConfig, Simulator};
use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace};
use webcache_workload::{WorkloadProfile, WorkloadStream};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("webcache-serve-test-{}-{name}", std::process::id()));
    p
}

/// One short HTTP/1.1 exchange; returns (status, headers, body).
fn http_get_full(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .unwrap_or_default();
    (status, head, body)
}

/// One short HTTP/1.1 exchange; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http_get_full(addr, path);
    (status, body)
}

/// Polls `/healthz` until the replay loop reports done (or panics after
/// `deadline`).
fn await_replay_done(addr: SocketAddr, deadline: Duration) -> String {
    let started = Instant::now();
    loop {
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"replaying\": false") {
            return body;
        }
        assert!(
            started.elapsed() < deadline,
            "replay did not finish in {deadline:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The value of the exported sample `series` (name plus labels) in a
/// Prometheus text body.
fn sample(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing sample {series}: {metrics}"))
}

/// A single-type trace with a hit-rate cliff: with a 500-request anomaly
/// window, window 1 cycles an 8-document hot set (~98% hit rate, seeds
/// the EWMA baseline) and window 2 is almost entirely cold distinct
/// documents, collapsing the hit rate far past the detection threshold.
fn cliff_trace() -> Trace {
    let mut trace = Trace::with_capacity(1100);
    let mut push = |i: u64, doc: u64| {
        trace.push(Request::new(
            Timestamp::from_millis(i),
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(900),
        ));
    };
    for i in 0..512u64 {
        push(i, i % 8);
    }
    for i in 512..1100u64 {
        push(i, 1000 + i);
    }
    trace
}

#[test]
fn cliff_trace_fires_anomaly_once_and_endpoints_answer() {
    let trace_path = temp_path("cliff.wctb");
    let log_path = temp_path("cliff.log");
    fs::write(
        &trace_path,
        webcache_trace::format_bin::to_bytes(&cliff_trace()),
    )
    .unwrap();
    fs::remove_file(&log_path).ok();

    // Capacity 4MiB holds every document, so no evictions (and thus no
    // storm/thrash detections) muddy the single expected collapse warn.
    // Warn-level log file keeps the serve-loop info records out of it.
    let args = Args::parse(
        &argv(&format!(
            "--trace {} --policy lru --capacity 4MiB --warmup 0 --passes 1 --port 0 \
             --anomaly-window 500 --log-level warn --log-file {}",
            trace_path.display(),
            log_path.display()
        )),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        serve_with(opts, &SHUTDOWN, move |addr| tx.send(addr).unwrap()).unwrap()
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("ready");

    // /healthz answers while the daemon is up; wait out the single pass.
    let health = await_replay_done(addr, Duration::from_secs(30));
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    assert!(health.contains("\"passes\": 1"), "{health}");
    assert!(health.contains("\"policy\": \"LRU\""), "{health}");

    // /metrics carries the anomaly counter and the serve-loop families.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("webcache_anomaly_total{kind=\"hit_rate_collapse\",doc_type=\"HTML\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_serve_passes_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE webcache_serve_last_pass_req_per_sec gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_sim_hits_total{policy=\"LRU\"}"),
        "{metrics}"
    );

    // /snapshot is valid JSON mirroring the registry.
    let (status, snapshot) = http_get(addr, "/snapshot");
    assert_eq!(status, 200);
    let parsed = webcache_obs::json::parse(&snapshot).expect("snapshot parses");
    assert!(parsed.get("counters").is_some(), "{snapshot}");

    // Unknown paths 404 without taking the daemon down.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    SHUTDOWN.store(true, Ordering::SeqCst);
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.contains("1 passes"), "{summary}");

    // Exactly one rate-limited warn record reached the log file.
    let log = fs::read_to_string(&log_path).unwrap();
    let warns: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"kind\":\"hit_rate_collapse\""))
        .collect();
    assert_eq!(warns.len(), 1, "rate limiting failed: {log}");
    assert!(warns[0].contains("\"level\":\"warn\""), "{log}");
    assert!(warns[0].contains("\"doc_type\":\"HTML\""), "{log}");
    assert_eq!(log.lines().count(), 1, "unexpected extra records: {log}");

    fs::remove_file(trace_path).ok();
    fs::remove_file(log_path).ok();
}

/// Like [`cliff_trace`], but sized to evict: window 2's cold flood keeps
/// re-requesting the 8-document hot set every 64 requests, so a small
/// cache churns the hot documents out and back in — wasted evictions the
/// forensics report must surface.
fn forensic_trace() -> Trace {
    let mut trace = Trace::with_capacity(1100);
    let mut push = |i: u64, doc: u64| {
        trace.push(Request::new(
            Timestamp::from_millis(i),
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(900),
        ));
    };
    for i in 0..512u64 {
        push(i, i % 8);
    }
    for i in 512..1100u64 {
        if i % 8 == 0 {
            push(i, (i / 8) % 8);
        } else {
            push(i, 1000 + i);
        }
    }
    trace
}

#[test]
fn anomaly_writes_one_bundle_that_round_trips_through_inspect() {
    let trace_path = temp_path("forensic.wctb");
    let bundle_dir = temp_path("bundles");
    fs::write(
        &trace_path,
        webcache_trace::format_bin::to_bytes(&forensic_trace()),
    )
    .unwrap();
    let _ = fs::remove_dir_all(&bundle_dir);

    // 16KiB holds ~18 of the 900-byte documents: the hot set fits during
    // window 1 (seeding the hit-rate baseline with ~98%), then window
    // 2's cold flood evicts constantly and collapses the hit rate.
    // GDS(1) attaches greedy_dual reason payloads to every eviction.
    let args = Args::parse(
        &argv(&format!(
            "--trace {} --policy gds1 --capacity 16KiB --warmup 0 --passes 1 --port 0 \
             --anomaly-window 500 --log-level error --flight-capacity 2048 \
             --bundle-dir {} --max-bundles 1",
            trace_path.display(),
            bundle_dir.display()
        )),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        serve_with(opts, &SHUTDOWN, move |addr| tx.send(addr).unwrap()).unwrap()
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("ready");
    await_replay_done(addr, Duration::from_secs(30));

    // Every routing-table path answers (non-404) — the table is the
    // single source of truth, so a new endpoint is covered by default.
    // Headers are part of the contract: no-store everywhere (these are
    // live views) and a correct Content-Type per route.
    for path in webcache_cli::serve::route_paths() {
        let probe = match path {
            "/debug/doc" => "/debug/doc?id=0".to_owned(),
            "/query" => "/query?metric=webcache_serve_passes_total&last=8".to_owned(),
            _ => path.to_owned(),
        };
        let (status, head, body) = http_get_full(addr, &probe);
        assert_eq!(status, 200, "{probe}: {body}");
        assert!(
            head.contains("Cache-Control: no-store"),
            "{probe} must not be cacheable: {head}"
        );
        let expected_type = match path {
            "/metrics" => "text/plain",
            "/dash" => "text/html",
            _ => "application/json",
        };
        assert!(
            head.contains(&format!("Content-Type: {expected_type}")),
            "{probe} content type: {head}"
        );
    }
    for unknown in ["/nope", "/debug", "/debug/flightier"] {
        let (status, _) = http_get(addr, unknown);
        assert_eq!(status, 404, "{unknown} should not route");
    }

    // /metrics carries the build-info gauge and the regret families.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("webcache_build_info{")
            && metrics.contains(env!("CARGO_PKG_VERSION"))
            && metrics.contains("features=\"default\""),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_regret_wasted_evictions_total{doc_type=\"HTML\"}"),
        "{metrics}"
    );

    // /debug/flight is valid JSON holding eviction records with their
    // policy reason payloads.
    let (status, flight) = http_get(addr, "/debug/flight");
    assert_eq!(status, 200);
    let parsed = webcache_obs::json::parse(&flight).expect("flight parses");
    assert!(parsed.get("records").is_some(), "{flight}");
    assert!(flight.contains("\"total\": "), "{flight}");
    assert!(flight.contains("\"event\": \"evict\""), "{flight}");
    assert!(flight.contains("greedy_dual"), "{flight}");

    // /debug/doc narrows to one document; a missing or junk id is a 400.
    let (status, doc) = http_get(addr, "/debug/doc?id=0");
    assert_eq!(status, 200);
    webcache_obs::json::parse(&doc).expect("doc parses");
    assert!(doc.starts_with("{\"doc\": 0, "), "{doc}");
    assert!(doc.contains("\"records\": ["), "{doc}");
    for bad in ["/debug/doc", "/debug/doc?id=junk", "/debug/doc?doc=0"] {
        let (status, _) = http_get(addr, bad);
        assert_eq!(status, 400, "{bad} should reject");
    }

    // /query serves the trailing window of any registered metric from
    // the per-pass snapshot ring.
    let (status, q) = http_get(addr, "/query?metric=webcache_serve_passes_total");
    assert_eq!(status, 200, "{q}");
    let parsed = webcache_obs::json::parse(&q).expect("query parses");
    assert_eq!(
        parsed.get("metric").and_then(|v| v.as_str()),
        Some("webcache_serve_passes_total"),
        "{q}"
    );
    let points = parsed.get("points").and_then(|v| v.as_array());
    assert!(points.is_some_and(|p| !p.is_empty()), "{q}");
    // Histograms flatten to <name>_count / <name>_sum samples.
    let (status, _) = http_get(addr, "/query?metric=webcache_shard_lock_wait_us_count");
    assert_eq!(status, 200);
    for (bad, want) in [
        ("/query", 400),
        ("/query?metric=", 400),
        ("/query?metric=webcache_serve_passes_total&last=0", 400),
        ("/query?metric=webcache_serve_passes_total&last=lots", 400),
        ("/query?metric=no_such_metric", 404),
    ] {
        let (status, body) = http_get(addr, bad);
        assert_eq!(status, want, "{bad}: {body}");
    }

    // /dash is a self-contained HTML page with inline-SVG sparklines.
    let (status, dash) = http_get(addr, "/dash");
    assert_eq!(status, 200);
    assert!(dash.starts_with("<!doctype html>"), "{dash}");
    assert!(dash.contains("webcache live dashboard"), "{dash}");
    assert!(dash.contains("<svg"), "{dash}");
    assert!(dash.contains("Modeled latency p99"), "{dash}");

    SHUTDOWN.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread");

    // Exactly one bundle, despite several detectors firing on window 2:
    // --max-bundles 1 caps the trigger.
    let bundles: Vec<PathBuf> = fs::read_dir(&bundle_dir)
        .expect("bundle dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("bundle-"))
        })
        .collect();
    assert_eq!(bundles.len(), 1, "expected exactly one bundle: {bundles:?}");
    let bundle = &bundles[0];

    // The bundle's JSONL parses back into eviction records with reasons.
    let jsonl = fs::read_to_string(bundle.join("flight.jsonl")).unwrap();
    let records = webcache_obs::FlightRecorder::parse_jsonl(&jsonl).expect("jsonl parses");
    assert!(
        records
            .iter()
            .any(|r| r.event == webcache_obs::EventKind::Evict
                && r.reason.kind != webcache_obs::ReasonKind::None),
        "no eviction record with a reason payload in the bundle"
    );
    webcache_obs::json::parse(&fs::read_to_string(bundle.join("registry.json")).unwrap())
        .expect("registry.json parses");
    webcache_obs::json::parse(&fs::read_to_string(bundle.join("manifest.json")).unwrap())
        .expect("manifest.json parses");

    // `webcache inspect` over the bundle reports the forensics.
    let report = webcache_cli::run(&argv(&format!("inspect --bundle {}", bundle.display())))
        .expect("inspect succeeds");
    for needle in [
        "with a policy reason payload)",
        "greedy_dual",
        "wasted evictions",
        "eviction age",
        "reuse distance at eviction",
        "top regret documents",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    assert!(
        !report.contains("(no wasted evictions in the record window)"),
        "hot-set churn must register as wasted evictions:\n{report}"
    );

    fs::remove_file(trace_path).ok();
    let _ = fs::remove_dir_all(&bundle_dir);
}

#[test]
fn sharded_daemon_exports_per_shard_balance_metrics() {
    let args = Args::parse(
        &argv(
            "--workload dfn --quick --passes 2 --port 0 --log-level error --shards 4 --clients 4 \
             --policy gds1",
        ),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        serve_with(opts, &SHUTDOWN, move |addr| tx.send(addr).unwrap()).unwrap()
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("ready");

    let health = await_replay_done(addr, Duration::from_secs(60));
    assert!(health.contains("\"passes\": 2"), "{health}");

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for shard in 0..4 {
        assert!(
            metrics.contains(&format!(
                "webcache_serve_shard_requests_total{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} requests: {metrics}"
        );
        assert!(
            metrics.contains(&format!(
                "webcache_serve_shard_hit_rate{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} hit rate: {metrics}"
        );
    }
    assert!(
        metrics.contains("webcache_serve_shard_request_imbalance"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_serve_passes_total 2"),
        "{metrics}"
    );
    // Lock contention instrumentation: every shard's probe saw real
    // acquisitions, and the derived contention-ratio gauge exports.
    for shard in 0..4 {
        let acquire = sample(
            &metrics,
            &format!("webcache_shard_lock_acquire_total{{shard=\"{shard}\"}}"),
        );
        assert!(acquire > 0.0, "shard {shard} never locked");
        assert!(
            metrics.contains(&format!(
                "webcache_shard_lock_wait_us_count{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} wait histogram: {metrics}"
        );
        assert!(
            metrics.contains(&format!(
                "webcache_shard_lock_contention_ratio{{shard=\"{shard}\"}}"
            )),
            "missing shard {shard} contention ratio: {metrics}"
        );
    }
    // The latency observer rides the concurrent factory too: per-type
    // p50/p99 modeled-latency gauges export under WorkloadStream load.
    for needle in [
        "webcache_modeled_latency_us{doc_type=\"overall\",quantile=\"p50\"}",
        "webcache_modeled_latency_us{doc_type=\"overall\",quantile=\"p99\"}",
        "webcache_modeled_latency_us{doc_type=\"HTML\",quantile=\"p99\"}",
        "webcache_modeled_latency_us{doc_type=\"Images\",quantile=\"p99\"}",
    ] {
        assert!(metrics.contains(needle), "missing {needle}: {metrics}");
    }

    // `webcache top --once` renders one frame from /snapshot.
    let frame = webcache_cli::run(&argv(&format!("top --once --port {}", addr.port())))
        .expect("top --once succeeds");
    assert!(frame.contains("webcache top"), "{frame}");
    assert!(frame.contains("modeled latency"), "{frame}");
    assert!(frame.contains("shard 3"), "{frame}");

    // The concurrent engine records flight events too, one ring per
    // shard with that shard's policy reasons: /debug/flight merges all
    // four rings.
    let (status, flight) = http_get(addr, "/debug/flight");
    assert_eq!(status, 200);
    let parsed = webcache_obs::json::parse(&flight).expect("flight parses");
    assert!(parsed.get("records").is_some(), "{flight}");
    assert!(flight.contains("\"shards\": 4"), "{flight}");
    assert!(flight.contains("\"event\": "), "{flight}");
    assert!(flight.contains("\"kind\": \"greedy_dual\""), "{flight}");
    // Every shard actually received traffic on a realistic workload.
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("webcache_serve_shard_requests_total{") {
            let value: f64 = rest
                .split_whitespace()
                .next_back()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            assert!(value > 0.0, "idle shard: {line}");
        }
    }

    SHUTDOWN.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread");
}

#[test]
fn workload_mode_replays_the_endless_generator() {
    const PASSES: usize = 3;
    let log_path = temp_path("workload.log");
    fs::remove_file(&log_path).ok();
    let args = Args::parse(
        &argv(&format!(
            "--workload dfn --quick --seed 5 --passes {PASSES} --port 0 --log-level info \
             --log-file {}",
            log_path.display()
        )),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        serve_with(opts, &SHUTDOWN, move |addr| tx.send(addr).unwrap()).unwrap()
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("ready");

    let health = await_replay_done(addr, Duration::from_secs(60));
    assert!(
        health.contains(&format!("\"passes\": {PASSES}")),
        "{health}"
    );

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("webcache_serve_passes_total {PASSES}")),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_http_requests_total{path=\"/healthz\"}"),
        "{metrics}"
    );
    // A plain daemon is a one-shard replay: shard 0 carries every
    // request and takes its lock once per pass.
    assert_eq!(
        sample(&metrics, "webcache_serve_shard_requests_total{shard=\"0\"}"),
        sample(&metrics, "webcache_serve_requests_total"),
    );
    assert_eq!(
        sample(&metrics, "webcache_shard_lock_acquire_total{shard=\"0\"}"),
        PASSES as f64
    );

    SHUTDOWN.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread");

    // Pass k replays epoch k of the stream, in order: a bare replay of a
    // fresh stream with the same seed, capacity (5% of epoch 0) and
    // warm-up gives every pass's hit rate, bit for bit.
    let mut stream = WorkloadStream::new(WorkloadProfile::dfn().scaled(1.0 / 4096.0), 5);
    let per_pass = stream.epoch_len();
    let epochs: Vec<Trace> = (0..PASSES).map(|_| stream.take_trace(per_pass)).collect();
    let config = SimulationConfig::builder()
        .capacity(CapacitySpec::FractionOfTrace(0.05).resolve(epochs[0].overall_size()))
        .warmup_fraction(0.10)
        .build();
    let want: Vec<u64> = epochs
        .iter()
        .map(|epoch| {
            let report =
                Simulator::from_spec(PolicyKind::Lru, config).run_dense(&DenseTrace::build(epoch));
            report.overall().hit_rate().to_bits()
        })
        .collect();
    let log = fs::read_to_string(&log_path).unwrap();
    let got: Vec<u64> = log
        .lines()
        .map(|line| webcache_obs::json::parse(line).expect("log record parses"))
        .filter(|record| record.get("msg").and_then(|m| m.as_str()) == Some("pass complete"))
        .map(|record| {
            record
                .get("hit_rate")
                .and_then(|v| v.as_f64())
                .expect("hit_rate")
                .to_bits()
        })
        .collect();
    assert_eq!(got, want, "{log}");
    fs::remove_file(log_path).ok();
}

#[test]
fn unbounded_workload_daemon_shuts_down_promptly() {
    let args = Args::parse(
        &argv("--workload dfn --quick --port 0 --log-level error"),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let summary = serve_with(opts, &SHUTDOWN, move |addr| ready_tx.send(addr).unwrap());
        done_tx.send(()).unwrap();
        summary.unwrap()
    });
    let addr = ready_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("ready");

    let started = Instant::now();
    loop {
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        if !body.contains("\"passes\": 0,") && !body.contains("\"passes\": 1,") {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no second pass: {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The producer is blocked handing over the next epoch (or building
    // it); raising the flag must still end serve_with.
    SHUTDOWN.store(true, Ordering::SeqCst);
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_with returned within 10 s of the flag");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.contains("passes"), "{summary}");
}

/// All-cold traffic: every request misses, so the hit rate is flat at
/// zero from the first window (no cliff — the anomaly detectors stay
/// quiet) while any hit-rate SLO burns hot in both windows.
fn cold_trace() -> Trace {
    (0..1200u64)
        .map(|i| {
            Request::new(
                Timestamp::from_millis(i),
                DocId::new(i),
                DocumentType::Html,
                ByteSize::new(900),
            )
        })
        .collect()
}

#[test]
fn sustained_slo_breach_writes_exactly_one_burn_bundle() {
    let trace_path = temp_path("slo.wctb");
    let log_path = temp_path("slo.log");
    let bundle_dir = temp_path("slo-bundles");
    fs::write(
        &trace_path,
        webcache_trace::format_bin::to_bytes(&cold_trace()),
    )
    .unwrap();
    fs::remove_file(&log_path).ok();
    let _ = fs::remove_dir_all(&bundle_dir);

    // 0% hit rate against a 90% floor burns at 10x in both windows from
    // pass 1 on. The alert is edge-triggered, so three breaching passes
    // under a generous --max-bundles still produce exactly one bundle.
    let args = Args::parse(
        &argv(&format!(
            "--trace {} --policy lru --capacity 4MiB --warmup 0 --passes 3 --port 0 \
             --log-level warn --log-file {} --slo-hit-rate 0.9 --slo-window 4 \
             --bundle-dir {} --max-bundles 4",
            trace_path.display(),
            log_path.display(),
            bundle_dir.display()
        )),
        &["quick"],
    )
    .unwrap();
    let opts = ServeOptions::from_args(&args).unwrap();

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        serve_with(opts, &SHUTDOWN, move |addr| tx.send(addr).unwrap()).unwrap()
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("ready");
    let health = await_replay_done(addr, Duration::from_secs(30));
    assert!(health.contains("\"passes\": 3"), "{health}");

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("webcache_slo_burn_rate{slo=\"hit_rate\",window=\"short\"} 10"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_slo_burn_rate{slo=\"hit_rate\",window=\"long\"} 10"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webcache_slo_breach_total{slo=\"hit_rate\"} 1"),
        "{metrics}"
    );
    // No latency SLO configured: its burn-rate family is absent.
    assert!(!metrics.contains("slo=\"latency_p99\""), "{metrics}");
    // The latency observer publishes regardless of SLO configuration;
    // all-miss traffic pins p50 at origin-link latencies (>100ms).
    let p50 = metrics
        .lines()
        .find(|l| {
            l.starts_with("webcache_modeled_latency_us{doc_type=\"overall\",quantile=\"p50\"}")
        })
        .expect("overall p50 gauge");
    let p50_us: f64 = p50.split_whitespace().next_back().unwrap().parse().unwrap();
    assert!(p50_us > 100_000.0, "{p50}");

    SHUTDOWN.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread");

    // Exactly one bundle, and it is the SLO trigger's (the anomaly
    // detectors had nothing to say about uniformly cold traffic).
    let bundles: Vec<PathBuf> = fs::read_dir(&bundle_dir)
        .expect("bundle dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("bundle-"))
        })
        .collect();
    assert_eq!(bundles.len(), 1, "expected exactly one bundle: {bundles:?}");
    let name = bundles[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    assert!(name.contains("slo_hit_rate_burn"), "{name}");
    let manifest = fs::read_to_string(bundles[0].join("manifest.json")).unwrap();
    assert!(manifest.contains("slo_hit_rate_burn"), "{manifest}");

    // Exactly one "slo breach" warn record (edge-triggered alerting).
    let log = fs::read_to_string(&log_path).unwrap();
    let warns: Vec<&str> = log.lines().filter(|l| l.contains("slo breach")).collect();
    assert_eq!(warns.len(), 1, "one breach warn expected: {log}");
    assert!(warns[0].contains("\"slo\":\"hit_rate\""), "{log}");

    fs::remove_file(trace_path).ok();
    fs::remove_file(log_path).ok();
    let _ = fs::remove_dir_all(&bundle_dir);
}

#[test]
fn serve_usage_errors() {
    for bad in [
        "",                                   // no source
        "--trace a.wct --workload dfn",       // both sources
        "--workload mars",                    // unknown profile
        "--workload dfn --log-level loud",    // unknown level
        "--workload dfn --warmup 1.5",        // warmup out of range
        "--workload dfn --rate 0",            // non-positive rate
        "--workload dfn --rate nan",          // parses as f64 but is useless
        "--workload dfn --rate inf",          // likewise
        "--workload dfn --rate -3",           // negative
        "--workload dfn --rate fast",         // non-numeric
        "--workload dfn --anomaly-window 0",  // empty window
        "--workload dfn --shards 0",          // zero shards
        "--workload dfn --shards 6",          // not a power of two
        "--workload dfn --shards four",       // non-numeric
        "--workload dfn --clients 0",         // zero clients
        "--workload dfn --clients many",      // non-numeric
        "--workload dfn --flight-capacity 0", // empty flight ring
        "--workload dfn --max-bundles 0",     // bundle cap below 1
        "--workload dfn --max-bundles eight", // non-numeric
        "--workload dfn --slo-hit-rate 0",    // floor must be > 0
        "--workload dfn --slo-hit-rate 1",    // and < 1
        "--workload dfn --slo-hit-rate nan",  // parses as f64 but useless
        "--workload dfn --slo-hit-rate high", // non-numeric
        "--workload dfn --slo-p99-ms 0",      // budget must be positive
        "--workload dfn --slo-p99-ms -4",     // negative
        "--workload dfn --slo-p99-ms inf",    // non-finite
        "--workload dfn --slo-window 0",      // empty burn window
        "--workload dfn --slo-burn 0",        // non-positive threshold
        "--workload dfn --slo-burn nan",      // non-finite threshold
        "--workload dfn --dash-history 0",    // empty snapshot ring
        "--workload dfn --dash-history deep", // non-numeric
        "--workload dfn --scale 0.5",         // denominator below 1
        "--workload dfn --scale nan",         // parses as f64 but useless
        "--workload dfn --scale inf",         // likewise
    ] {
        let args = Args::parse(&argv(bad), &["quick"]).unwrap();
        assert!(
            ServeOptions::from_args(&args).is_err(),
            "`{bad}` should fail"
        );
    }
    // `Args::parse` accepts any value flag; `from_args` names the one
    // serve does not read.
    let args = Args::parse(&argv("--workload dfn --capactiy 1%"), &["quick"]).unwrap();
    let err = ServeOptions::from_args(&args).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(msg) if msg.contains("`--capactiy`")),
        "{err:?}"
    );
}
