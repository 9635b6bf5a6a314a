//! Hot-path throughput harness: hashed vs dense replay, per policy, with
//! a noise-immune paired regression gate.
//!
//! Replays the scaled DFN workload through the simulator paths and
//! reports requests per second, writing the results to a JSON file
//! (`BENCH_hotpath.json` by default) so regressions are visible in
//! review diffs. Columns:
//!
//! * `hashed`   — the sparse, hash-per-request replay.
//! * `dense`    — the dense replay (`run_dense`; its no-op observer IS
//!   the `dense` column).
//! * `instr-off` — dense replay through
//!   [`PolicyKind::build_instrumented`] with the unit sink `()`: the
//!   generic-instrumentation construction path with instrumentation
//!   compiled away. Must sit within noise of `dense` — that is the
//!   zero-cost claim of the observability layer.
//! * `windowed` — dense replay with a [`WindowedMetrics`] observer
//!   attached, putting a number on what observability costs when used.
//! * `recorder` — dense replay through the [`FlightSink`]-instrumented
//!   build with a [`FlightObserver`] attached (ring of 4096 decision
//!   records, reason channel drained per event): what the flight
//!   recorder costs when switched ON. The paired `recorder_overhead`
//!   column (median of `t_recorder / t_serial`) is the honest price;
//!   the recorder-OFF price is the `instr-off` column, which the
//!   `--check-regress` gate holds to the `dense` baseline.
//! * `latency-obs` — dense replay with a [`LatencyObserver`] attached
//!   (two-link latency model driven per request, log2-bucket windowed
//!   histograms): the serve daemon's tail-latency instrumentation
//!   switched ON. The paired `latency_obs_overhead` column (median of
//!   `t_latency / t_serial`) prices it; observer-OFF stays the `dense`
//!   column, which the gate holds to baseline.
//! * `conc1/2/4/8` — the concurrent sharded replay
//!   ([`ConcurrentSimulator`], 8 shards) driven by 1/2/4/8 clients
//!   (client 0 on the timing thread), aggregate req/s. The paired `conc8_speedup` column
//!   (median of `t_serial / t_conc8`) is the multi-thread scaling
//!   number; it is bounded by the host's core count, which is recorded
//!   in the JSON (`cores`) — a single-core container cannot show the
//!   8-core 4x bar, so the gate scales its expectation (see
//!   `conc8_bar`).
//!
//! # Paired measurement
//!
//! Every iteration interleaves, back to back in-process: a fixed
//! xorshift *anchor* spin (pure integer work, identical every run), the
//! serial dense replay, and the concurrent replays. From each iteration
//! we take ratios, not absolute times:
//!
//! * `dense_norm` / `conc8_norm` — median of `t_anchor / t_replay`,
//!   i.e. throughput in units of "anchor spins per replay". The anchor
//!   runs in the same iteration, so a slow container slows numerator
//!   and denominator together.
//! * `conc8_speedup` — median over iterations of `t_serial / t_conc8`
//!   (paired: both legs saw the same machine conditions, so
//!   CPU-frequency drift and co-tenant load cancel).
//!
//! An earlier version of `--check-regress` compared absolute dense
//! req/s against the committed JSON. That was abandoned: on a loaded
//! container the same binary on the same tree varied by well over the
//! tolerance between runs, so the gate failed on an *unmodified* seed
//! tree — a gate that cries wolf is worse than no gate. The check now
//! compares the anchor-normalized medians (`dense_norm`, plus
//! `conc8_norm` against a baseline recorded on the same core count),
//! which are stable under machine-wide slowdowns; baselines that
//! predate the paired columns are skipped with a notice rather than
//! failed.
//!
//! ```text
//! hotpath [--scale DENOM] [--seed SEED] [--iters N] [--out PATH] [--quick]
//!         [--check-regress] [--tolerance FRAC]
//!
//! --scale DENOM     run at 1/DENOM of the full trace size (default 256)
//! --seed SEED       generator seed (default 20020623)
//! --iters N         timed repetitions per cell; rps columns keep the best,
//!                   paired columns the median (default 9)
//! --out PATH        output JSON path (default BENCH_hotpath.json)
//! --quick           CI mode: same trace, 5 iterations instead of 9, and no
//!                   JSON written unless --out is given explicitly
//! --check-regress   before writing, compare the paired normalized columns
//!                   against the committed BENCH_hotpath.json; exit
//!                   non-zero (and leave the file untouched) if the
//!                   geometric mean over all policies regressed beyond the
//!                   tolerance, or any single cell beyond 4x the tolerance;
//!                   also enforce GD*(P) conc8 >= the core-scaled
//!                   concurrency bar
//! --tolerance FRAC  allowed relative regression of the paired-ratio
//!                   geometric mean for --check-regress (default 0.05);
//!                   individual cells get 4x this slack
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use webcache_bench::{dfn_trace, SEED_DEFAULT};
use webcache_core::PolicyKind;
use webcache_obs::{FlightSink, ReasonChannel, SharedRecorder};
use webcache_sim::latency_obs::DEFAULT_LATENCY_WINDOWS;
use webcache_sim::{
    ConcurrentSimulator, FlightObserver, LatencyModel, LatencyObserver, ShardedTrace,
    SimulationConfig, Simulator, WindowedMetrics,
};
use webcache_trace::{ByteSize, DenseTrace, Trace};

/// Seed-commit GD*(P) throughput (requests/s) on this harness's default
/// workload, recorded before the hash-free hot path landed. The issue's
/// acceptance bar was 2x this number on the dense path.
const SEED_BASELINE_GDSTAR_PACKET_RPS: u64 = 1_968_196;

/// Anchor spin steps per trace request: enough integer work that the
/// anchor is measured over milliseconds, small enough to keep the
/// harness fast.
const ANCHOR_STEPS_PER_REQUEST: u64 = 16;

/// Shard count of the concurrent columns (the issue's acceptance
/// configuration: 8 clients over 8 shards).
const CONC_SHARDS: usize = 8;

/// Flight-recorder ring capacity of the `recorder` column — the serve
/// daemon's default (`--flight-capacity`).
const RECORDER_CAPACITY: usize = 4096;

/// Client-thread counts of the concurrent columns.
const CONC_CLIENTS: [usize; 4] = [1, 2, 4, 8];

struct Cell {
    label: String,
    hashed_rps: f64,
    dense_rps: f64,
    instr_off_rps: f64,
    windowed_rps: f64,
    /// Dense replay with the flight recorder ON (instrumented sink +
    /// observer + ring).
    recorder_rps: f64,
    /// Median over iterations of paired `t_recorder / t_serial`: the
    /// relative cost of switching the flight recorder on.
    recorder_overhead: f64,
    /// Median over iterations of `t_anchor / t_recorder`.
    recorder_norm: f64,
    /// Dense replay with the latency observer ON (two-link model +
    /// windowed percentile histograms per document type).
    latency_obs_rps: f64,
    /// Median over iterations of paired `t_latency / t_serial`: the
    /// relative cost of switching the latency observer on.
    latency_obs_overhead: f64,
    /// Median over iterations of `t_anchor / t_serial`.
    dense_norm: f64,
    /// Concurrent sharded replay req/s, one per [`CONC_CLIENTS`] entry,
    /// at [`CONC_SHARDS`] shards.
    conc_rps: [f64; CONC_CLIENTS.len()],
    /// Median over iterations of paired `t_serial / t_conc8`: aggregate
    /// speedup of the 8-client sharded replay over the single-thread
    /// dense replay. Bounded by available hardware parallelism.
    conc8_speedup: f64,
    /// Median over iterations of `t_anchor / t_conc8`.
    conc8_norm: f64,
}

fn main() -> ExitCode {
    let mut scale: Option<f64> = None;
    let mut seed = SEED_DEFAULT;
    let mut iters: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut check_regress = false;
    let mut tolerance = 0.05;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(denom) if denom.is_finite() && denom >= 1.0 => scale = Some(1.0 / denom),
                _ => return usage("--scale expects a finite denominator >= 1"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--iters" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => iters = Some(n),
                _ => return usage("--iters expects a positive integer"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage("--out expects a path"),
            },
            "--quick" => quick = true,
            "--check-regress" => check_regress = true,
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => return usage("--tolerance expects a fraction in [0, 1)"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Quick mode keeps the full trace scale: the paired normalized
    // columns depend on the workload (hit ratio, eviction mix), so a
    // smaller quick trace could not be compared against the committed
    // full-scale baseline. Quickness comes from fewer iterations.
    let scale = scale.unwrap_or(1.0 / 256.0);
    // Paired columns are medians; odd sample counts give a clean one.
    // A full replay is ~3ms, so samples are cheap even in quick mode.
    let iters = iters.unwrap_or(if quick { 5 } else { 9 });
    // Quick mode is a smoke test: never overwrite the recorded baseline
    // unless a path is asked for explicitly.
    let out = match (out, quick) {
        (Some(path), _) => Some(path),
        (None, true) => None,
        (None, false) => Some(String::from("BENCH_hotpath.json")),
    };

    let trace = dfn_trace(scale, seed);
    let dense = DenseTrace::build(&trace);
    // The shard split is a fixed function of (trace, shard count) —
    // built once, outside every timed region, exactly as a server
    // resolves routing at startup.
    let sharded = ShardedTrace::build(&dense, CONC_SHARDS).expect("power-of-two shard count");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05) as u64);
    eprintln!(
        "# {} requests, {} distinct documents, capacity {} bytes, best of {iters}, \
         {cores} core(s), {CONC_SHARDS} shards",
        trace.len(),
        dense.distinct_documents(),
        capacity.as_u64()
    );

    let mut cells = Vec::new();
    println!(
        "{:<10} {:>14} {:>14} {:>16} {:>15} {:>15} {:>14} {:>9} {:>9}",
        "policy",
        "hashed req/s",
        "dense req/s",
        "instr-off req/s",
        "windowed req/s",
        "recorder req/s",
        "lat-obs req/s",
        "rec-cost",
        "lat-cost"
    );
    for kind in PolicyKind::ALL {
        let cell = measure(kind, &trace, &dense, &sharded, capacity, iters);
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>16.0} {:>15.0} {:>15.0} {:>14.0} {:>8.2}x {:>8.2}x",
            cell.label,
            cell.hashed_rps,
            cell.dense_rps,
            cell.instr_off_rps,
            cell.windowed_rps,
            cell.recorder_rps,
            cell.latency_obs_rps,
            cell.recorder_overhead,
            cell.latency_obs_overhead
        );
        cells.push(cell);
    }

    println!(
        "\n{:<10} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "policy", "conc1 req/s", "conc2 req/s", "conc4 req/s", "conc8 req/s", "conc8-paired"
    );
    for cell in &cells {
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>11.2}x",
            cell.label,
            cell.conc_rps[0],
            cell.conc_rps[1],
            cell.conc_rps[2],
            cell.conc_rps[3],
            cell.conc8_speedup
        );
    }

    if let Some(gdsp) = cells.iter().find(|c| c.label == "GD*(P)") {
        eprintln!(
            "# GD*(P): dense {:.0} req/s = {:.1}x the seed hashed baseline \
             ({SEED_BASELINE_GDSTAR_PACKET_RPS} req/s)",
            gdsp.dense_rps,
            gdsp.dense_rps / SEED_BASELINE_GDSTAR_PACKET_RPS as f64,
        );
        eprintln!(
            "# GD*(P): 8-client/{CONC_SHARDS}-shard {:.0} req/s = {:.2}x single-thread \
             dense (paired); acceptance bar 4x applies on hosts with >= 8 cores, this \
             host has {cores} — scaled bar {:.2}x",
            gdsp.conc_rps[3],
            gdsp.conc8_speedup,
            conc8_bar(cores),
        );
    }

    if check_regress {
        // Always the committed file: `--out` names only the fresh run.
        let baseline_path = "BENCH_hotpath.json";
        let mut verdict = check_against_baseline(&cells, baseline_path, tolerance, trace.len())
            .and_then(|()| check_conc8_bar(&cells, cores));
        if let Err(msg) = &verdict {
            // A co-tenant burst lasting longer than one cell's measurement
            // window defeats both the anchor (ALU-bound, blind to memory
            // contention) and the median. Such bursts do not reproduce;
            // real regressions do — so one full re-measurement separates
            // them.
            eprintln!("# check-regress: failed ({msg}); re-measuring once to rule out a burst");
            cells.clear();
            for kind in PolicyKind::ALL {
                cells.push(measure(kind, &trace, &dense, &sharded, capacity, iters));
            }
            verdict = check_against_baseline(&cells, baseline_path, tolerance, trace.len())
                .and_then(|()| check_conc8_bar(&cells, cores));
        }
        match verdict {
            Ok(()) => eprintln!(
                "# no paired-column regression beyond {:.0}% vs {baseline_path}",
                tolerance * 100.0
            ),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    match out {
        Some(out) => {
            let json = render_json(&cells, &trace, scale, seed, iters, cores);
            if let Err(e) = std::fs::write(&out, json) {
                eprintln!("error: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("# wrote {out}");
        }
        None => eprintln!("# quick mode: no JSON written"),
    }
    ExitCode::SUCCESS
}

/// Fixed xorshift64 spin: pure, deterministic integer work used as the
/// in-iteration time anchor. Identical on every run of the same
/// workload, so `t_anchor / t_replay` depends only on the binary, not
/// on the machine's momentary load.
fn anchor_spin(steps: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The scaled acceptance bar for the paired `conc8_speedup` of GD*(P):
/// 4x on hosts with the 8 cores the 8-client configuration asks for,
/// half the available cores when there are fewer (perfect scaling never
/// happens; half is comfortably below the measured ~0.8x/core), and on
/// a single core — where client threads merely take turns — parity
/// minus the thread-handoff overhead.
fn conc8_bar(cores: usize) -> f64 {
    match cores.min(CONC_SHARDS) {
        1 => 0.70,
        n => (n as f64 / 2.0).max(1.0),
    }
}

/// The explicit absolute expectation on the paired speedup column:
/// GD*(P) `conc8_speedup` ≥ [`conc8_bar`] for this host's core count —
/// on an 8-core host that is the issue's 4x acceptance bar.
fn check_conc8_bar(cells: &[Cell], cores: usize) -> Result<(), String> {
    let bar = conc8_bar(cores);
    match cells.iter().find(|c| c.label == "GD*(P)") {
        Some(gdsp) if gdsp.conc8_speedup < bar => Err(format!(
            "GD*(P): conc8_speedup {:.3} below the {cores}-core bar {bar:.2}",
            gdsp.conc8_speedup
        )),
        _ => {
            eprintln!("# speedup bar: GD*(P) conc8 at or above {bar:.2}");
            Ok(())
        }
    }
}

fn measure(
    kind: PolicyKind,
    trace: &Trace,
    dense: &DenseTrace,
    sharded: &ShardedTrace,
    capacity: ByteSize,
    iters: usize,
) -> Cell {
    let requests = trace.len() as f64;
    let config = SimulationConfig::builder().capacity(capacity).build();
    // Fifty windows over the measured region, like a plotting client.
    let window = ((trace.len() as u64) / 50).max(1);
    let anchor_steps = (trace.len() as u64).max(1) * ANCHOR_STEPS_PER_REQUEST;
    let mut best_hashed = f64::INFINITY;
    let mut best_dense = f64::INFINITY;
    let mut best_instr_off = f64::INFINITY;
    let mut best_windowed = f64::INFINITY;
    let mut best_latency_obs = f64::INFINITY;
    let mut best_recorder = f64::INFINITY;
    let mut latency_obs_overheads = Vec::with_capacity(iters);
    let mut recorder_overheads = Vec::with_capacity(iters);
    let mut recorder_norms = Vec::with_capacity(iters);
    let mut dense_norms = Vec::with_capacity(iters);
    let mut best_conc = [f64::INFINITY; CONC_CLIENTS.len()];
    let mut conc8_speedups = Vec::with_capacity(iters);
    let mut conc8_norms = Vec::with_capacity(iters);
    // Untimed warm-up: pages in the trace arrays, ramps the CPU out of
    // its idle frequency state and warms the branch predictors. Without
    // it the first timed iteration of the first policy is consistently
    // 10-25% slow, which a short median cannot reject.
    std::hint::black_box(anchor_spin(anchor_steps));
    std::hint::black_box(Simulator::new(kind.build(), config).run_dense(dense));
    std::hint::black_box(ConcurrentSimulator::new(kind, config).run_sharded(
        dense,
        sharded,
        CONC_SHARDS,
    ));
    for _ in 0..iters {
        // The anchor and the serial replay run back to back so both
        // legs see the same machine conditions.
        let start = Instant::now();
        std::hint::black_box(anchor_spin(anchor_steps));
        let t_anchor = start.elapsed().as_secs_f64();

        let start = Instant::now();
        std::hint::black_box(Simulator::new(kind.build(), config).run_dense(dense));
        let t_serial = start.elapsed().as_secs_f64();
        best_dense = best_dense.min(t_serial);
        dense_norms.push(t_anchor / t_serial);

        // The concurrent legs stay inside the paired iteration so
        // `t_serial / t_conc8` compares legs that saw the same machine
        // conditions.
        for (slot, &clients) in CONC_CLIENTS.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(
                ConcurrentSimulator::new(kind, config).run_sharded(dense, sharded, clients),
            );
            let t_conc = start.elapsed().as_secs_f64();
            best_conc[slot] = best_conc[slot].min(t_conc);
            if clients == 8 {
                conc8_speedups.push(t_serial / t_conc);
                conc8_norms.push(t_anchor / t_conc);
            }
        }

        let start = Instant::now();
        std::hint::black_box(Simulator::new(kind.build(), config).run_hashed(trace));
        best_hashed = best_hashed.min(start.elapsed().as_secs_f64());

        // The unit-sink instrumented build: same dense replay through the
        // explicit generic construction path. Within noise of `dense` or
        // the instrumentation is not free.
        let start = Instant::now();
        std::hint::black_box(Simulator::new(kind.build_instrumented(()), config).run_dense(dense));
        best_instr_off = best_instr_off.min(start.elapsed().as_secs_f64());

        let mut metrics = WindowedMetrics::per_requests(window);
        let start = Instant::now();
        std::hint::black_box(
            Simulator::new(kind.build(), config).run_dense_observed(dense, &mut metrics),
        );
        best_windowed = best_windowed.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&metrics);

        // Latency observer ON: the two-link model priced per request
        // into windowed log2-bucket histograms — the serve daemon's
        // tail-latency instrumentation. Paired against `t_serial` from
        // this same iteration.
        let mut latency =
            LatencyObserver::new(LatencyModel::campus_2001(), DEFAULT_LATENCY_WINDOWS);
        let start = Instant::now();
        std::hint::black_box(
            Simulator::new(kind.build(), config).run_dense_observed(dense, &mut latency),
        );
        let t_latency = start.elapsed().as_secs_f64();
        best_latency_obs = best_latency_obs.min(t_latency);
        latency_obs_overheads.push(t_latency / t_serial);
        std::hint::black_box(&latency);

        // Recorder ON: the instrumented build pushes eviction reasons
        // through the sink channel and the flight observer drains them
        // into the ring — the serve daemon's serial-mode hot path.
        let evictions = ReasonChannel::new();
        let mut flight = FlightObserver::with_reasons(
            SharedRecorder::new(RECORDER_CAPACITY),
            evictions.clone(),
            ReasonChannel::new(),
        );
        let start = Instant::now();
        std::hint::black_box(
            Simulator::new(kind.build_instrumented(FlightSink::new(evictions)), config)
                .run_dense_observed(dense, &mut flight),
        );
        let t_recorder = start.elapsed().as_secs_f64();
        best_recorder = best_recorder.min(t_recorder);
        recorder_overheads.push(t_recorder / t_serial);
        recorder_norms.push(t_anchor / t_recorder);
        std::hint::black_box(&flight);
    }
    Cell {
        label: kind.label(),
        hashed_rps: requests / best_hashed,
        dense_rps: requests / best_dense,
        instr_off_rps: requests / best_instr_off,
        windowed_rps: requests / best_windowed,
        latency_obs_rps: requests / best_latency_obs,
        latency_obs_overhead: median(&mut latency_obs_overheads),
        recorder_rps: requests / best_recorder,
        recorder_overhead: median(&mut recorder_overheads),
        recorder_norm: median(&mut recorder_norms),
        dense_norm: median(&mut dense_norms),
        conc_rps: std::array::from_fn(|i| requests / best_conc[i]),
        conc8_speedup: median(&mut conc8_speedups),
        conc8_norm: median(&mut conc8_norms),
    }
}

/// Compares the freshly measured paired normalized columns against the
/// committed JSON at `path`, failing on any policy whose `dense_norm`
/// (or `conc8_norm`, against a baseline recorded on the same core
/// count) fell by more than `tolerance` (relative).
///
/// Baseline entries that predate the paired columns (no `dense_norm`)
/// are skipped with a notice, so the gate is a no-op until a paired
/// baseline is committed. A baseline recorded over a different request
/// count is skipped entirely: the normalized columns depend on the
/// workload, so comparing across workloads would only produce noise.
///
/// Two bounds are enforced. The *geometric mean* of all fresh/baseline
/// ratios (every compared norm column, every policy) must stay within
/// `tolerance`: averaging ~26 cells shrinks per-cell timing jitter
/// about five-fold, so the tight bound is trustworthy even on a noisy
/// container, and any broad regression moves it. Each *individual*
/// cell gets a bound of `4 * tolerance` — wide enough for the
/// 10-15% per-cell jitter measured on an idle container, tight enough
/// to catch a single policy falling off a cliff.
fn check_against_baseline(
    cells: &[Cell],
    path: &str,
    tolerance: f64,
    requests: usize,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--check-regress: cannot read baseline {path}: {e}"))?;
    let value = webcache_obs::json::parse(&text)
        .map_err(|e| format!("--check-regress: {path} is not valid JSON: {e}"))?;
    if let Some(base_requests) = value.get("requests").and_then(|v| v.as_f64()) {
        if base_requests as usize != requests {
            eprintln!(
                "# check-regress: baseline covers {} requests, this run {} — \
                 different workloads, nothing to compare (skipped)",
                base_requests as usize, requests
            );
            return Ok(());
        }
    }
    // The conc8 column scales with hardware parallelism, so it is only
    // comparable against a baseline recorded on the same core count.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let conc_comparable = value.get("cores").and_then(|v| v.as_f64()) == Some(cores as f64);
    if !conc_comparable {
        eprintln!(
            "# check-regress: baseline recorded on a different core count — \
             conc8_norm not compared"
        );
    }
    let policies = value
        .get("policies")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("--check-regress: {path} has no `policies` array"))?;
    let cell_tolerance = 4.0 * tolerance;
    let mut failures = Vec::new();
    let mut log_ratio_sum = 0.0;
    let mut ratio_count = 0usize;
    for cell in cells {
        let baseline = policies
            .iter()
            .find(|p| p.get("policy").and_then(|v| v.as_str()) == Some(&cell.label));
        let Some(baseline) = baseline else {
            eprintln!("# check-regress: no baseline for {} (skipped)", cell.label);
            continue;
        };
        let Some(base_dense) = baseline.get("dense_norm").and_then(|v| v.as_f64()) else {
            eprintln!(
                "# check-regress: baseline for {} has no paired columns (skipped)",
                cell.label
            );
            continue;
        };
        let mut columns = vec![("dense_norm", cell.dense_norm, base_dense)];
        if conc_comparable {
            if let Some(base_conc) = baseline.get("conc8_norm").and_then(|v| v.as_f64()) {
                columns.push(("conc8_norm", cell.conc8_norm, base_conc));
            }
        }
        for (what, fresh, base) in columns {
            log_ratio_sum += (fresh / base).ln();
            ratio_count += 1;
            if fresh < base * (1.0 - cell_tolerance) {
                failures.push(format!(
                    "{}: {what} {:.3} is {:.1}% of baseline {:.3}",
                    cell.label,
                    fresh,
                    fresh / base * 100.0,
                    base
                ));
            }
        }
        eprintln!(
            "# check-regress: {:<10} dense_norm {:.1}% of baseline",
            cell.label,
            cell.dense_norm / base_dense * 100.0,
        );
    }
    if ratio_count > 0 {
        let geomean = (log_ratio_sum / ratio_count as f64).exp();
        eprintln!(
            "# check-regress: geometric mean of {ratio_count} paired ratios: {:.1}% \
             of baseline (bound {:.1}%)",
            geomean * 100.0,
            (1.0 - tolerance) * 100.0
        );
        if geomean < 1.0 - tolerance {
            failures.push(format!(
                "geometric mean of paired ratios {:.3} fell below {:.3}",
                geomean,
                1.0 - tolerance
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "paired columns regressed (geomean bound {:.0}%, per-cell bound {:.0}%): {}",
            tolerance * 100.0,
            cell_tolerance * 100.0,
            failures.join("; ")
        ))
    }
}

fn render_json(
    cells: &[Cell],
    trace: &Trace,
    scale: f64,
    seed: u64,
    iters: usize,
    cores: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"workload\": \"dfn\",");
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"requests\": {},", trace.len());
    let _ = writeln!(s, "  \"iters\": {iters},");
    // Concurrent columns depend on hardware parallelism; the recording
    // host's core count makes the conc8 numbers interpretable.
    let _ = writeln!(s, "  \"cores\": {cores},");
    let _ = writeln!(s, "  \"conc_shards\": {CONC_SHARDS},");
    let _ = writeln!(
        s,
        "  \"seed_baseline_rps_gdstar_packet\": {SEED_BASELINE_GDSTAR_PACKET_RPS},"
    );
    s.push_str("  \"policies\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"policy\": \"{}\", \"hashed_rps\": {:.0}, \"dense_rps\": {:.0}, \
             \"instr_off_rps\": {:.0}, \"windowed_rps\": {:.0}, \
             \"recorder_rps\": {:.0}, \"recorder_overhead\": {:.3}, \
             \"recorder_norm\": {:.4}, \
             \"latency_obs_rps\": {:.0}, \"latency_obs_overhead\": {:.3}, \
             \"speedup\": {:.3}, \"dense_norm\": {:.4}, \
             \"conc1_rps\": {:.0}, \"conc2_rps\": {:.0}, \
             \"conc4_rps\": {:.0}, \"conc8_rps\": {:.0}, \"conc8_speedup\": {:.3}, \
             \"conc8_norm\": {:.4}}}{}",
            cell.label,
            cell.hashed_rps,
            cell.dense_rps,
            cell.instr_off_rps,
            cell.windowed_rps,
            cell.recorder_rps,
            cell.recorder_overhead,
            cell.recorder_norm,
            cell.latency_obs_rps,
            cell.latency_obs_overhead,
            cell.dense_rps / cell.hashed_rps,
            cell.dense_norm,
            cell.conc_rps[0],
            cell.conc_rps[1],
            cell.conc_rps[2],
            cell.conc_rps[3],
            cell.conc8_speedup,
            cell.conc8_norm,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "hotpath [--scale DENOM] [--seed SEED] [--iters N] [--out PATH] [--quick]\n\
         \x20       [--check-regress] [--tolerance FRAC]\n\
         \n\
         Times every replacement policy over the scaled DFN workload through\n\
         the hashed, dense and 8-shard concurrent simulator paths (plus the\n\
         unit-sink instrumented build, the dense path with a windowed-metrics\n\
         observer attached, and the flight-recorder-ON path: instrumented\n\
         sink + decision ring) and writes the requests/s comparison to a JSON\n\
         file (default BENCH_hotpath.json). The dense and concurrent replays\n\
         are interleaved with a fixed spin anchor every iteration; the paired\n\
         medians (dense_norm, conc8_norm, conc8_speedup) are immune to\n\
         machine-wide load swings. --quick keeps the same trace but takes\n\
         5 samples instead of 9 and skips the JSON unless --out is given.\n\
         --check-regress compares the normalized paired columns against the\n\
         committed BENCH_hotpath.json first, whatever --out names\n\
         (conc8_norm only when the baseline was recorded on the same core\n\
         count): the geometric mean over all policies must stay within\n\
         --tolerance (default 0.05), each single cell within 4x that."
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
