//! Hot-path throughput harness: hashed vs dense replay, per policy, and
//! a paired regression gate that compares two builds' runs.
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
//!   the recorder-OFF price is the `instr-off` column.
//! * `latency-obs` — dense replay with a [`LatencyObserver`] attached
//!   (two-link latency model driven per request, log2-bucket windowed
//!   histograms): the serve daemon's tail-latency instrumentation
//!   switched ON. The paired `latency_obs_overhead` column (median of
//!   `t_latency / t_serial`) prices it; observer-OFF stays the `dense`
//!   column.
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
//! # Regression gate
//!
//! The gate compares a candidate (*head*) build against its merge base
//! (*base*), both measured on the same host in alternation: pair `N`
//! is `base-N.json` and `head-N.json`, each written by
//! `hotpath --quick --out`, for `N` in `1..=10`. `--check-regress DIR`
//! judges those twenty files and measures nothing itself. Quick runs of
//! one build spread wider than a regression worth catching, so no
//! single run is compared against a recorded file: a cell (one
//! policy's `dense_norm` or `conc8_norm`, compared only when both
//! builds measure it) regresses when the head reads lower in at least
//! 9 of the 10 pairs *and* the median head/base ratio is below 0.90.
//! The geometric mean of every cell's median ratio must stay at or
//! above 0.95, and the median of the head's ten GD*(P)
//! `conc8_speedup` values must reach `conc8_bar`.
//!
//! ```text
//! hotpath [--scale DENOM] [--seed SEED] [--iters N] [--out PATH] [--quick]
//! hotpath --check-regress DIR
//!
//! --scale DENOM        run at 1/DENOM of the full trace size (default 256)
//! --seed SEED          generator seed (default 20020623)
//! --iters N            timed repetitions per cell; rps columns keep the
//!                      best, paired columns the median (default 9)
//! --out PATH           output JSON path (default BENCH_hotpath.json)
//! --quick              CI mode: same trace, 5 iterations instead of 9, and
//!                      no JSON written unless --out is given explicitly
//! --check-regress DIR  judge DIR's base-N.json/head-N.json pairs (N = 1..10)
//!                      and exit 1, naming every failed cell and bound, on
//!                      a regression. Takes no other flag
//! ```
//!
//! A bad command line, including a DIR without ten complete pairs,
//! exits 2.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use webcache_bench::{dfn_trace, SEED_DEFAULT};
use webcache_core::PolicyKind;
use webcache_obs::json::Value;
use webcache_obs::{FlightSink, ReasonChannel, SharedRecorder};
use webcache_sim::latency_obs::DEFAULT_LATENCY_WINDOWS;
use webcache_sim::{
    ConcurrentSimulator, FlightObserver, LatencyModel, LatencyObserver, ShardedTrace,
    SimulationConfig, Simulator, WindowedMetrics,
};
use webcache_trace::{ByteSize, DenseTrace, Trace};

/// Alternating base/head pairs the gate judges.
const GATE_PAIRS: usize = 10;

/// A cell regresses when the head reads lower in at least this many of
/// the [`GATE_PAIRS`] pairs...
const GATE_LOWER_IN: usize = 9;

/// ... and its median head/base ratio is below this.
const GATE_CELL_BOUND: f64 = 0.90;

/// Floor on the geometric mean of every cell's median head/base ratio.
const GATE_GEOMEAN_BOUND: f64 = 0.95;

/// The columns the gate reads from each policy of a run: the two
/// anchor-normalized cells it compares, then the speedup its GD*(P) bar
/// reads.
const GATE_COLUMNS: [&str; 3] = ["dense_norm", "conc8_norm", "conc8_speedup"];

/// Where `conc8_speedup` sits in [`GATE_COLUMNS`].
const SPEEDUP: usize = 2;

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
    let mut gate_dir: Option<String> = None;

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
            "--check-regress" => match args.next() {
                Some(dir) => gate_dir = Some(dir),
                None => return usage("--check-regress expects a directory"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(dir) = gate_dir {
        if std::env::args().len() != 3 {
            return usage("--check-regress DIR takes no other flag");
        }
        return check_regress(Path::new(&dir));
    }
    // Quick mode keeps the full trace scale: the paired normalized
    // columns depend on the workload (hit ratio, eviction mix), so a
    // quick run measures the workload a full run records. Quickness
    // comes from fewer iterations.
    let scale = scale.unwrap_or(1.0 / 256.0);
    // Paired columns are medians; odd sample counts give a clean one.
    // A full replay is ~3ms, so samples are cheap even in quick mode.
    let iters = iters.unwrap_or(if quick { 5 } else { 9 });
    // Quick mode never overwrites the recorded BENCH_hotpath.json unless
    // a path is asked for explicitly.
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
            "# GD*(P): 8-client/{CONC_SHARDS}-shard {:.0} req/s = {:.2}x single-thread \
             dense (paired); acceptance bar 4x applies on hosts with >= 8 cores, this \
             host has {cores} — scaled bar {:.2}x",
            gdsp.conc_rps[3],
            gdsp.conc8_speedup,
            conc8_bar(cores),
        );
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

/// The median; of an even count, the mean of the middle two.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
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

/// What the gate reads from one run's JSON.
struct Run {
    /// The measuring host's core count.
    cores: usize,
    /// Each policy's label and its [`GATE_COLUMNS`] values.
    policies: Vec<(String, [f64; GATE_COLUMNS.len()])>,
}

impl Run {
    fn value(&self, policy: &str, column: usize) -> Option<f64> {
        self.policies
            .iter()
            .find(|(label, _)| label == policy)
            .map(|(_, values)| values[column])
    }
}

/// Reads one `hotpath --out` JSON; every value the gate reads must be a
/// positive finite number.
fn read_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = webcache_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let positive = |v: &Value| v.as_f64().filter(|x| x.is_finite() && *x > 0.0);
    let policy = |p: &Value| {
        let mut values = [0.0; GATE_COLUMNS.len()];
        for (value, column) in values.iter_mut().zip(GATE_COLUMNS) {
            *value = positive(p.get(column)?)?;
        }
        Some((p.get("policy")?.as_str()?.to_string(), values))
    };
    let policies = json
        .get("policies")
        .and_then(Value::as_array)
        .and_then(|policies| policies.iter().map(policy).collect::<Option<Vec<_>>>());
    match (json.get("cores").and_then(positive), policies) {
        (Some(cores), Some(policies)) => Ok(Run {
            cores: cores as usize,
            policies,
        }),
        _ => Err(format!("{}: not a complete hotpath run", path.display())),
    }
}

/// The gate's verdict over `base[i]`/`head[i]` pairs.
struct Verdict {
    /// Cells that both builds measure.
    compared: usize,
    /// Every failed cell and bound, named.
    failures: Vec<String>,
}

/// Judges the head's runs against the base's, pair by pair (see the
/// [module docs](self)), printing each compared cell.
fn judge(base: &[Run], head: &[Run]) -> Verdict {
    let mut failures = Vec::new();
    let mut log_sum = 0.0;
    let mut compared = 0;
    for (policy, _) in &head[0].policies {
        for (column, name) in GATE_COLUMNS.iter().enumerate().take(SPEEDUP) {
            let ratios: Option<Vec<f64>> = base
                .iter()
                .zip(head)
                .map(|(b, h)| Some(h.value(policy, column)? / b.value(policy, column)?))
                .collect();
            let Some(mut ratios) = ratios else {
                continue;
            };
            let lower = ratios.iter().filter(|&&r| r < 1.0).count();
            let ratio = median(&mut ratios);
            eprintln!(
                "# gate: {policy:<10} {name:<10} median head/base {ratio:.3}, lower in {lower} of {}",
                ratios.len()
            );
            log_sum += ratio.ln();
            compared += 1;
            if lower >= GATE_LOWER_IN && ratio < GATE_CELL_BOUND {
                failures.push(format!(
                    "{policy} {name}: lower in {lower} of {} pairs at a median ratio of {ratio:.3} \
                     (bound {GATE_CELL_BOUND:.2} when lower in {GATE_LOWER_IN})",
                    ratios.len()
                ));
            }
        }
    }
    if compared == 0 {
        failures.push("no cell is measured by both builds".to_string());
    } else {
        let geomean = (log_sum / compared as f64).exp();
        eprintln!("# gate: geometric mean of {compared} median ratios {geomean:.3}");
        if geomean < GATE_GEOMEAN_BOUND {
            failures.push(format!(
                "geometric mean of the {compared} median ratios {geomean:.3} is below \
                 {GATE_GEOMEAN_BOUND:.2}"
            ));
        }
    }
    let bar = conc8_bar(head[0].cores);
    let speedups: Option<Vec<f64>> = head.iter().map(|h| h.value("GD*(P)", SPEEDUP)).collect();
    match speedups.map(|mut s| median(&mut s)) {
        Some(speedup) if speedup >= bar => {
            eprintln!("# gate: GD*(P) median conc8_speedup {speedup:.3}, bar {bar:.2}");
        }
        Some(speedup) => failures.push(format!(
            "GD*(P) conc8_speedup: the head's median {speedup:.3} is below the {}-core bar \
             {bar:.2}",
            head[0].cores
        )),
        None => failures.push("GD*(P) conc8_speedup: not in every head run".to_string()),
    }
    Verdict { compared, failures }
}

/// `--check-regress DIR`: reads the [`GATE_PAIRS`] `base-N.json` /
/// `head-N.json` pairs and judges them.
fn check_regress(dir: &Path) -> ExitCode {
    let load = |side: &str| -> Result<Vec<Run>, String> {
        (1..=GATE_PAIRS)
            .map(|n| read_run(&dir.join(format!("{side}-{n}.json"))))
            .collect()
    };
    let (base, head) = match (load("base"), load("head")) {
        (Ok(base), Ok(head)) => (base, head),
        (Err(e), _) | (_, Err(e)) => {
            return usage(&format!(
                "--check-regress needs {GATE_PAIRS} complete base-N.json/head-N.json pairs: {e}"
            ))
        }
    };
    let verdict = judge(&base, &head);
    if verdict.failures.is_empty() {
        eprintln!(
            "# gate passed: {} cells over {GATE_PAIRS} pairs",
            verdict.compared
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("error: regression: {}", verdict.failures.join("; "));
        ExitCode::FAILURE
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
         hotpath --check-regress DIR\n\
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
         --check-regress DIR measures nothing: it judges the quick runs of a\n\
         base and a head build measured in alternation, DIR/base-N.json and\n\
         DIR/head-N.json for N = 1..10. A dense_norm or conc8_norm cell\n\
         fails when the head reads lower in at least 9 of the 10 pairs and\n\
         its median head/base ratio is below 0.90; the geometric mean of the\n\
         median ratios must stay at or above 0.95, and the head's median\n\
         GD*(P) conc8_speedup must reach the core-scaled bar. Exits 1 on a\n\
         regression and 2 on a bad command line."
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [&str; 3] = ["LRU", "GDS(1)", "GD*(P)"];

    /// A two-core run in which every policy reads `norm` in both
    /// compared columns and `speedup` as its `conc8_speedup`.
    fn run(norm: f64, speedup: f64) -> Run {
        Run {
            cores: 2,
            policies: POLICIES
                .iter()
                .map(|p| (p.to_string(), [norm, norm, speedup]))
                .collect(),
        }
    }

    fn runs(norm: f64, speedup: f64) -> Vec<Run> {
        (0..GATE_PAIRS).map(|_| run(norm, speedup)).collect()
    }

    /// Head runs at 1.0, except that LRU's `dense_norm` reads
    /// `ratios[i]` in pair `i`.
    fn head_with_lru(ratios: [f64; GATE_PAIRS]) -> Vec<Run> {
        ratios
            .iter()
            .map(|&ratio| {
                let mut head = run(1.0, 1.5);
                head.policies[0].1[0] = ratio;
                head
            })
            .collect()
    }

    #[test]
    fn identical_runs_pass() {
        let verdict = judge(&runs(1.0, 1.5), &runs(1.0, 1.5));
        assert_eq!(verdict.compared, 2 * POLICIES.len());
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    }

    #[test]
    fn a_cell_lower_in_nine_pairs_below_the_bound_fails_and_is_named() {
        let mut ratios = [0.85; GATE_PAIRS];
        ratios[3] = 1.1;
        let verdict = judge(&runs(1.0, 1.5), &head_with_lru(ratios));
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(
            verdict.failures[0].starts_with("LRU dense_norm: lower in 9 of 10 pairs"),
            "{}",
            verdict.failures[0]
        );
    }

    #[test]
    fn a_cell_lower_in_every_pair_above_the_bound_passes() {
        let verdict = judge(&runs(1.0, 1.5), &head_with_lru([0.95; GATE_PAIRS]));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    }

    #[test]
    fn a_cell_lower_in_eight_pairs_passes_however_low() {
        let mut ratios = [0.80; GATE_PAIRS];
        ratios[0] = 1.2;
        ratios[9] = 1.2;
        let verdict = judge(&runs(1.0, 1.5), &head_with_lru(ratios));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    }

    #[test]
    fn a_broad_slowdown_fails_on_the_geometric_mean() {
        let verdict = judge(&runs(1.0, 1.5), &runs(0.94, 1.5));
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(
            verdict.failures[0].starts_with("geometric mean of the 6 median ratios 0.940"),
            "{}",
            verdict.failures[0]
        );
    }

    #[test]
    fn a_policy_only_the_head_measures_is_skipped() {
        let mut head = runs(1.0, 1.5);
        for run in &mut head {
            run.policies.push(("NEW".to_string(), [0.5, 0.5, 0.5]));
        }
        let verdict = judge(&runs(1.0, 1.5), &head);
        assert_eq!(verdict.compared, 2 * POLICIES.len());
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    }

    #[test]
    fn a_median_of_ten_averages_the_middle_two() {
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&mut values), 5.5);
        // Lower in 9 of 10 pairs; the middle two are 0.86 and 0.92, so
        // the median 0.89 fails where the upper middle value would pass.
        let ratios = [0.95, 0.80, 1.05, 0.86, 0.80, 0.95, 0.92, 0.80, 0.95, 0.80];
        let verdict = judge(&runs(1.0, 1.5), &head_with_lru(ratios));
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(
            verdict.failures[0].contains("at a median ratio of 0.890"),
            "{}",
            verdict.failures[0]
        );
    }

    #[test]
    fn the_speedup_bar_reads_the_heads_median() {
        // Two cores: the bar is 1.00. The base's speedups do not count.
        assert_eq!(conc8_bar(2), 1.0);
        let speedups = |below: usize| -> Vec<Run> {
            (0..GATE_PAIRS)
                .map(|i| run(1.0, if i < below { 0.9 } else { 1.2 }))
                .collect()
        };
        let verdict = judge(&runs(1.0, 0.5), &speedups(4));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        let verdict = judge(&runs(1.0, 1.5), &speedups(6));
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(
            verdict.failures[0].starts_with("GD*(P) conc8_speedup: the head's median 0.900"),
            "{}",
            verdict.failures[0]
        );
    }
}
