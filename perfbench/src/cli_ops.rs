//! The `simulate-dfn4` and `sweep-rtp32` workloads: closed loops of
//! `webcache_cli::run`, and their traced rebuild from the same public
//! calls `commands.rs` makes.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use webcache_cli::parse_capacity;
use webcache_core::PolicySpec;
use webcache_obs::{PolicyProbe, Registry};
use webcache_sim::report::{figure_panel, Metric};
use webcache_sim::{
    CacheSizeSweep, HitStats, LatencyModel, ProfileObserver, SimulationConfig, SimulationReport,
    Simulator, SweepReport,
};
use webcache_stats::Table;
use webcache_trace::{format as text_format, format_bin, DenseTrace, DocumentType, Trace};

use crate::host::HostClock;
use crate::inputs::{self, Expect, Workload, SWEEP_CELLS, SWEEP_POLICIES, WARMUP};
use crate::report::{median, quantile, tail, Results};
use crate::spans::{Ledger, Recorder, MAIN};

/// Checks one op's output.
fn verify(workload: Workload, out: &str, expect: &Expect, seed: u64) -> Result<(), String> {
    match workload {
        Workload::Simulate => inputs::check_simulate(out, expect)?,
        _ => inputs::check_sweep(out, expect)?,
    }
    inputs::check_golden(workload, seed, out)
}

/// Runs one `webcache_cli::run` op, returning its wall time and its
/// checked output.
fn plain_op(argv: &[String]) -> (f64, Result<String, String>) {
    let started = Instant::now();
    let out = webcache_cli::run(argv).map_err(|e| e.to_string());
    (started.elapsed().as_secs_f64(), out)
}

/// The timed closed loop: one op at a time until `seconds` have passed.
/// Op times are scaled by the host speed around each op (see `host`).
pub fn run_untraced(
    workload: Workload,
    input: &Path,
    expect: &Expect,
    seed: u64,
    seconds: f64,
    clock: &mut HostClock,
    res: &mut Results,
) {
    let argv = workload.argv(input);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut wall, mut times) = (Vec::new(), Vec::new());
    loop {
        let (secs, out) = plain_op(&argv);
        wall.push(secs);
        times.push(secs * clock.factor());
        res.check(&out.and_then(|text| verify(workload, &text, expect, seed)));
        if Instant::now() >= deadline {
            break;
        }
    }
    let requests = expect.num("requests") * workload.cells() as f64;
    let p50 = median(&times);
    let tail_p = workload.tail_percentile();
    let (tail_s, beyond) = tail(&times, tail_p);
    println!(
        "ops {} (closed loop, 1 client): op_p50_s {p50:.6}, \
         op_tail_s {tail_s:.6} (p{tail_p}, {beyond} beyond); \
         wall p50 {:.6} s, host factor p50 {:.4} (min {:.4}, max {:.4})",
        times.len(),
        median(&wall),
        median(&clock.factors),
        quantile(&clock.factors, 0.0),
        quantile(&clock.factors, 1.0),
    );
    res.set("op_p50_s", p50, "s");
    res.set("op_tail_s", tail_s, "s");
    res.set("req_per_s", requests / p50, "requests/s");
}

/// Loads a trace the way `commands::load_trace` does, one span per step.
fn load(path: &Path, rec: &Recorder, op: u64, parent: Option<usize>) -> Result<Trace, String> {
    let bytes = rec
        .time("trace.read", MAIN, op, parent, || std::fs::read(path))
        .map_err(|e| e.to_string())?;
    rec.time("trace.parse", MAIN, op, parent, || {
        if bytes.starts_with(&format_bin::MAGIC) {
            format_bin::from_bytes(&bytes)
        } else {
            text_format::read_trace(bytes.as_slice())
        }
    })
    .map_err(|e| e.to_string())
}

fn parse_spec(name: &str) -> Result<PolicySpec, String> {
    name.parse::<PolicySpec>().map_err(|e| e.to_string())
}

fn simulate_config(trace_overall: webcache_trace::ByteSize) -> Result<SimulationConfig, String> {
    let capacity = parse_capacity(inputs::CAPACITY)?.resolve(trace_overall);
    Ok(SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(WARMUP)
        .occupancy_samples(0)
        .build())
}

/// `commands::simulate`'s table and latency line.
fn render_simulate(report: &SimulationReport) -> String {
    let by_type = *report.by_type();
    let mut table = Table::new(vec![
        "Type".into(),
        "requests".into(),
        "hits".into(),
        "hit rate".into(),
        "byte hit rate".into(),
        "mod misses".into(),
    ])
    .with_title(format!(
        "{} @ {} (warm-up {})",
        report.policy, report.config.capacity, report.config.warmup_fraction
    ));
    let mut overall = HitStats::default();
    for (_, s) in by_type.iter() {
        overall += *s;
    }
    let rows = DocumentType::ALL
        .into_iter()
        .map(|ty| (ty.label(), by_type[ty]))
        .chain(std::iter::once(("Overall", overall)));
    for (label, s) in rows {
        table.push_row(vec![
            label.to_owned(),
            s.requests.to_string(),
            s.hits.to_string(),
            format!("{:.4}", s.hit_rate()),
            format!("{:.4}", s.byte_hit_rate()),
            s.modification_misses.to_string(),
        ]);
    }
    let mut out = table.render();
    let latency = LatencyModel::campus_2001().estimate_stats(&overall);
    out.push_str(&format!(
        "\nestimated user latency (campus-2001 link model): mean {:.1} ms/request, \
         {:.1}% saved vs no cache\n",
        latency.mean_ms(),
        latency.savings() * 100.0,
    ));
    out
}

/// `commands::sweep`'s twelve figure panels.
fn render_sweep(report: &SweepReport) -> String {
    let mut out = String::new();
    for metric in [Metric::HitRate, Metric::ByteHitRate] {
        out.push_str(&figure_panel(report, metric, None).render());
        out.push('\n');
        for ty in DocumentType::MAIN {
            out.push_str(&figure_panel(report, metric, Some(ty)).render());
            out.push('\n');
        }
    }
    out
}

/// What the traced sweep's cells did: `(policy label, seconds)` and the
/// sweep's wall time, per op.
#[derive(Debug, Default)]
struct CellLog {
    cells: Vec<(String, f64)>,
    sweep_wall_s: f64,
}

/// One traced op, rebuilt from the calls `commands.rs` makes.
fn traced_op(
    workload: Workload,
    input: &Path,
    rec: &Recorder,
    op: u64,
    cell_log: &Mutex<CellLog>,
) -> Result<String, String> {
    let root = rec.begin("bench.op", MAIN, op, None);
    let parent = Some(root);
    let trace = load(input, rec, op, parent)?;
    let out = match workload {
        Workload::Simulate => {
            let spec = parse_spec(inputs::SIMULATE_POLICY)?;
            let overall = rec.time("trace.overall_size", MAIN, op, parent, || {
                trace.overall_size()
            });
            let config = simulate_config(overall)?;
            let dense = rec.time("trace.intern", MAIN, op, parent, || {
                DenseTrace::build(&trace)
            });
            let report = rec.time("sim.replay", MAIN, op, parent, || {
                Simulator::from_spec(spec, config).run_dense(&dense)
            });
            rec.time("cli.render", MAIN, op, parent, || render_simulate(&report))
        }
        _ => {
            let policies: Vec<PolicySpec> = SWEEP_POLICIES
                .split(',')
                .map(|name| parse_spec(name.trim()))
                .collect::<Result<_, _>>()?;
            // `paper_capacities` is `Trace::overall_size` plus seven
            // multiplications.
            let capacities = rec.time("trace.overall_size", MAIN, op, parent, || {
                CacheSizeSweep::paper_capacities(&trace)
            });
            let sweep = CacheSizeSweep::new(policies, capacities)
                .with_batched(true)
                .with_shards(1);
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            // The sweep builds its DenseTrace inside; this span's self
            // time carries it.
            let span = rec.begin("sim.sweep", MAIN, op, parent);
            let started = Instant::now();
            let report = sweep.run_with_progress(&trace, threads, |cell| {
                let label = cell.policy.label();
                let name = SWEEP_CELLS
                    .iter()
                    .find(|(l, _, _)| *l == label)
                    .map_or("sim.cell", |&(_, _, span)| span);
                let end = Instant::now();
                let start = end.checked_sub(cell.elapsed).unwrap_or(end);
                rec.record(name, cell.worker as u32 + 1, op, Some(span), start, end);
                cell_log
                    .lock()
                    .expect("cell log")
                    .cells
                    .push((label, cell.elapsed.as_secs_f64()));
            });
            cell_log.lock().expect("cell log").sweep_wall_s += started.elapsed().as_secs_f64();
            rec.end(span);
            rec.time("cli.render", MAIN, op, parent, || render_sweep(&report))
        }
    };
    rec.end(root);
    Ok(out)
}

/// Exact policy and outcome counts of one instrumented replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub requests: f64,
    pub heap_ops: f64,
    pub sift_steps: f64,
    pub comparisons: f64,
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub admission_rejects: f64,
}

impl Counts {
    /// Replays `dense` through a `PolicyProbe`-instrumented policy and a
    /// `ProfileObserver`, and adds their counters.
    pub fn add_replay(&mut self, spec: PolicySpec, config: SimulationConfig, dense: &DenseTrace) {
        let registry = Registry::new();
        let label = spec.label();
        let probe = PolicyProbe::register(&registry, &label);
        let mut observer = ProfileObserver::register(&registry, &label);
        Simulator::from_spec_instrumented(spec, config, probe)
            .run_dense_observed(dense, &mut observer);
        self.requests += dense.len() as f64;
        for sample in registry.flat_samples() {
            let slot = match sample.name.as_str() {
                "webcache_heap_ops_total" => &mut self.heap_ops,
                "webcache_heap_sift_steps_sum" => &mut self.sift_steps,
                "webcache_heap_comparisons_total" => &mut self.comparisons,
                "webcache_sim_hits_total" => &mut self.hits,
                "webcache_sim_misses_total" => &mut self.misses,
                "webcache_sim_evictions_total" => &mut self.evictions,
                "webcache_sim_admission_rejects_total" => &mut self.admission_rejects,
                _ => continue,
            };
            *slot += sample.value;
        }
    }

    pub fn publish(&self, res: &mut Results) {
        let per_request = |v: f64| {
            if self.requests > 0.0 {
                v / self.requests
            } else {
                0.0
            }
        };
        res.set("core.heap_ops", per_request(self.heap_ops), "1/request");
        res.set(
            "core.heap_sift_steps",
            per_request(self.sift_steps),
            "1/request",
        );
        res.set(
            "core.heap_comparisons",
            per_request(self.comparisons),
            "1/request",
        );
        res.set("core.hits", self.hits, "count");
        res.set("core.misses", self.misses, "count");
        res.set("core.evictions", self.evictions, "count");
        res.set("core.admission_rejects", self.admission_rejects, "count");
    }
}

/// The counting pass, outside any timed op: every grid cell (or the one
/// simulate config) replayed instrumented. Also times a `DenseTrace`
/// build, which the sweep otherwise does out of sight.
fn count(workload: Workload, input: &Path) -> Result<(Counts, f64), String> {
    let rec = Recorder::new();
    let trace = load(input, &rec, 0, None)?;
    let started = Instant::now();
    let dense = DenseTrace::build(&trace);
    let intern_s = started.elapsed().as_secs_f64();
    let mut counts = Counts::default();
    match workload {
        Workload::Simulate => {
            let config = simulate_config(trace.overall_size())?;
            counts.add_replay(parse_spec(inputs::SIMULATE_POLICY)?, config, &dense);
        }
        _ => {
            let capacities = CacheSizeSweep::paper_capacities(&trace);
            for name in SWEEP_POLICIES.split(',') {
                let spec = parse_spec(name)?;
                for &capacity in &capacities {
                    counts.add_replay(spec, SimulationConfig::new(capacity), &dense);
                }
            }
        }
    }
    Ok((counts, intern_s))
}

/// The traced run: untraced and traced ops alternate until `seconds`
/// have passed; every traced output must equal the untraced one.
pub fn run_traced(
    workload: Workload,
    input: &Path,
    expect: &Expect,
    seed: u64,
    seconds: f64,
    trace_out: &Path,
    res: &mut Results,
) {
    let argv = workload.argv(input);
    let rec = Recorder::new();
    let cell_log = Mutex::new(CellLog::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for op in 0.. {
        // Alternate which of the pair runs first, so neither always
        // inherits the other's freed memory.
        let timed_traced_op = || {
            let started = Instant::now();
            let out = traced_op(workload, input, &rec, op, &cell_log);
            (started.elapsed().as_secs_f64(), out)
        };
        let ((secs, plain), (traced_secs, traced)) = if op % 2 == 0 {
            (plain_op(&argv), timed_traced_op())
        } else {
            let traced = timed_traced_op();
            (plain_op(&argv), traced)
        };
        plain_s.push(secs);
        traced_s.push(traced_secs);
        let checked = plain.and_then(|plain| {
            verify(workload, &plain, expect, seed)?;
            match traced {
                Ok(out) if out == plain => Ok(()),
                Ok(_) => Err("traced output differs from the untraced output".to_owned()),
                Err(e) => Err(e),
            }
        });
        res.check(&checked);
        if Instant::now() >= deadline {
            break;
        }
    }
    let ops = traced_s.len() as f64;
    let spans = rec.spans();
    let ledger = Ledger::from_spans(&spans);
    if let Err(e) = std::fs::write(trace_out, crate::spans::chrome_trace(&spans)) {
        eprintln!("perfbench: {}: {e}", trace_out.display());
    }
    print!("{}", ledger.render("op"));

    let per_op = |secs: f64| secs / ops;
    for (metric, stage) in [
        ("trace.read_s", "trace.read"),
        ("trace.parse_s", "trace.parse"),
        ("trace.overall_size_s", "trace.overall_size"),
        ("trace.intern_s", "trace.intern"),
        ("cli.render_s", "cli.render"),
    ] {
        res.set(metric, per_op(ledger.stage_s(stage)), "s");
    }
    let log = cell_log.into_inner().expect("cell log");
    let cell_total: f64 = log.cells.iter().map(|(_, s)| s).sum();
    let replay_s = match workload {
        Workload::Simulate => per_op(ledger.stage_s("sim.replay")),
        _ => per_op(cell_total),
    };
    res.set("sim.replay_s", replay_s, "s");
    let requests = expect.num("requests") * workload.cells() as f64;
    res.set("sim.replay_req_per_s", requests / replay_s, "requests/s");
    for (label, suffix, _) in SWEEP_CELLS {
        let secs: f64 = log
            .cells
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, s)| s)
            .sum();
        res.set(&format!("sim.cell_s.{suffix}"), per_op(secs), "s");
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(workload.cells()) as f64;
    let busy = if log.sweep_wall_s > 0.0 {
        cell_total / (workers * log.sweep_wall_s)
    } else {
        0.0
    };
    res.set("sim.sweep_busy_ratio", busy, "ratio");
    res.set(
        "bench.trace_overhead",
        median(&traced_s) / median(&plain_s),
        "ratio",
    );
    publish_shares(&ledger, res);

    let counted = count(workload, input).map(|(counts, intern_s)| {
        counts.publish(res);
        if workload == Workload::Sweep {
            res.set("trace.intern_s", intern_s, "s");
        }
    });
    res.check(&counted);
}

/// Each layer's share of the traced op wall time, and the remainder.
pub fn publish_shares(ledger: &Ledger, res: &mut Results) {
    for layer in ["trace", "workload", "sim", "obs", "cli"] {
        res.set(
            &format!("{layer}.share"),
            ledger.share(ledger.layer_s(layer)),
            "ratio",
        );
    }
    res.set(
        "bench.unattributed_share",
        ledger.share(ledger.unattributed_s),
        "ratio",
    );
}
