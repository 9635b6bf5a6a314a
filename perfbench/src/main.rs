//! End-to-end benchmark of the `webcache` CLI.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload simulate-dfn4|sweep-rtp32|serve-dfn-scraped \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The process generates the workload's
//! input from `--seed` into `.bench_work/`, then starts a second copy of
//! itself that runs the timed ops, checks every output, and reports its
//! peak resident set (so the generator's own trace does not count). With
//! `--trace 0` the last line is the end-to-end metrics; with `--trace 1`
//! the ops are rebuilt from the same public calls under a span recorder
//! and the last line is the per-layer metrics (see `README.md`).

mod cli_ops;
mod host;
mod inputs;
mod report;
mod scrape;
mod serve;
mod spans;

use std::path::{Path, PathBuf};
use std::process::Command;

use host::HostClock;
use inputs::{Expect, Workload};
use report::{median, quantile, Results};

const WORK_DIR: &str = ".bench_work";

const USAGE: &str = "usage: perfbench --workload simulate-dfn4|sweep-rtp32|serve-dfn-scraped \
                     --seed N --seconds S --trace 0|1";

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "op_p50_s",
    "op_tail_s",
    "req_per_s",
    "peak_rss_mb",
];

/// The per-layer metrics and their units, printed with `--trace 1`. A
/// layer a workload does not use reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("trace.read_s", "s"),
    ("trace.parse_s", "s"),
    ("trace.overall_size_s", "s"),
    ("trace.intern_s", "s"),
    ("trace.requests", "count"),
    ("trace.documents", "count"),
    ("trace.input_bytes", "bytes"),
    ("workload.generate_s", "s"),
    ("workload.epoch_s", "s"),
    ("core.heap_ops", "1/request"),
    ("core.heap_sift_steps", "1/request"),
    ("core.heap_comparisons", "1/request"),
    ("core.hits", "count"),
    ("core.misses", "count"),
    ("core.evictions", "count"),
    ("core.admission_rejects", "count"),
    ("sim.replay_s", "s"),
    ("sim.replay_req_per_s", "requests/s"),
    ("sim.cell_s.lru", "s"),
    ("sim.cell_s.lfu-da", "s"),
    ("sim.cell_s.gds-1", "s"),
    ("sim.cell_s.gdstar-1", "s"),
    ("sim.cell_s.gds-p", "s"),
    ("sim.cell_s.gdstar-p", "s"),
    ("sim.sweep_busy_ratio", "ratio"),
    ("sim.observers_s", "s"),
    ("sim.pass_end_s", "s"),
    ("obs.render_metrics_s", "s"),
    ("obs.render_snapshot_s", "s"),
    ("obs.http_wait_ms", "ms"),
    ("obs.http_handler_ms", "ms"),
    ("obs.series", "count"),
    ("cli.render_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.gen_late_ms", "ms"),
    ("trace.share", "ratio"),
    ("workload.share", "ratio"),
    ("sim.share", "ratio"),
    ("obs.share", "ratio"),
    ("cli.share", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Runs the ops (set only on the second process).
    child: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut child = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds expects a positive number".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace expects 0 or 1".into()),
                    })
                }
                "--child" => child = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            child,
        })
    }

    fn work_dir(&self) -> PathBuf {
        Path::new(WORK_DIR).join(self.workload.name())
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generates the inputs, runs the ops in a second process, and prints
/// the result line.
fn parent(opts: &Opts, argv: &[String]) -> Result<(), String> {
    let work = opts.work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let w = opts.workload;
    let (setup, expect) = match w {
        Workload::Serve => (Vec::new(), serve::expectations(opts.seed)),
        _ => inputs::generate(w, opts.seed, &work.join(w.input_file()))?,
    };
    expect
        .save(&work.join("expect.txt"))
        .map_err(|e| format!("expect.txt: {e}"))?;
    describe(opts, &expect, &setup);

    let result = work.join("result.txt");
    let _ = std::fs::remove_file(&result);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(argv)
        .arg("--child")
        .status()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    if !status.success() {
        return Err(format!("the measuring process exited with {status}"));
    }
    let mut res = Results::load(&result)?;
    if opts.trace {
        for key in ["requests", "documents"] {
            res.set(&format!("trace.{key}"), expect.num(key), "count");
        }
        res.set("trace.input_bytes", expect.num("input_bytes"), "bytes");
        if w != Workload::Serve {
            res.set("workload.generate_s", median(&setup), "s");
        }
        for (name, unit) in PER_LAYER {
            if res.get(name).is_none() {
                res.set(name, 0.0, unit);
            }
        }
        let counts: Vec<String> = PER_LAYER
            .iter()
            .filter(|(_, unit)| matches!(*unit, "count" | "bytes" | "1/request"))
            .map(|(name, _)| format!("{name} {}", res.get(name).unwrap_or(0.0)))
            .collect();
        println!("counts: {}", counts.join(", "));
    } else if w != Workload::Serve {
        res.set("setup_s", median(&setup), "s");
    }
    let failed_ratio = res.failed as f64 / res.attempted.max(1) as f64;
    println!(
        "failed_ratio {failed_ratio} ({} of {} ops and checks)",
        res.failed, res.attempted
    );
    let per_layer = PER_LAYER.map(|(name, _)| name);
    let names: &[&str] = if opts.trace { &per_layer } else { &END_TO_END };
    println!("{}", res.json_line(names));
    Ok(())
}

/// The workload's record: what it is, how big, on how many cores.
fn describe(opts: &Opts, expect: &Expect, setup: &[f64]) {
    let w = opts.workload;
    let load = match w {
        Workload::Serve => format!(
            "serve_with, {} passes per call, scraped open loop at {} /s",
            serve::PASSES,
            scrape::RATE_HZ
        ),
        Workload::Sweep => format!("closed loop, 1 op at a time, {} cells per op", w.cells()),
        Workload::Simulate => "closed loop, 1 op at a time".to_owned(),
    };
    println!(
        "perfbench {} seed {} cores {} | {load} | 1/{} scale: {} requests, {} documents, {} input bytes{}",
        w.name(),
        opts.seed,
        cores(),
        expect.get("scale"),
        expect.get("requests"),
        expect.get("documents"),
        expect.get("input_bytes"),
        if setup.is_empty() {
            String::new()
        } else {
            format!(
                " | generated {} times, host-scaled median {:.6} s (min {:.6}, max {:.6})",
                setup.len(),
                median(setup),
                quantile(setup, 0.0),
                quantile(setup, 1.0)
            )
        },
    );
}

/// Runs the ops and writes what it measured for the parent.
fn child(opts: &Opts) -> Result<(), String> {
    let work = opts.work_dir();
    let expect = Expect::load(&work.join("expect.txt"))?;
    let input = work.join(opts.workload.input_file());
    let trace_out = work.join("trace.json");
    let mut res = Results::default();
    let (seed, seconds) = (opts.seed, opts.seconds);
    // Built before the first op, so its buffers' resident size is known.
    let mut clock = HostClock::new();
    match (opts.workload, opts.trace) {
        (Workload::Serve, false) => {
            serve::run_untraced(seed, seconds, &work, &expect, &mut clock, &mut res)
        }
        (Workload::Serve, true) => {
            serve::run_traced(seed, seconds, &work, &expect, &trace_out, &mut res)
        }
        (w, false) => {
            cli_ops::run_untraced(w, &input, &expect, seed, seconds, &mut clock, &mut res)
        }
        (w, true) => cli_ops::run_traced(w, &input, &expect, seed, seconds, &trace_out, &mut res),
    }
    if opts.trace {
        println!("chrome trace: {}", trace_out.display());
    }
    // The program's peak: without the host clock's buffers.
    let peak = report::status_mib("VmHWM") - clock.resident_mib;
    res.set("peak_rss_mb", peak, "MiB");
    res.save(&work.join("result.txt"))
        .map_err(|e| format!("result.txt: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if opts.child {
        child(&opts)
    } else {
        parent(&opts, &argv)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
