//! The workloads: their seeded inputs, what each op must output, and the
//! checks that hold every op to it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use webcache_cli::capacity::CapacitySpec;
use webcache_sim::CacheSizeSweep;
use webcache_trace::{format as text_format, format_bin, DocumentType, Trace};
use webcache_workload::WorkloadProfile;

use crate::host::HostClock;

/// Seed at which every rendered output must equal its golden copy.
pub const GOLDEN_SEED: u64 = 1;
/// The CLI's default warm-up fraction and capacity.
pub const WARMUP: f64 = 0.10;
pub const CAPACITY: &str = "5%";

pub const SIMULATE_SCALE: f64 = 4.0;
pub const SIMULATE_POLICY: &str = "gd*(p)";
pub const SWEEP_SCALE: f64 = 32.0;
pub const SWEEP_POLICIES: &str = "lru,lfu-da,gds(1),gd*(1),gds(p),gd*(p)";
/// Sweep policies: column label, metric suffix, cell span name.
pub const SWEEP_CELLS: [(&str, &str, &str); 6] = [
    ("LRU", "lru", "sim.cell.lru"),
    ("LFU-DA", "lfu-da", "sim.cell.lfu-da"),
    ("GDS(1)", "gds-1", "sim.cell.gds-1"),
    ("GD*(1)", "gdstar-1", "sim.cell.gdstar-1"),
    ("GDS(P)", "gds-p", "sim.cell.gds-p"),
    ("GD*(P)", "gdstar-p", "sim.cell.gdstar-p"),
];

const GOLDEN_SIMULATE: &str = include_str!("../golden/simulate-dfn4.txt");
const GOLDEN_SWEEP: &str = include_str!("../golden/sweep-rtp32.txt");
const GOLDEN_SERVE: &str = include_str!("../golden/serve-dfn-scraped.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `webcache simulate` on the 1/4-scale DFN trace.
    Simulate,
    /// `webcache sweep` on the 1/32-scale RTP trace.
    Sweep,
    /// `serve_with` on the 1/256-scale DFN generator, scraped.
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Simulate, Workload::Sweep, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Simulate => "simulate-dfn4",
            Workload::Sweep => "sweep-rtp32",
            Workload::Serve => "serve-dfn-scraped",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated input file (none for serve, which generates its
    /// own stream from `--seed`).
    pub fn input_file(self) -> &'static str {
        match self {
            Workload::Simulate => "dfn4.wctb",
            Workload::Sweep => "rtp32.txt",
            Workload::Serve => "",
        }
    }

    /// The `webcache` command line of one op.
    pub fn argv(self, input: &Path) -> Vec<String> {
        let input = input.display().to_string();
        let argv: Vec<&str> = match self {
            Workload::Simulate => vec![
                "simulate",
                "--trace",
                &input,
                "--policy",
                SIMULATE_POLICY,
                "--capacity",
                CAPACITY,
            ],
            Workload::Sweep => vec!["sweep", "--trace", &input, "--policies", SWEEP_POLICIES],
            Workload::Serve => Vec::new(),
        };
        argv.into_iter().map(str::to_owned).collect()
    }

    /// The percentile `op_tail_s` reports: the highest with at least ten
    /// samples beyond it at the counts a 30 s run gives on a 2-core host
    /// (simulate 23–40 ops, sweep 44–81 ops, serve ≈600 scrapes). It is
    /// fixed per workload, so a faster or slower program cannot change
    /// which percentile is reported.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Simulate => 50.0,
            Workload::Sweep => 75.0,
            Workload::Serve => 95.0,
        }
    }

    /// Grid cells per op.
    pub fn cells(self) -> usize {
        match self {
            Workload::Sweep => {
                SWEEP_CELLS.len() * webcache_sim::experiment::PAPER_SIZE_FRACTIONS.len()
            }
            _ => 1,
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Workload::Simulate => GOLDEN_SIMULATE,
            Workload::Sweep => GOLDEN_SWEEP,
            Workload::Serve => GOLDEN_SERVE,
        }
    }
}

/// Expected facts about a workload's input, handed from the process
/// that generated it to the process that runs the ops.
#[derive(Debug, Default)]
pub struct Expect(BTreeMap<String, String>);

impl Expect {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_owned(), value.to_string());
    }

    pub fn get(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    pub fn num(&self, key: &str) -> f64 {
        self.get(key).parse().unwrap_or(0.0)
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let text: String = self.0.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
        std::fs::write(path, text)
    }

    pub fn load(path: &Path) -> Result<Expect, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = Expect::default();
        for line in text.lines() {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("bad line `{line}`"))?;
            out.set(k, v);
        }
        Ok(out)
    }
}

/// Generates the input file several times (profile, build, encode,
/// write) and returns the timings, each scaled by the host speed around
/// it (see `host`), plus the expectations. `setup_s` is the timings'
/// median; one generation takes ≈0.9 s at 1/4 scale and ≈0.05 s at 1/32,
/// so both repeat counts spend a few seconds.
pub fn generate(workload: Workload, seed: u64, path: &Path) -> Result<(Vec<f64>, Expect), String> {
    let (profile, scale, repeats) = match workload {
        Workload::Simulate => (WorkloadProfile::dfn(), SIMULATE_SCALE, 7),
        Workload::Sweep => (WorkloadProfile::rtp(), SWEEP_SCALE, 41),
        Workload::Serve => return Err("serve reads no input file".into()),
    };
    let mut clock = HostClock::new();
    let mut samples = Vec::new();
    let mut expect = Expect::default();
    for rep in 0..repeats {
        let started = Instant::now();
        let trace = profile.scaled(1.0 / scale).build_trace(seed);
        let bytes = match workload {
            Workload::Simulate => format_bin::to_bytes(&trace),
            _ => {
                let mut buf = Vec::new();
                text_format::write_trace(&mut buf, &trace).map_err(|e| e.to_string())?;
                buf
            }
        };
        std::fs::write(path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        samples.push(started.elapsed().as_secs_f64() * clock.factor());
        if rep + 1 == repeats {
            expect = expectations(workload, &trace, bytes.len());
            expect.set("scale", scale);
        }
    }
    Ok((samples, expect))
}

fn expectations(workload: Workload, trace: &Trace, input_bytes: usize) -> Expect {
    let mut expect = Expect::default();
    expect.set("requests", trace.len());
    expect.set("documents", trace.distinct_documents());
    expect.set("input_bytes", input_bytes);
    match workload {
        Workload::Simulate => {
            let capacity = CapacitySpec::FractionOfTrace(0.05).resolve(trace.overall_size());
            expect.set("capacity", capacity);
            // The simulator measures from floor(len * warm-up) on.
            let warmup_end = ((trace.len() as f64) * WARMUP).floor() as usize;
            let mut counts = [0u64; DocumentType::ALL.len()];
            for request in &trace.requests()[warmup_end..] {
                counts[request.doc_type.index()] += 1;
            }
            for ty in DocumentType::ALL {
                expect.set(&format!("measured.{}", ty.label()), counts[ty.index()]);
            }
        }
        Workload::Sweep => {
            let capacities: Vec<String> = CacheSizeSweep::paper_capacities(trace)
                .iter()
                .map(ToString::to_string)
                .collect();
            expect.set("capacities", capacities.join(";"));
        }
        Workload::Serve => {}
    }
    expect
}

/// Splits a table row into its label (which may hold spaces) and its
/// `n` trailing cells.
fn row_cells(line: &str, n: usize) -> Option<(String, Vec<&str>)> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let split = fields.len().checked_sub(n)?;
    Some((fields[..split].join(" "), fields[split..].to_vec()))
}

fn rate_ok(cell: &str) -> bool {
    cell.parse::<f64>().is_ok_and(|r| (0.0..=1.0).contains(&r))
}

/// `webcache simulate`: the title names the capacity, every type's
/// request count equals the generated trace's, and every rate lies in
/// [0, 1].
pub fn check_simulate(out: &str, expect: &Expect) -> Result<(), String> {
    let mut lines = out.lines();
    let title = lines.next().unwrap_or_default();
    let want_title = format!("GD*(P) @ {} (warm-up {WARMUP})", expect.get("capacity"));
    if title != want_title {
        return Err(format!("title `{title}`, expected `{want_title}`"));
    }
    let mut total = 0u64;
    let mut rows = 0;
    for line in lines.skip(2).take(DocumentType::ALL.len() + 1) {
        let (label, cells) = row_cells(line, 5).ok_or_else(|| format!("short row `{line}`"))?;
        let requests: u64 = cells[0].parse().map_err(|_| format!("bad row `{line}`"))?;
        let hits: u64 = cells[1].parse().map_err(|_| format!("bad row `{line}`"))?;
        let want = if label == "Overall" {
            total
        } else {
            let want = expect.num(&format!("measured.{label}")) as u64;
            total += want;
            want
        };
        if requests != want || hits > requests || !rate_ok(cells[2]) || !rate_ok(cells[3]) {
            return Err(format!(
                "row `{line}`: expected {want} requests and rates in [0, 1]"
            ));
        }
        rows += 1;
    }
    if rows != DocumentType::ALL.len() + 1 || !out.contains("estimated user latency") {
        return Err("simulate output is incomplete".into());
    }
    Ok(())
}

/// `webcache sweep`: twelve panels (both metrics × overall and the four
/// main types), each with one row per paper capacity of the generated
/// trace and one rate in [0, 1] per policy.
pub fn check_sweep(out: &str, expect: &Expect) -> Result<(), String> {
    let capacities: Vec<&str> = expect.get("capacities").split(';').collect();
    let panels: Vec<&str> = out.split("\n\n").filter(|p| !p.trim().is_empty()).collect();
    let mut titles = Vec::new();
    for metric in ["Hit Rate", "Byte Hit Rate"] {
        titles.push(format!("Overall: {metric}"));
        for ty in DocumentType::MAIN {
            titles.push(format!("{}: {metric}", ty.label()));
        }
    }
    if panels.len() != titles.len() {
        return Err(format!(
            "{} panels, expected {}",
            panels.len(),
            titles.len()
        ));
    }
    for (panel, title) in panels.iter().zip(&titles) {
        let lines: Vec<&str> = panel.lines().collect();
        if lines.first() != Some(&title.as_str()) || lines.len() != 3 + capacities.len() {
            return Err(format!(
                "panel `{}` malformed",
                lines.first().unwrap_or(&"")
            ));
        }
        for (line, capacity) in lines[3..].iter().zip(&capacities) {
            let (label, cells) =
                row_cells(line, SWEEP_CELLS.len()).ok_or_else(|| format!("short row `{line}`"))?;
            if label != *capacity || !cells.iter().all(|c| rate_ok(c)) {
                return Err(format!(
                    "row `{line}` in `{title}`: expected {capacity} and rates in [0, 1]"
                ));
            }
        }
    }
    Ok(())
}

/// At [`GOLDEN_SEED`], the whole rendered output must equal the golden
/// copy.
pub fn check_golden(workload: Workload, seed: u64, rendered: &str) -> Result<(), String> {
    if seed != GOLDEN_SEED || rendered == workload.golden() {
        return Ok(());
    }
    Err(format!(
        "{} output differs from golden/{}.txt",
        workload.name(),
        workload.name()
    ))
}
