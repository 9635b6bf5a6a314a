//! # webcache-cli
//!
//! The library behind the `webcache` command-line tool. All subcommands
//! are plain functions from parsed arguments to output text, so the
//! whole surface is unit-testable; the binary is a thin wrapper.
//!
//! ```text
//! webcache generate     --profile dfn --scale 256 --seed 1 --out trace.wct
//! webcache characterize --trace trace.wct [--name DFN]
//! webcache characterize --squid access.log
//! webcache simulate     --trace trace.wct --policy 'gd*(p)' --capacity 64MiB
//! webcache simulate     --trace trace.wct --policy tinylfu+slru
//! webcache sweep        --trace trace.wct --policies lru,lfu-da,gds1,gd*1 [--csv]
//! webcache sweep        --trace trace.wct --policy tinylfu+slru --policy arc --policy s3fifo
//! webcache stats        --trace trace.wct --policy lru --window 5000 --json
//! webcache convert      --squid access.log --out trace.wct
//! ```

#![warn(missing_docs)]

pub mod args;
pub mod capacity;
mod commands;
pub mod forensics;
pub mod serve;
pub mod top;

pub use args::{ArgError, Args};
pub use capacity::parse_capacity;
pub use serve::{serve_with, ServeOptions};

use std::fmt;

/// Errors surfaced to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (the binary exits 2; every other error exits 1).
    Usage(String),
    /// Input contents that cannot be used: an empty trace, an
    /// unparsable flight log, a malformed server response.
    Input(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Trace parsing failure.
    Trace(webcache_trace::TraceError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "i/o: {e}"),
            CliError::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<webcache_trace::TraceError> for CliError {
    fn from(e: webcache_trace::TraceError) -> Self {
        CliError::Trace(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

const USAGE: &str = "\
webcache — trace-driven web cache replacement evaluation

subcommands:
  generate     --profile dfn|rtp [--scale DENOM] [--seed N] --out FILE
               [--format text|bin]
               synthesize a workload trace
  characterize (--trace FILE | --squid FILE) [--name NAME]
               print the Section-2 tables (properties, per-type mix,
               size statistics, alpha, beta)
  simulate     --trace FILE --policy SPEC [--capacity SIZE|PCT%]
               [--warmup FRAC] [--occupancy N] [--markdown]
               run one policy over a trace and report per-type rates
               (--markdown: as a Markdown table)
  sweep        --trace FILE [--policies a,b,c] [--policy SPEC ...]
               [--fractions f1,f2,...]
               [--csv] [--progress] [--shards N]
               policy x cache-size grid (the Figure 2/3 engine);
               --progress reports per-cell completion on stderr;
               --shards N (a power of two, at most 1024) runs every
               cell through an N-shard engine to quantify the
               eviction-quality cost of sharding (--shards 1 is
               bit-identical to the default);
               --policy is repeatable and takes full specs
               (--policy tinylfu+slru --policy arc)
  stats        --trace FILE --policy SPEC [--capacity SIZE|PCT%]
               [--warmup FRAC] [--window N | --window-bytes SIZE]
               [--json] [--csv]
               windowed per-type hit-rate / byte-hit-rate time series
               plus eviction and admission churn (JSON and CSV;
               default window: a tenth of the measured region)
  convert      (--squid FILE | --trace FILE) --out FILE
               [--format text|bin]
               preprocess a Squid access.log into the compact format,
               or re-encode an existing trace (e.g. text -> bin)
  profile      [--trace FILE | --squid FILE] [--policies a,b,c]
               [--policy SPEC ...]
               [--capacity SIZE|PCT%] [--scale DENOM] [--seed N]
               [--out-dir DIR] [--quick]
               instrumented replay + span-timed sweep; writes
               trace.json (chrome://tracing / Perfetto), metrics.prom
               (Prometheus text) and metrics.json to --out-dir
               (default profile-out); with no input trace a synthetic
               DFN workload is generated (--quick: a smaller one)
  hierarchy    --trace FILE [--leaves N (1..=1024)] [--leaf-capacity SIZE|PCT%]
               [--parent-capacity SIZE|PCT%] [--leaf-policy P]
               [--parent-policy P]
               simulate institutional leaves behind a backbone parent
  serve        (--trace FILE | --workload dfn|rtp) [--policy SPEC]
               [--capacity SIZE|PCT%] [--warmup FRAC] [--scale DENOM]
               [--seed N] [--rate REQ_PER_SEC] [--passes N]
               [--port PORT] [--log-level trace|debug|info|warn|error]
               [--log-file FILE] [--anomaly-window N] [--quick]
               [--shards N] [--clients M] [--flight-capacity N]
               [--bundle-dir DIR] [--max-bundles N]
               [--slo-hit-rate FRAC] [--slo-p99-ms MS] [--slo-window N]
               [--slo-burn MULT] [--dash-history N]
               replay continuously while answering GET /metrics
               (Prometheus text), /healthz, /snapshot, /debug/flight,
               /debug/doc?id=N, /query?metric=NAME&last=N (trailing
               window of any metric from the per-pass snapshot ring,
               depth --dash-history, default 120) and /dash (live HTML
               dashboard with sparklines) on 127.0.0.1:9184; JSONL
               event log on stderr or --log-file; online anomaly
               detectors raise webcache_anomaly_total and rate-limited
               warn records; online regret metrics (wasted evictions,
               gap to clairvoyant) export as webcache_regret_*; the
               flight recorder keeps the last --flight-capacity
               (default 4096) eviction/admission decision records with
               policy reason payloads; with --bundle-dir, an anomaly
               warning writes a post-mortem bundle (flight.jsonl +
               registry.json + manifest.json, at most --max-bundles,
               default 8); --shards N (a power of two, at most 1024)
               with --clients M replays through the concurrent sharded
               engine and exports per-shard balance metrics (the anomaly
               detectors, regret metrics, profiling counters and event
               log read one event stream and need one shard; flight
               recording keeps its reason payloads); modeled per-request
               latency (two-link model: hits ride the fast local link,
               misses the slow origin link) exports p50/p90/p99/p999
               gauges per document type from windowed histograms;
               per-shard lock wait/hold histograms and contention
               ratios export as webcache_shard_lock_*; --slo-hit-rate
               and/or --slo-p99-ms arm multi-window burn-rate alerts
               (threshold --slo-burn, default 2.0x; long window
               --slo-window passes, default 12) that log once per
               breach episode and write a post-mortem bundle when
               --bundle-dir is set; Ctrl-C shuts down cleanly
  top          [--host H] [--port PORT] [--once] [--interval SECS]
               [--frames N]
               live terminal status view of a serve daemon (polls
               /snapshot): replay progress, modeled-latency quantiles
               per document type, per-shard lock contention, SLO burn
               rates; --once prints a single frame and exits
  inspect      --bundle DIR_OR_JSONL [--window N] [--top N]
               eviction forensics over a post-mortem bundle (or a bare
               flight.jsonl): per-type eviction-age and
               reuse-distance-at-eviction histograms, wasted evictions
               within --window (default 1024), top-regret documents,
               and the policy reason payloads behind evictions
  help         print this text

policies: every SPEC is [admission+]replacement
  replacement: lru fifo lfu size lfu-da slru lru2 arc s3fifo gds(1)
               gds(p) gdsf(1) gdsf(p) gd*(1) gd*(p)
  admission:   tinylfu (frequency-sketch W-TinyLFU gate),
               2hit[:WINDOW] (second-hit, default window 4096),
               max:BYTES (size ceiling), all (the default)
  examples:    lru  tinylfu+slru  2hit:1024+lru  max:65536+gd*(p)
  `simulate --policy oracle` runs the clairvoyant (Belady-style)
  upper bound
capacities: raw bytes (1048576), units (64KiB, 32MiB, 1GiB) or a
            percentage of the trace's overall size (5%)
";

/// Runs a full command line (without the program name), returning the
/// text to print on stdout.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed command lines,
/// [`CliError::Input`] on unusable input contents, and wraps I/O and
/// trace parse failures otherwise.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(USAGE.to_owned());
    };
    // Each subcommand declares its boolean switches, every value flag it
    // reads, and the value flags among them that may repeat. A switch of
    // one subcommand given to another, or a flag the subcommand does not
    // read, is a usage error naming it: a misspelt flag never silently
    // runs the default.
    type Command = fn(&Args) -> Result<String, CliError>;
    let (command, switches, values, repeatable): (Command, &str, &str, &str) =
        match command.as_str() {
            "generate" => (commands::generate, "", "profile scale seed out format", ""),
            "characterize" => (commands::characterize, "", "trace squid name", ""),
            "simulate" => (
                commands::simulate,
                "markdown",
                "trace squid policy capacity warmup occupancy",
                "",
            ),
            "sweep" => (
                commands::sweep,
                "csv progress",
                "trace squid policies fractions shards",
                "policy",
            ),
            "stats" => (
                commands::stats,
                "json csv",
                "trace squid policy capacity warmup window window-bytes",
                "",
            ),
            "convert" => (commands::convert, "", "trace squid out format", ""),
            "hierarchy" => (
                commands::hierarchy,
                "",
                "trace squid leaves leaf-capacity parent-capacity leaf-policy parent-policy",
                "",
            ),
            "profile" => (
                commands::profile,
                "quick",
                "trace squid policies capacity scale seed out-dir",
                "policy",
            ),
            "serve" => (
                serve::serve,
                "quick",
                "trace workload policy capacity warmup scale seed rate passes port log-level \
                 log-file anomaly-window shards clients flight-capacity bundle-dir max-bundles \
                 slo-hit-rate slo-p99-ms slo-window slo-burn dash-history",
                "",
            ),
            "top" => (top::top, "once", "host port interval frames", ""),
            "inspect" => (forensics::inspect, "", "bundle window top", ""),
            "help" | "--help" | "-h" => return Ok(USAGE.to_owned()),
            other => return Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
        };
    let words = |list: &'static str| list.split_whitespace().collect::<Vec<_>>();
    command(&Args::parse_declared(
        rest,
        &words(switches),
        &words(values),
        &words(repeatable),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_and_help_print_usage() {
        assert!(run(&[]).unwrap().contains("subcommands"));
        assert!(run(&argv("help")).unwrap().contains("policies:"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
