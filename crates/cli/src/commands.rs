//! Subcommand implementations.

use std::fs;

use webcache_core::{PolicyKind, PolicySpec};
use webcache_obs::{chrome_trace_json, PolicyProbe, Registry, TraceClock, TraceRecorder};
use webcache_sim::experiment::PAPER_SIZE_FRACTIONS;
use webcache_sim::report::{
    figure_panel, occupancy_csv, sweep_csv, window_csv, window_json, Metric,
};
use webcache_sim::{
    clairvoyant, simulate_hierarchy, CacheSizeSweep, HierarchyConfig, LatencyModel,
    ProfileObserver, SimulationConfig, Simulator, SweepProgress, WindowSpec, WindowedMetrics,
};
use webcache_stats::{Table, TraceCharacterization};
use webcache_trace::{
    format as trace_format, format_bin, preprocess, squid, ByteSize, DenseTrace, DocumentType,
    Trace,
};
use webcache_workload::WorkloadProfile;

use crate::args::Args;
use crate::capacity::{parse_capacity, CapacitySpec};
use crate::CliError;

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parses one `[admission+]replacement` policy spec, turning the parse
/// error into a usage error. The single policy-parsing path of every
/// subcommand.
fn parse_spec(name: &str) -> Result<PolicySpec, CliError> {
    name.parse::<PolicySpec>().map_err(|e| usage(e.to_string()))
}

/// Loads a trace, auto-detecting the binary format by its magic. Only
/// `convert`, which re-encodes every field, needs the whole [`Trace`].
fn load_trace(path: &str) -> Result<Trace, CliError> {
    let bytes = fs::read(path)?;
    if bytes.starts_with(&format_bin::MAGIC) {
        Ok(format_bin::from_bytes(&bytes)?)
    } else {
        Ok(trace_format::read_trace(bytes.as_slice())?)
    }
}

/// Loads the dense view of a trace, the one load path of every command
/// but `convert`. A binary trace decodes straight into it, with no
/// [`Trace`] in between; a text trace parses to a `Trace` first. Either
/// way the file bytes and any `Trace` are dropped before this returns.
pub(crate) fn load_dense(path: &str) -> Result<DenseTrace, CliError> {
    let bytes = fs::read(path)?;
    if bytes.starts_with(&format_bin::MAGIC) {
        Ok(DenseTrace::from_wctb_bytes(&bytes)?)
    } else {
        let trace = trace_format::read_trace(bytes.as_slice())?;
        drop(bytes);
        Ok(DenseTrace::build(&trace))
    }
}

/// Serializes a trace in the requested format (`text` default, `bin`
/// for the fixed-width binary format).
fn encode_trace(trace: &Trace, format: Option<&str>) -> Result<Vec<u8>, CliError> {
    match format.unwrap_or("text") {
        "text" => {
            let mut buf = Vec::new();
            trace_format::write_trace(&mut buf, trace)?;
            Ok(buf)
        }
        "bin" => Ok(format_bin::to_bytes(trace)),
        other => Err(usage(format!("unknown format `{other}` (text|bin)"))),
    }
}

fn load_squid(path: &str) -> Result<(Trace, preprocess::PreprocessStats), CliError> {
    let text = fs::read_to_string(path)?;
    let entries = squid::parse_log(&text)?;
    Ok(preprocess::preprocess(&entries))
}

/// Loads the dense view of `--trace FILE` or `--squid FILE` (see
/// [`load_dense`]).
fn input_dense(args: &Args) -> Result<DenseTrace, CliError> {
    match (args.get("trace"), args.get("squid")) {
        (Some(path), None) => load_dense(path),
        (None, Some(path)) => Ok(DenseTrace::build(&load_squid(path)?.0)),
        _ => Err(usage("give exactly one of --trace FILE or --squid FILE")),
    }
}

/// Reads `--scale DENOM` (the workload shrinks to `1/DENOM`),
/// `default` when absent. A denominator below 1, NaN or infinite is a
/// usage error.
pub(crate) fn scale_denominator(args: &Args, default: f64) -> Result<f64, CliError> {
    let denom: f64 = args.get_parsed("scale")?.unwrap_or(default);
    if !denom.is_finite() || denom < 1.0 {
        return Err(usage("--scale expects a finite denominator ≥ 1"));
    }
    Ok(denom)
}

/// Reads `--capacity` (default 5% of the trace) resolved against the
/// trace's `overall` size, and `--warmup` (default 0.10, in `[0, 1)`).
pub(crate) fn capacity_and_warmup(
    args: &Args,
    overall: ByteSize,
) -> Result<(ByteSize, f64), CliError> {
    let capacity = match args.get("capacity") {
        Some(raw) => parse_capacity(raw).map_err(usage)?,
        None => CapacitySpec::FractionOfTrace(0.05),
    };
    let warmup: f64 = args.get_parsed("warmup")?.unwrap_or(0.10);
    if !(0.0..1.0).contains(&warmup) {
        return Err(usage("--warmup expects a fraction in [0, 1)"));
    }
    Ok((capacity.resolve(overall), warmup))
}

/// `webcache generate`.
pub fn generate(args: &Args) -> Result<String, CliError> {
    let profile = match args.require("profile")?.to_ascii_lowercase().as_str() {
        "dfn" => WorkloadProfile::dfn(),
        "rtp" => WorkloadProfile::rtp(),
        other => return Err(usage(format!("unknown profile `{other}` (dfn|rtp)"))),
    };
    let denom = scale_denominator(args, 256.0)?;
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(1);
    let out = args.require("out")?;

    let trace = profile.scaled(1.0 / denom).build_trace(seed);
    let buf = encode_trace(&trace, args.get("format"))?;
    fs::write(out, buf)?;
    Ok(format!(
        "wrote {} requests ({} distinct documents, {}) to {out}\n",
        trace.len(),
        trace.distinct_documents(),
        trace.requested_bytes(),
    ))
}

/// `webcache characterize`.
pub fn characterize(args: &Args) -> Result<String, CliError> {
    let trace = input_dense(args)?;
    // Named after the input file unless `--name` is given.
    let name = ["name", "trace", "squid"]
        .into_iter()
        .find_map(|key| args.get(key))
        .unwrap_or_default();
    let ch = TraceCharacterization::measure(&trace);
    Ok(format!(
        "{}\n{}\n{}",
        ch.properties_table(name),
        ch.breakdown_table(name),
        ch.statistics_table(name),
    ))
}

/// `webcache simulate`.
pub fn simulate(args: &Args) -> Result<String, CliError> {
    let trace = input_dense(args)?;
    let policy_name = args.require("policy")?;
    let is_oracle = policy_name.eq_ignore_ascii_case("oracle")
        || policy_name.eq_ignore_ascii_case("clairvoyant");
    let policy = if is_oracle {
        None
    } else {
        Some(parse_spec(policy_name)?)
    };
    let (capacity, warmup) = capacity_and_warmup(args, trace.overall_size())?;
    let occupancy: usize = args.get_parsed("occupancy")?.unwrap_or(0);

    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(warmup)
        .occupancy_samples(occupancy)
        .build();
    let (label, by_type, occupancy_series) = match policy {
        Some(spec) => {
            let report = Simulator::from_spec(spec, config).run_dense(&trace);
            (
                report.policy.clone(),
                *report.by_type(),
                Some(report.occupancy),
            )
        }
        None => ("clairvoyant".to_owned(), clairvoyant(&trace, &config), None),
    };

    let mut table = Table::new(vec![
        "Type".into(),
        "requests".into(),
        "hits".into(),
        "hit rate".into(),
        "byte hit rate".into(),
        "mod misses".into(),
    ])
    .with_title(format!("{label} @ {capacity} (warm-up {warmup})"));
    let mut overall = webcache_sim::HitStats::default();
    for (_, s) in by_type.iter() {
        overall += *s;
    }
    for ty in DocumentType::ALL {
        let s = by_type[ty];
        table.push_row(vec![
            ty.label().to_owned(),
            s.requests.to_string(),
            s.hits.to_string(),
            format!("{:.4}", s.hit_rate()),
            format!("{:.4}", s.byte_hit_rate()),
            s.modification_misses.to_string(),
        ]);
    }
    table.push_row(vec![
        "Overall".to_owned(),
        overall.requests.to_string(),
        overall.hits.to_string(),
        format!("{:.4}", overall.hit_rate()),
        format!("{:.4}", overall.byte_hit_rate()),
        overall.modification_misses.to_string(),
    ]);
    let mut out = if args.switch("markdown") {
        table.to_markdown()
    } else {
        table.render()
    };
    let latency = LatencyModel::campus_2001().estimate_stats(&overall);
    out.push_str(&format!(
        "\nestimated user latency (campus-2001 link model): mean {:.1} ms/request, \
         {:.1}% saved vs no cache\n",
        latency.mean_ms(),
        latency.savings() * 100.0,
    ));
    if occupancy > 0 {
        if let Some(series) = &occupancy_series {
            out.push('\n');
            out.push_str(&occupancy_csv(series));
        }
    }
    Ok(out)
}

/// The most leaf caches `hierarchy` builds. Each leaf keeps a slot map
/// over every document of the trace, so memory grows as leaves ×
/// documents × 4 B.
const MAX_LEAVES: usize = 1024;

/// `webcache hierarchy`.
pub fn hierarchy(args: &Args) -> Result<String, CliError> {
    let trace = input_dense(args)?;
    let overall = trace.overall_size();
    let leaves: usize = args.get_parsed("leaves")?.unwrap_or(4);
    if !(1..=MAX_LEAVES).contains(&leaves) {
        return Err(usage(format!(
            "--leaves must be between 1 and {MAX_LEAVES}, got {leaves}"
        )));
    }
    let leaf_capacity = match args.get("leaf-capacity") {
        Some(raw) => parse_capacity(raw).map_err(usage)?.resolve(overall),
        None => overall.fraction(0.01),
    };
    let parent_capacity = match args.get("parent-capacity") {
        Some(raw) => parse_capacity(raw).map_err(usage)?.resolve(overall),
        None => overall.fraction(0.10),
    };
    let mut config = HierarchyConfig::new(leaves, leaf_capacity, parent_capacity);
    if let Some(name) = args.get("leaf-policy") {
        config = config.with_leaf_policy(parse_spec(name)?);
    }
    if let Some(name) = args.get("parent-policy") {
        config = config.with_parent_policy(parse_spec(name)?);
    }
    let report = simulate_hierarchy(&trace, config);
    Ok(format!(
        "hierarchy: {leaves} leaves @ {leaf_capacity} ({}) -> parent @ {parent_capacity} ({})\n\
         leaf   hit rate {:.4} ({} requests)\n\
         parent hit rate {:.4} ({} leaf misses)\n\
         combined: hit rate {:.4}, byte hit rate {:.4}\n",
        config.leaf_policy.label(),
        config.parent_policy.label(),
        report.leaf.hit_rate(),
        report.leaf.requests,
        report.parent.hit_rate(),
        report.parent.requests,
        report.combined_hit_rate(),
        report.combined_byte_hit_rate(),
    ))
}

/// `webcache sweep`.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    let trace = input_dense(args)?;
    let policies = parse_policies(args)?;
    let fractions: Vec<f64> = match args.get("fractions") {
        None => PAPER_SIZE_FRACTIONS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|f| {
                let frac: f64 = f
                    .trim()
                    .parse()
                    .map_err(|_| usage(format!("bad fraction `{f}`")))?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(usage(format!("fraction out of (0, 1]: `{f}`")));
                }
                Ok(frac)
            })
            .collect::<Result<_, _>>()?,
    };
    let overall = trace.overall_size();
    let capacities = fractions.iter().map(|&f| overall.fraction(f)).collect();

    let shards: usize = args.get_parsed("shards")?.unwrap_or(1);
    webcache_core::validate_shard_count(shards).map_err(|e| usage(format!("--shards: {e}")))?;
    let sweep = CacheSizeSweep::new(policies, capacities).with_shards(shards);
    let report = if args.switch("progress") {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let progress = |p: &SweepProgress| {
            eprintln!(
                "[{}/{}] worker {} finished {} @ {} ({:.0} req/s)",
                p.completed,
                p.total,
                p.worker,
                p.policy.label(),
                p.capacity,
                p.requests_per_sec,
            );
        };
        sweep.run_with_progress_recorded(&trace, threads, progress, &mut [])
    } else {
        sweep.run(&trace)
    };
    if args.switch("csv") {
        return Ok(sweep_csv(&report));
    }
    let mut out = String::new();
    for metric in [Metric::HitRate, Metric::ByteHitRate] {
        out.push_str(&figure_panel(&report, metric, None).render());
        out.push('\n');
        for ty in DocumentType::MAIN {
            out.push_str(&figure_panel(&report, metric, Some(ty)).render());
            out.push('\n');
        }
    }
    Ok(out)
}

/// `webcache stats`.
pub fn stats(args: &Args) -> Result<String, CliError> {
    let trace = input_dense(args)?;
    let policy = parse_spec(args.require("policy")?)?;
    let (capacity, warmup) = capacity_and_warmup(args, trace.overall_size())?;

    let window_spec = match (args.get_parsed::<u64>("window")?, args.get("window-bytes")) {
        (Some(_), Some(_)) => {
            return Err(usage("give at most one of --window and --window-bytes"));
        }
        (Some(0), None) => return Err(usage("--window must be at least 1 request")),
        (Some(n), None) => WindowSpec::Requests(n),
        (None, Some(raw)) => WindowSpec::Bytes(
            parse_capacity(raw)
                .map_err(usage)?
                .resolve(trace.overall_size()),
        ),
        (None, None) => {
            // Default: a tenth of the measured region per window.
            let warmup_end = ((trace.len() as f64) * warmup).floor() as usize;
            let measured = trace.len().saturating_sub(warmup_end);
            WindowSpec::Requests(((measured / 10).max(1)) as u64)
        }
    };

    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(warmup)
        .build();
    let mut metrics = WindowedMetrics::new(window_spec);
    Simulator::from_spec(policy, config).run_dense_observed(&trace, &mut metrics);

    let want_json = args.switch("json");
    let want_csv = args.switch("csv");
    let mut out = String::new();
    if want_json || !want_csv {
        out.push_str(&window_json(&metrics));
    }
    if want_csv || !want_json {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&window_csv(&metrics));
    }
    Ok(out)
}

/// Collects the policy list: the `--policies a,b,c` comma list merged
/// with every repeated `--policy SPEC` occurrence, in command-line
/// order; defaults to the paper's constant-cost four when neither flag
/// is given. Every entry goes through the spec grammar, so composed
/// admission specs (`tinylfu+slru`) work wherever a policy list does.
fn parse_policies(args: &Args) -> Result<Vec<PolicySpec>, CliError> {
    let mut specs: Vec<PolicySpec> = Vec::new();
    if let Some(list) = args.get("policies") {
        for name in list.split(',') {
            specs.push(parse_spec(name.trim())?);
        }
    }
    for name in args.get_all("policy") {
        specs.push(parse_spec(name)?);
    }
    if specs.is_empty() {
        specs = PolicyKind::PAPER_CONSTANT
            .iter()
            .map(|&k| k.into())
            .collect();
    }
    Ok(specs)
}

/// `webcache profile`.
///
/// Runs an instrumented replay (policy-internal heap costs and inflation
/// via [`PolicyProbe`], request outcomes via [`ProfileObserver`]) plus a
/// span-timed capacity sweep, then writes three artifacts to `--out-dir`:
/// `trace.json` (chrome://tracing / Perfetto), `metrics.prom` (Prometheus
/// text exposition) and `metrics.json` (the same registry as JSON).
pub fn profile(args: &Args) -> Result<String, CliError> {
    let out_dir = std::path::Path::new(args.get("out-dir").unwrap_or("profile-out"));
    let quick = args.switch("quick");

    let clock = TraceClock::new();
    let mut main = TraceRecorder::new(&clock, 0, "main");

    // Input: an explicit trace, or a synthetic DFN workload.
    let trace = match (args.get("trace"), args.get("squid")) {
        (None, None) => {
            let denom = scale_denominator(args, if quick { 4096.0 } else { 256.0 })?;
            let seed: u64 = args.get_parsed("seed")?.unwrap_or(1);
            main.span("generate-trace", |_| {
                DenseTrace::build(&WorkloadProfile::dfn().scaled(1.0 / denom).build_trace(seed))
            })
        }
        _ => main.span("load-trace", |_| input_dense(args))?,
    };

    let policies = parse_policies(args)?;
    let cap_spec = match args.get("capacity") {
        Some(raw) => parse_capacity(raw).map_err(usage)?,
        None => CapacitySpec::FractionOfTrace(0.05),
    };
    let capacity = cap_spec.resolve(trace.overall_size());
    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(0.10)
        .build();

    // Instrumented replay: the probe sees each policy from the inside
    // (heap costs, inflation), the observer from the outside (hits,
    // misses, eviction pressure); both export through one registry.
    let registry = Registry::new();
    main.span("replay", |main| {
        for &policy in &policies {
            let label = policy.label();
            main.span(label.clone(), |_| {
                let probe = PolicyProbe::register(&registry, &label);
                let mut obs = ProfileObserver::register(&registry, &label);
                let mut config = config;
                config.admission_rule = policy.admission_or(config.admission_rule);
                Simulator::new(policy.replacement.build_instrumented(probe), config)
                    .run_dense_observed(&trace, &mut obs);
            });
        }
    });

    // Span-timed sweep: one chrome-trace track per worker, one span per
    // policy × capacity cell.
    let overall = trace.overall_size();
    let fractions: &[f64] = if quick {
        &[0.01, 0.05]
    } else {
        &[0.01, 0.05, 0.20]
    };
    let capacities: Vec<ByteSize> = fractions.iter().map(|&f| overall.fraction(f)).collect();
    let cells = policies.len() * capacities.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let workers = threads.clamp(1, cells);
    let mut worker_recorders: Vec<TraceRecorder> = (0..workers)
        .map(|i| TraceRecorder::new(&clock, i as u32 + 1, format!("sweep-worker-{i}")))
        .collect();
    main.begin("sweep");
    // The sweep's *timing* is the product here; its report is discarded
    // (`webcache sweep` renders it).
    let _ = CacheSizeSweep::new(policies.clone(), capacities).run_with_progress_recorded(
        &trace,
        threads,
        |_| {},
        &mut worker_recorders,
    );
    main.end();

    let (prom, metrics_json) = main.span("export", |_| {
        (registry.prometheus_text(), registry.json_snapshot())
    });

    let mut recorders = vec![main];
    recorders.extend(worker_recorders);
    let trace_json = chrome_trace_json(&recorders);

    fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join("trace.json");
    let prom_path = out_dir.join("metrics.prom");
    let json_path = out_dir.join("metrics.json");
    fs::write(&trace_path, &trace_json)?;
    fs::write(&prom_path, &prom)?;
    fs::write(&json_path, &metrics_json)?;

    let spans: usize = recorders.iter().map(|r| r.events().len()).sum();
    Ok(format!(
        "profiled {} requests @ {capacity}: {} policies replayed instrumented, \
         {cells} sweep cells on {workers} workers\n\
         {} spans -> {}\n\
         {} metric series -> {} / {}\n",
        trace.len(),
        policies.len(),
        spans,
        trace_path.display(),
        registry.len(),
        prom_path.display(),
        json_path.display(),
    ))
}

/// `webcache convert`.
pub fn convert(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    match (args.get("trace"), args.get("squid")) {
        (None, Some(input)) => {
            let (trace, stats) = load_squid(input)?;
            let buf = encode_trace(&trace, args.get("format"))?;
            fs::write(out, buf)?;
            Ok(format!(
                "converted {} log entries -> {} cacheable requests ({} dynamic, {} status, \
                 {} method, {} unsized dropped) -> {out}\n",
                stats.input,
                stats.output,
                stats.dropped_dynamic,
                stats.dropped_status,
                stats.dropped_method,
                stats.dropped_unsized,
            ))
        }
        (Some(input), None) => {
            // Re-encode an existing trace (e.g. text -> bin).
            let trace = load_trace(input)?;
            let buf = encode_trace(&trace, args.get("format"))?;
            fs::write(out, buf)?;
            Ok(format!(
                "converted {} requests ({} distinct documents, {}) -> {out}\n",
                trace.len(),
                trace.distinct_documents(),
                trace.requested_bytes(),
            ))
        }
        _ => Err(usage("give exactly one of --trace FILE or --squid FILE")),
    }
}
