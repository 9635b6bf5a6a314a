//! End-to-end tests of the CLI surface, driving `webcache_cli::run`
//! through temp files: generate → characterize → simulate → sweep, and
//! the Squid conversion path.

use std::fs;
use std::path::PathBuf;

use webcache_cli::{run, CliError};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// A unique temp path per test.
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("webcache-cli-test-{}-{name}", std::process::id()));
    p
}

fn generate_trace(name: &str) -> PathBuf {
    let path = temp_path(name);
    let out = run(&argv(&format!(
        "generate --profile dfn --scale 2048 --seed 5 --out {}",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("wrote"), "{out}");
    path
}

#[test]
fn generate_then_characterize() {
    let path = generate_trace("char.wct");
    let out = run(&argv(&format!(
        "characterize --trace {} --name DFN-mini",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("DFN-mini"));
    assert!(out.contains("Distinct Documents"));
    assert!(out.contains("Multi Media"));
    assert!(out.contains("alpha"));
    fs::remove_file(path).ok();
}

#[test]
fn simulate_reports_per_type_rates() {
    let path = generate_trace("sim.wct");
    let out = run(&argv(&format!(
        "simulate --trace {} --policy gd*1 --capacity 5% --warmup 0.1",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("GD*(1)"), "{out}");
    assert!(out.contains("Overall"));
    assert!(out.contains("hit rate"));
    fs::remove_file(path).ok();
}

#[test]
fn simulate_with_occupancy_emits_csv() {
    let path = generate_trace("occ.wct");
    let out = run(&argv(&format!(
        "simulate --trace {} --policy lru --capacity 64KiB --occupancy 5",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("request_index"), "{out}");
    fs::remove_file(path).ok();
}

#[test]
fn sweep_renders_panels_and_csv() {
    let path = generate_trace("sweep.wct");
    let text = run(&argv(&format!(
        "sweep --trace {} --policies lru,gds1 --fractions 0.01,0.1",
        path.display()
    )))
    .unwrap();
    assert!(text.contains("Hit Rate"));
    assert!(text.contains("GDS(1)"));

    let csv = run(&argv(&format!(
        "sweep --trace {} --policies lru --fractions 0.05 --csv",
        path.display()
    )))
    .unwrap();
    assert!(csv.starts_with("policy,capacity_bytes"));
    assert_eq!(csv.lines().count(), 1 + 6, "1 policy x 1 size x 6 scopes");
    fs::remove_file(path).ok();
}

#[test]
fn sweep_single_shard_matches_default_and_bad_counts_error() {
    let path = generate_trace("shards.wct");
    let plain = run(&argv(&format!(
        "sweep --trace {} --policies lru,gd*p --fractions 0.01,0.05 --csv",
        path.display()
    )))
    .unwrap();
    let one_shard = run(&argv(&format!(
        "sweep --trace {} --policies lru,gd*p --fractions 0.01,0.05 --csv --shards 1",
        path.display()
    )))
    .unwrap();
    assert_eq!(plain, one_shard, "--shards 1 must not change results");

    let sharded = run(&argv(&format!(
        "sweep --trace {} --policies lru --fractions 0.05 --csv --shards 8",
        path.display()
    )))
    .unwrap();
    assert!(sharded.starts_with("policy,capacity_bytes"), "{sharded}");

    for bad in ["0", "6", "eight"] {
        let err = run(&argv(&format!(
            "sweep --trace {} --policies lru --fractions 0.05 --shards {bad}",
            path.display()
        )))
        .unwrap_err();
        assert!(
            err.to_string().contains("shard") || err.to_string().contains("usize"),
            "{err}"
        );
    }
    fs::remove_file(path).ok();
}

#[test]
fn sweep_accepts_repeated_composed_policy_specs() {
    let path = generate_trace("cohort.wct");
    // The modern cohort rides the same grid as the legacy roster:
    // repeated --policy flags carrying full specs, mixed with a
    // --policies comma list.
    let text = run(&argv(&format!(
        "sweep --trace {} --policies lru --policy tinylfu+slru --policy arc --policy s3fifo \
         --fractions 0.01,0.05",
        path.display()
    )))
    .unwrap();
    for label in ["LRU", "TinyLFU+SLRU", "ARC", "S3-FIFO"] {
        assert!(text.contains(label), "{label} missing from:\n{text}");
    }

    let csv = run(&argv(&format!(
        "sweep --trace {} --policy tinylfu+gd*p --fractions 0.05 --csv",
        path.display()
    )))
    .unwrap();
    assert!(csv.starts_with("policy,capacity_bytes"), "{csv}");
    assert!(csv.contains("TinyLFU+GD*(P)"), "{csv}");

    // A bad spec in either position is a usage error, not a panic.
    for bad in ["--policy tinylfu+nonsense", "--policies lru,frobnicate"] {
        let err = run(&argv(&format!(
            "sweep --trace {} {bad} --fractions 0.05",
            path.display()
        )))
        .unwrap_err();
        assert!(
            err.to_string().contains("nonsense") || err.to_string().contains("frobnicate"),
            "{err}"
        );
    }
    fs::remove_file(path).ok();
}

#[test]
fn simulate_composed_spec_reports_composed_label() {
    let path = generate_trace("composed.wct");
    let out = run(&argv(&format!(
        "simulate --trace {} --policy tinylfu+lru --capacity 1%",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("TinyLFU+LRU"), "{out}");
    assert!(out.contains("Overall"), "{out}");
    fs::remove_file(path).ok();
}

#[test]
fn convert_roundtrip_text_binary_dense() {
    // text -> binary via the CLI, then prove the zero-copy WCTB loader
    // sees exactly the same dense view as the text path.
    let text_path = generate_trace("rt.wct");
    let bin_path = temp_path("rt.wctb");
    let out = run(&argv(&format!(
        "convert --trace {} --out {} --format bin",
        text_path.display(),
        bin_path.display()
    )))
    .unwrap();
    assert!(out.contains("converted"), "{out}");

    let text_bytes = fs::read(&text_path).unwrap();
    let trace = webcache_trace::format::read_trace(text_bytes.as_slice()).unwrap();
    let from_text = webcache_trace::DenseTrace::build(&trace);

    let bin_bytes = fs::read(&bin_path).unwrap();
    assert_eq!(&bin_bytes[..4], b"WCTB");
    let from_binary = webcache_trace::DenseTrace::from_wctb_bytes(&bin_bytes).unwrap();
    assert_eq!(from_binary, from_text, "text->binary->dense == text->dense");

    // And back: binary -> text re-encodes to an equal trace.
    let text2_path = temp_path("rt2.wct");
    run(&argv(&format!(
        "convert --trace {} --out {} --format text",
        bin_path.display(),
        text2_path.display()
    )))
    .unwrap();
    let trace2 =
        webcache_trace::format::read_trace(fs::read(&text2_path).unwrap().as_slice()).unwrap();
    assert_eq!(trace2, trace);

    fs::remove_file(text_path).ok();
    fs::remove_file(bin_path).ok();
    fs::remove_file(text2_path).ok();
}

#[test]
fn stats_emits_windowed_json_and_csv() {
    let path = generate_trace("stats.wct");
    // Default: both JSON and CSV, window = a tenth of the measured region.
    let both = run(&argv(&format!(
        "stats --trace {} --policy gd*p --capacity 5% --warmup 0.1",
        path.display()
    )))
    .unwrap();
    assert!(both.contains("\"windows\": ["), "{both}");
    assert!(
        both.contains("window,start_index,end_index,doc_type"),
        "{both}"
    );
    assert!(both.contains("\"Images\""), "per-type JSON series: {both}");
    assert!(both.contains(",Images,"), "per-type CSV rows: {both}");
    assert!(both.contains("hit_rate"), "{both}");
    assert!(both.contains("byte_hit_rate"), "{both}");

    // --json alone drops the CSV; ten windows by default.
    let json = run(&argv(&format!(
        "stats --trace {} --policy lru --window 500 --json",
        path.display()
    )))
    .unwrap();
    assert!(!json.contains("window,start_index"), "{json}");
    assert!(
        json.contains("\"kind\":\"requests\",\"size\":500"),
        "{json}"
    );
    assert!(json.contains("\"evictions\""), "{json}");

    // --csv alone drops the JSON; byte windows accept capacity syntax.
    let csv = run(&argv(&format!(
        "stats --trace {} --policy lru --window-bytes 64KiB --csv",
        path.display()
    )))
    .unwrap();
    assert!(csv.starts_with("window,start_index"), "{csv}");
    assert!(csv.lines().count() > 1, "{csv}");
    fs::remove_file(path).ok();
}

#[test]
fn stats_usage_errors() {
    let path = generate_trace("stats-err.wct");
    for bad in [
        format!("stats --trace {} --policy lru --window 0", path.display()),
        format!(
            "stats --trace {} --policy lru --window 5 --window-bytes 1KiB",
            path.display()
        ),
        format!("stats --trace {} --policy nonsense", path.display()),
        "stats --policy lru".to_owned(),
    ] {
        assert!(run(&argv(&bad)).is_err(), "`{bad}` should fail");
    }
    fs::remove_file(path).ok();
}

/// The eight subcommands that read a trace file.
const TRACE_READERS: [&str; 8] = [
    "simulate --policy lru --capacity 1MiB",
    "stats --policy lru --capacity 1MiB",
    "serve --policy lru --capacity 1MiB",
    "sweep --policies lru --fractions 0.05",
    "hierarchy",
    "characterize",
    "profile --out-dir profile-forged",
    "convert --out convert-forged.wct",
];

#[test]
fn forged_binary_header_is_an_error_not_an_abort() {
    // A bare WCTB v1 header claiming 2^36 or 2^61 records: loading used
    // to size the trace from the claim and abort the process.
    for (shift, name) in [(36, "forged36.wctb"), (61, "forged61.wctb")] {
        let path = temp_path(name);
        let mut bytes = b"WCTB\x01\0\0\0".to_vec();
        bytes.extend_from_slice(&(1u64 << shift).to_le_bytes());
        fs::write(&path, bytes).unwrap();
        for cmd in TRACE_READERS {
            let err = run(&argv(&format!("{cmd} --trace {}", path.display()))).unwrap_err();
            assert!(
                matches!(&err, CliError::Trace(e) if e.to_string().contains("truncated record 0")),
                "{cmd}: {err}"
            );
        }
        fs::remove_file(path).ok();
    }
}

/// The binary exits 2 with a pointer to `webcache help` for a bad
/// command line, and 1 without it for bad input data.
#[test]
fn exit_status_tells_bad_data_from_a_bad_command_line() {
    let forged = temp_path("exit-forged.wctb");
    let mut bytes = b"WCTB\x01\0\0\0".to_vec();
    bytes.extend_from_slice(&(1u64 << 36).to_le_bytes());
    fs::write(&forged, bytes).unwrap();
    let flight = temp_path("exit-flight.jsonl");
    fs::write(&flight, "not a record\n").unwrap();
    let empty = temp_path("exit-empty.wct");
    fs::write(&empty, "").unwrap();
    let webcache = |args: String| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_webcache"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };
    for args in [
        format!("characterize --trace {}", forged.display()),
        format!("inspect --bundle {}", flight.display()),
        format!("serve --trace {}", empty.display()),
        format!(
            "simulate --policy lru --trace {}",
            temp_path("absent.wct").display()
        ),
    ] {
        let (code, stderr) = webcache(args.clone());
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args}: {stderr}");
        assert!(!stderr.contains("webcache help"), "{args}: {stderr}");
    }
    for args in [
        format!("characterize --trace {} --squid x", forged.display()),
        "generate --profile mars --out x".to_owned(),
        "frobnicate".to_owned(),
    ] {
        let (code, stderr) = webcache(args.clone());
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(
            stderr.contains("run `webcache help` for usage"),
            "{args}: {stderr}"
        );
    }
    for path in [forged, flight, empty] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn text_and_binary_forms_of_a_trace_print_identical_output() {
    // Every command but `convert` decodes a binary trace straight into
    // the dense view, and a text trace through a `Trace`: both loaders
    // must feed the same requests and the same overall size.
    let text_path = generate_trace("parity.wct");
    let bin_path = temp_path("parity.wctb");
    run(&argv(&format!(
        "convert --trace {} --out {} --format bin",
        text_path.display(),
        bin_path.display()
    )))
    .unwrap();
    for cmd in [
        "simulate --policy gd*(p) --capacity 5%",
        "simulate --policy oracle --capacity 5%",
        "simulate --policy lru --capacity 2% --warmup 0.2 --occupancy 4",
        "stats --policy gd*(p) --capacity 5%",
        "stats --policy lfu-da --window-bytes 1% --csv",
        "sweep --policies lru,gds1 --fractions 0.01,0.05 --csv",
        "hierarchy --leaves 3 --leaf-policy gds1",
        "characterize --name parity",
    ] {
        let out = |path: &PathBuf| run(&argv(&format!("{cmd} --trace {}", path.display())));
        let (text, binary) = (out(&text_path).unwrap(), out(&bin_path).unwrap());
        assert!(text.len() > 100, "{cmd}: {text}");
        assert_eq!(text, binary, "{cmd}");
    }
    fs::remove_file(text_path).ok();
    fs::remove_file(bin_path).ok();
}

#[test]
fn sweep_progress_switch_is_accepted() {
    let path = generate_trace("prog.wct");
    let csv = run(&argv(&format!(
        "sweep --trace {} --policies lru --fractions 0.05 --csv --progress",
        path.display()
    )))
    .unwrap();
    // Progress goes to stderr; stdout stays machine-readable.
    assert!(csv.starts_with("policy,capacity_bytes"), "{csv}");
    fs::remove_file(path).ok();
}

#[test]
fn convert_squid_log() {
    let log_path = temp_path("access.log");
    let out_path = temp_path("converted.wct");
    fs::write(
        &log_path,
        "\
100.000 5 c TCP_MISS/200 900 GET http://e.de/a.gif - DIRECT/- image/gif
100.500 5 c TCP_MISS/404 300 GET http://e.de/missing - DIRECT/- -
101.000 5 c TCP_MISS/200 900 GET http://e.de/cgi-bin/x - DIRECT/- text/html
102.000 5 c TCP_HIT/200 900 GET http://e.de/a.gif - NONE/- image/gif
",
    )
    .unwrap();
    let out = run(&argv(&format!(
        "convert --squid {} --out {}",
        log_path.display(),
        out_path.display()
    )))
    .unwrap();
    assert!(out.contains("2 cacheable requests"), "{out}");
    let sim = run(&argv(&format!(
        "simulate --trace {} --policy lru --capacity 10KiB --warmup 0",
        out_path.display()
    )))
    .unwrap();
    assert!(sim.contains("LRU"));
    fs::remove_file(log_path).ok();
    fs::remove_file(out_path).ok();
}

#[test]
fn characterize_accepts_squid_directly() {
    let log_path = temp_path("direct.log");
    fs::write(
        &log_path,
        "100.000 5 c TCP_MISS/200 900 GET http://e.de/a.gif - DIRECT/- image/gif\n",
    )
    .unwrap();
    let out = run(&argv(&format!(
        "characterize --squid {}",
        log_path.display()
    )))
    .unwrap();
    assert!(out.contains("Total Requests"));
    fs::remove_file(log_path).ok();
}

#[test]
fn usage_errors_are_reported() {
    for bad in [
        "generate --profile dfn", // missing --out
        "generate --profile mars --out /tmp/x",
        "simulate --policy lru",                     // missing input
        "simulate --trace a --squid b --policy lru", // both inputs
        "sweep --trace missing-file.wct",
        "simulate --trace missing-file.wct --policy nonsense",
        "generate --profile dfn --scale nan --out /tmp/x",
        "generate --profile dfn --scale inf --out /tmp/x",
        "profile --scale nan",
        "profile --scale inf",
    ] {
        assert!(run(&argv(bad)).is_err(), "`{bad}` should fail");
    }
    // Capacities that round to 0 bytes are usage errors, not an empty
    // cache's assertion.
    let path = generate_trace("usage.wct");
    for bad in [
        "simulate --policy lru --capacity 0.4",
        "stats --policy lru --capacity 0.4B",
        "hierarchy --leaf-capacity 0.4",
    ] {
        match run(&argv(&format!("{bad} --trace {}", path.display()))) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("at least 1 byte"), "{msg}"),
            other => panic!("`{bad}` should be a usage error, got {other:?}"),
        }
    }
    // Counts that size allocations are bounded before anything is built.
    for (bad, flag) in [
        (
            "sweep --policies lru --shards 4611686018427387904",
            "--shards",
        ),
        ("hierarchy --leaves 18446744073709551615", "--leaves"),
    ] {
        match run(&argv(&format!("{bad} --trace {}", path.display()))) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(flag), "{msg}"),
            other => panic!("`{bad}` should be a usage error, got {other:?}"),
        }
    }
    fs::remove_file(path).ok();
}

#[test]
fn binary_format_roundtrips_through_cli() {
    let path = temp_path("bin.wctb");
    let out = run(&argv(&format!(
        "generate --profile rtp --scale 2048 --seed 3 --out {} --format bin",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("wrote"), "{out}");
    // The file must carry the binary magic...
    let bytes = fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"WCTB");
    // ...and be loadable by every downstream subcommand transparently.
    let text = run(&argv(&format!(
        "simulate --trace {} --policy lfu-da --capacity 2%",
        path.display()
    )))
    .unwrap();
    assert!(text.contains("LFU-DA"), "{text}");
    fs::remove_file(path).ok();
}

#[test]
fn simulate_reports_latency_estimate() {
    let path = generate_trace("lat.wct");
    let out = run(&argv(&format!(
        "simulate --trace {} --policy lru --capacity 5%",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("estimated user latency"), "{out}");
    assert!(out.contains("saved vs no cache"), "{out}");
    fs::remove_file(path).ok();
}

#[test]
fn hierarchy_subcommand_reports_combined_rates() {
    let path = generate_trace("hier.wct");
    let out = run(&argv(&format!(
        "hierarchy --trace {} --leaves 2 --leaf-capacity 1% --parent-capacity 10% \
         --leaf-policy gd*1 --parent-policy gd*p",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("combined: hit rate"), "{out}");
    assert!(out.contains("GD*(1)"), "{out}");
    assert!(out.contains("GD*(P)"), "{out}");
    fs::remove_file(path).ok();
}

#[test]
fn oracle_policy_in_simulate() {
    let path = generate_trace("oracle.wct");
    let oracle = run(&argv(&format!(
        "simulate --trace {} --policy oracle --capacity 5%",
        path.display()
    )))
    .unwrap();
    assert!(oracle.contains("clairvoyant"), "{oracle}");
    let lru = run(&argv(&format!(
        "simulate --trace {} --policy lru --capacity 5%",
        path.display()
    )))
    .unwrap();
    // Extract the overall hit rates and compare: oracle must dominate.
    let rate = |text: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with("Overall"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|v| v.parse().ok())
            .expect("overall row")
    };
    assert!(rate(&oracle) >= rate(&lru), "oracle {oracle} vs lru {lru}");
    fs::remove_file(path).ok();
}

/// Two 10^19-byte documents, each requested twice, cannot be resident
/// together: their sizes sum past `u64::MAX`. At 100% the capacity
/// resolves to `u64::MAX` (the overall size saturates), which a
/// saturating `used + size` would equal. Online policies alternate the
/// two documents and never hit. The oracle keeps the second document and
/// does not cache the first one's last reference, so it hits once.
#[test]
fn documents_summing_past_u64_max_are_never_resident_together() {
    let path = temp_path("u64-edge.wct");
    fs::write(
        &path,
        "0 1 H 10000000000000000000\n1 2 H 10000000000000000000\n\
         2 1 H 10000000000000000000\n3 2 H 10000000000000000000\n",
    )
    .unwrap();
    // The Overall row's hits and byte hit rate: the four requests move
    // 4e19 bytes, so the byte sums pass `u64::MAX`.
    let overall = |policy: &str, capacity: &str| -> (String, String) {
        let out = run(&argv(&format!(
            "simulate --trace {} --policy {policy} --capacity {capacity} --warmup 0",
            path.display()
        )))
        .unwrap();
        let row: Vec<&str> = out
            .lines()
            .find(|l| l.starts_with("Overall"))
            .unwrap_or_else(|| panic!("no overall row: {out}"))
            .split_whitespace()
            .collect();
        (row[2].to_owned(), row[4].to_owned())
    };
    for capacity in ["100%", "99%"] {
        for (policy, hits, byte_hit_rate) in [
            ("lru", "0", "0.0000"),
            ("gd*(p)", "0", "0.0000"),
            ("oracle", "1", "0.2500"),
        ] {
            assert_eq!(
                overall(policy, capacity),
                (hits.to_owned(), byte_hit_rate.to_owned()),
                "{policy} at {capacity}"
            );
        }
    }
    // Two shards sum their per-shard byte counters past `u64::MAX` too.
    run(&argv(&format!(
        "sweep --trace {} --policies lru --fractions 0.99 --shards 2",
        path.display()
    )))
    .expect("a two-shard sweep of the trace");
    // The three evictions free 3e19 bytes in one window.
    let csv = run(&argv(&format!(
        "stats --trace {} --policy lru --capacity 99% --warmup 0 --window 4 --csv",
        path.display()
    )))
    .unwrap();
    let mut rows = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let header = rows.next().unwrap();
    let column = header
        .iter()
        .position(|&c| c == "window_bytes_evicted")
        .unwrap();
    let overall = rows.find(|r| r[3] == "Overall").expect("an overall row");
    assert_eq!(overall[column], "30000000000000000000", "{csv}");
    fs::remove_file(path).ok();
}

#[test]
fn profile_writes_valid_artifacts() {
    let dir = temp_path("profile-out");
    let out = run(&argv(&format!(
        "profile --quick --seed 11 --out-dir {}",
        dir.display()
    )))
    .unwrap();
    assert!(out.contains("profiled"), "{out}");

    // Chrome-trace artifact: valid JSON in the Trace Event Format.
    let trace_text = fs::read_to_string(dir.join("trace.json")).unwrap();
    let trace = webcache_obs::json::parse(&trace_text).expect("trace.json parses");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "spans were recorded");
    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut completes = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            "X" => {
                // Complete events carry name, timestamp, duration, track.
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
                assert!(ev.get("tid").and_then(|v| v.as_f64()).is_some());
                completes += 1;
            }
            "M" => {} // track-name metadata
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(begins, ends, "every B span has a matching E");
    assert!(completes >= 4, "replay + sweep spans present");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(names.contains(&"replay"), "{names:?}");
    assert!(names.contains(&"sweep"), "{names:?}");
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(tracks.contains(&"main"), "{tracks:?}");
    assert!(tracks.contains(&"sweep-worker-0"), "{tracks:?}");

    // Prometheus artifact: policy internals for the instrumented schemes.
    let prom = fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(
        prom.contains("# TYPE webcache_heap_ops_total counter"),
        "{prom}"
    );
    assert!(
        prom.contains("webcache_heap_sift_steps"),
        "heap-op histograms"
    );
    assert!(
        prom.contains("webcache_policy_inflation_l_trajectory{policy=\"GD*(1)\""),
        "GD* L trajectory exported"
    );
    assert!(
        prom.contains("webcache_sim_evict_scan_length_bucket"),
        "{prom}"
    );
    assert!(
        prom.contains("webcache_sim_hits_total{policy=\"LRU\"}"),
        "{prom}"
    );

    // JSON snapshot parses and mirrors the registry.
    let metrics_text = fs::read_to_string(dir.join("metrics.json")).unwrap();
    let metrics = webcache_obs::json::parse(&metrics_text).expect("metrics.json parses");
    for section in ["counters", "gauges", "histograms", "series"] {
        assert!(
            metrics.get(section).and_then(|v| v.as_array()).is_some(),
            "{section} section present"
        );
    }

    fs::remove_dir_all(dir).ok();
}

#[test]
fn profile_creates_nested_out_dir() {
    // Regression: --out-dir pointing at a directory whose parents don't
    // exist yet must be created recursively, not fail on the first
    // write.
    let root = temp_path("profile-nested");
    let dir = root.join("a/b/c");
    fs::remove_dir_all(&root).ok();
    let out = run(&argv(&format!(
        "profile --quick --seed 11 --out-dir {}",
        dir.display()
    )))
    .unwrap();
    assert!(out.contains("profiled"), "{out}");
    assert!(dir.join("metrics.prom").is_file());
    assert!(dir.join("metrics.json").is_file());
    assert!(dir.join("trace.json").is_file());
    fs::remove_dir_all(root).ok();
}

#[test]
fn switches_do_not_leak_across_subcommands() {
    // `--csv` belongs to sweep/stats; given to simulate it must error
    // instead of silently consuming the next flag as its value.
    let err = run(&argv("simulate --csv --trace x.wct --policy lru")).unwrap_err();
    assert!(
        err.to_string().contains("--csv") || err.to_string().contains("csv"),
        "{err}"
    );
    let err = run(&argv("generate --quick --profile dfn --out /tmp/x")).unwrap_err();
    assert!(err.to_string().contains("quick"), "{err}");
}

#[test]
fn markdown_switch_renders_pipes() {
    let path = generate_trace("md.wct");
    let out = run(&argv(&format!(
        "simulate --trace {} --policy lru --capacity 5% --markdown",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("| Type |"), "{out}");
    assert!(out.contains("| :-- |"), "{out}");
    fs::remove_file(path).ok();
}
