//! Post-mortem bundles and the `webcache inspect` reader.
//!
//! A **bundle** is a directory written by `webcache serve` when an
//! anomaly detector logs a warning: the flight recorder's retained
//! decision records (`flight.jsonl`), the full metrics registry at the
//! moment of detection (`registry.json`), and a small `manifest.json`
//! identifying the trigger. Bundles are rate limited exactly like the
//! warn log (one per anomaly cooldown) and capped by `--max-bundles`.
//!
//! `webcache inspect --bundle DIR` reads a bundle (or a bare
//! `flight.jsonl`) back and reports eviction forensics: per-type
//! eviction-age and reuse-distance-at-eviction histograms, wasted
//! evictions (victim re-requested within `--window`), the top-regret
//! documents, and the policy reason payloads attached to evictions.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use webcache_obs::bucket_index;
use webcache_obs::flight::{DecisionRecord, EventKind, FlightRecorder, ReasonKind};
use webcache_trace::DocumentType;

use crate::args::Args;
use crate::CliError;

/// Everything the bundle manifest records about the trigger.
#[derive(Debug)]
pub struct BundleMeta<'a> {
    /// Anomaly kind label (e.g. `hit_rate_collapse`).
    pub kind: &'a str,
    /// Document-type label of the trigger (`overall` for cache-wide
    /// detectors).
    pub doc_type: &'a str,
    /// Bundle sequence number within this serve run.
    pub seq: u32,
    /// Policy spec label of the replay.
    pub policy: &'a str,
    /// Configured cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Wall-clock milliseconds since the Unix epoch at detection.
    pub unix_ms: u128,
}

/// Writes one post-mortem bundle directory under `dir` and returns its
/// path. The directory name is `bundle-<unix_ms>-<seq>-<kind>`, so
/// bundles sort chronologically.
///
/// # Errors
///
/// Propagates filesystem failures creating or writing the bundle.
pub fn write_bundle(
    dir: &Path,
    meta: &BundleMeta<'_>,
    flight_jsonl: &str,
    registry_json: &str,
) -> std::io::Result<PathBuf> {
    let name = format!("bundle-{:013}-{:03}-{}", meta.unix_ms, meta.seq, meta.kind);
    let path = dir.join(name);
    fs::create_dir_all(&path)?;
    fs::write(path.join("flight.jsonl"), flight_jsonl)?;
    fs::write(path.join("registry.json"), registry_json)?;
    let manifest = format!(
        "{{\"kind\": \"{}\", \"doc_type\": \"{}\", \"seq\": {}, \"unix_ms\": {}, \
         \"policy\": \"{}\", \"capacity_bytes\": {}, \"records\": {}}}\n",
        meta.kind,
        meta.doc_type,
        meta.seq,
        meta.unix_ms,
        meta.policy,
        meta.capacity_bytes,
        flight_jsonl.lines().count(),
    );
    fs::write(path.join("manifest.json"), manifest)?;
    Ok(path)
}

/// `webcache inspect --bundle DIR [--window N] [--top N]`.
///
/// # Errors
///
/// [`CliError::Usage`] for missing flags, [`CliError::Input`] for
/// unparsable or missing records; I/O errors reading the bundle.
pub fn inspect(args: &Args) -> Result<String, CliError> {
    let bundle = args.require("bundle")?;
    let window: u64 = args.get_parsed("window")?.unwrap_or(1024);
    let top: usize = args.get_parsed("top")?.unwrap_or(10);
    let path = Path::new(bundle);
    let jsonl_path = if path.is_dir() {
        path.join("flight.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = fs::read_to_string(&jsonl_path)?;
    let records = FlightRecorder::parse_jsonl(&text)
        .map_err(|e| CliError::Input(format!("{}: {e}", jsonl_path.display())))?;
    if records.is_empty() {
        return Err(CliError::Input(format!(
            "{}: no decision records",
            jsonl_path.display()
        )));
    }
    let manifest = path
        .is_dir()
        .then(|| fs::read_to_string(path.join("manifest.json")).ok())
        .flatten();
    let report = analyze(&records, window);
    Ok(render(
        &jsonl_path.display().to_string(),
        manifest.as_deref(),
        &report,
        window,
        top,
    ))
}

/// Histogram over power-of-two buckets, binned by the registry's rule:
/// `buckets[i]` counts values in `[2^(i-1)+1, 2^i]` (bucket 0 is exactly
/// `0..=1`), and the last bucket every value above `2^(BUCKETS-2)`.
const BUCKETS: usize = 24;

fn bucket(value: u64) -> usize {
    bucket_index(value).min(BUCKETS - 1)
}

fn bucket_label(i: usize) -> String {
    if i == BUCKETS - 1 {
        format!(">{}", 1u64 << (i - 1))
    } else {
        format!("≤{}", 1u64 << i)
    }
}

/// Per-document-type eviction forensics.
#[derive(Debug, Default, Clone)]
struct TypeForensics {
    evictions: u64,
    wasted: u64,
    /// Requests between a victim's (latest) insert and its eviction.
    age_histogram: [u64; BUCKETS],
    /// Requests between an eviction and the victim's next request
    /// (evictions never re-requested inside the record set are counted
    /// separately in `never_reused`).
    reuse_histogram: [u64; BUCKETS],
    never_reused: u64,
}

/// One document's accumulated regret.
#[derive(Debug, Clone)]
struct DocRegret {
    doc: u64,
    doc_type: u8,
    wasted: u64,
    min_reuse_distance: u64,
}

/// Everything `inspect` reports, computed in one pass (plus a per-doc
/// access index for reuse distances).
#[derive(Debug)]
struct ForensicsReport {
    records: usize,
    evictions: u64,
    evictions_with_reason: u64,
    reason_counts: Vec<(ReasonKind, u64)>,
    per_type: Vec<(DocumentType, TypeForensics)>,
    top_regret: Vec<DocRegret>,
}

fn analyze(records: &[DecisionRecord], window: u64) -> ForensicsReport {
    use std::collections::HashMap;

    // Per-doc request indices of accesses (hit/miss/mod-miss), in order,
    // for next-access-after-eviction lookups.
    let mut accesses: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut last_insert: HashMap<u64, u64> = HashMap::new();
    for r in records {
        match r.event {
            EventKind::Hit | EventKind::Miss | EventKind::ModificationMiss => {
                accesses.entry(r.doc).or_default().push(r.index);
            }
            EventKind::Insert => {
                last_insert.insert(r.doc, r.index);
            }
            _ => {}
        }
    }

    let mut per_type: Vec<TypeForensics> = vec![TypeForensics::default(); DocumentType::ALL.len()];
    let mut reason_counts: HashMap<ReasonKind, u64> = HashMap::new();
    let mut regret: HashMap<u64, DocRegret> = HashMap::new();
    let mut evictions = 0u64;
    let mut evictions_with_reason = 0u64;
    // Replay in order so "last insert before this eviction" is exact.
    let mut insert_at: HashMap<u64, u64> = HashMap::new();
    for r in records {
        match r.event {
            EventKind::Insert => {
                insert_at.insert(r.doc, r.index);
            }
            EventKind::Evict => {
                evictions += 1;
                if r.reason.kind != ReasonKind::None {
                    evictions_with_reason += 1;
                }
                *reason_counts.entry(r.reason.kind).or_default() += 1;
                let t = (r.doc_type as usize).min(DocumentType::ALL.len() - 1);
                let forensics = &mut per_type[t];
                forensics.evictions += 1;
                if let Some(&inserted) = insert_at.get(&r.doc) {
                    forensics.age_histogram[bucket(r.index.saturating_sub(inserted))] += 1;
                }
                // Reuse distance: the victim's next access strictly after
                // the eviction.
                let next = accesses.get(&r.doc).and_then(|idx| {
                    let at = idx.partition_point(|&i| i <= r.index);
                    idx.get(at).copied()
                });
                match next {
                    Some(next) => {
                        let distance = next - r.index;
                        forensics.reuse_histogram[bucket(distance)] += 1;
                        if distance <= window {
                            forensics.wasted += 1;
                            let entry = regret.entry(r.doc).or_insert(DocRegret {
                                doc: r.doc,
                                doc_type: r.doc_type,
                                wasted: 0,
                                min_reuse_distance: u64::MAX,
                            });
                            entry.wasted += 1;
                            entry.min_reuse_distance = entry.min_reuse_distance.min(distance);
                        }
                    }
                    None => forensics.never_reused += 1,
                }
            }
            _ => {}
        }
    }

    let mut reason_counts: Vec<(ReasonKind, u64)> = reason_counts.into_iter().collect();
    reason_counts.sort_by_key(|&(kind, count)| (std::cmp::Reverse(count), kind.label()));
    let mut top_regret: Vec<DocRegret> = regret.into_values().collect();
    top_regret.sort_by_key(|d| (std::cmp::Reverse(d.wasted), d.min_reuse_distance, d.doc));

    ForensicsReport {
        records: records.len(),
        evictions,
        evictions_with_reason,
        reason_counts,
        per_type: DocumentType::ALL
            .iter()
            .map(|&ty| (ty, per_type[ty.index()].clone()))
            .collect(),
        top_regret,
    }
}

fn render_histogram(out: &mut String, histogram: &[u64; BUCKETS]) {
    let mut any = false;
    for (i, &count) in histogram.iter().enumerate() {
        if count > 0 {
            let _ = write!(out, " {}:{}", bucket_label(i), count);
            any = true;
        }
    }
    if !any {
        out.push_str(" (none)");
    }
}

fn render(
    source: &str,
    manifest: Option<&str>,
    report: &ForensicsReport,
    window: u64,
    top: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "bundle: {source}");
    if let Some(manifest) = manifest {
        let _ = writeln!(out, "manifest: {}", manifest.trim_end());
    }
    let _ = writeln!(
        out,
        "records: {} ({} evictions, {} with a policy reason payload)",
        report.records, report.evictions, report.evictions_with_reason
    );

    let _ = writeln!(out, "\neviction reasons:");
    if report.reason_counts.is_empty() {
        let _ = writeln!(out, "  (no evictions)");
    }
    for &(kind, count) in &report.reason_counts {
        let _ = writeln!(out, "  {:<14} {count}", kind.label());
    }

    let _ = writeln!(
        out,
        "\nwasted evictions (victim re-requested within {window} requests):"
    );
    let _ = writeln!(
        out,
        "  {:<13} {:>9} {:>7} {:>12} {:>6}",
        "type", "evictions", "wasted", "never-reused", "rate"
    );
    for (ty, f) in &report.per_type {
        let rate = if f.evictions > 0 {
            f.wasted as f64 / f.evictions as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<13} {:>9} {:>7} {:>12} {:>5.1}%",
            ty.label(),
            f.evictions,
            f.wasted,
            f.never_reused,
            100.0 * rate
        );
    }

    let _ = writeln!(
        out,
        "\neviction age (requests resident before eviction), per type:"
    );
    for (ty, f) in &report.per_type {
        if f.evictions == 0 {
            continue;
        }
        let _ = write!(out, "  {:<13}", ty.label());
        render_histogram(&mut out, &f.age_histogram);
        out.push('\n');
    }

    let _ = writeln!(
        out,
        "\nreuse distance at eviction (requests until the victim returns), per type:"
    );
    for (ty, f) in &report.per_type {
        if f.evictions == 0 {
            continue;
        }
        let _ = write!(out, "  {:<13}", ty.label());
        render_histogram(&mut out, &f.reuse_histogram);
        out.push('\n');
    }

    let _ = writeln!(out, "\ntop regret documents (most wasted evictions first):");
    if report.top_regret.is_empty() {
        let _ = writeln!(out, "  (no wasted evictions in the record window)");
    }
    for d in report.top_regret.iter().take(top) {
        let ty = DocumentType::ALL
            .get(d.doc_type as usize)
            .map_or("?", |t| t.label());
        let _ = writeln!(
            out,
            "  doc {:<12} ({ty}): {} wasted eviction{}, min reuse distance {}",
            d.doc,
            d.wasted,
            if d.wasted == 1 { "" } else { "s" },
            d.min_reuse_distance
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use webcache_obs::flight::Reason;

    fn rec(index: u64, doc: u64, event: EventKind, reason: Reason) -> DecisionRecord {
        DecisionRecord {
            index,
            doc,
            doc_type: DocumentType::Html.index() as u8,
            size: 100,
            event,
            reason,
        }
    }

    /// doc 1: inserted at 0, evicted at 5 (age 5), re-requested at 7
    /// (reuse distance 2 → wasted). doc 2: inserted at 1, evicted at 6,
    /// never again (never_reused).
    fn sample() -> Vec<DecisionRecord> {
        vec![
            rec(0, 1, EventKind::Miss, Reason::none()),
            rec(0, 1, EventKind::Insert, Reason::none()),
            rec(1, 2, EventKind::Miss, Reason::none()),
            rec(1, 2, EventKind::Insert, Reason::none()),
            rec(5, 1, EventKind::Evict, Reason::greedy_dual(1.5, 0.5)),
            rec(6, 2, EventKind::Evict, Reason::greedy_dual(2.0, 1.5)),
            rec(7, 1, EventKind::Miss, Reason::none()),
        ]
    }

    #[test]
    fn analyze_finds_wasted_and_never_reused_evictions() {
        let report = analyze(&sample(), 16);
        assert_eq!(report.evictions, 2);
        assert_eq!(report.evictions_with_reason, 2);
        assert_eq!(report.reason_counts, vec![(ReasonKind::GreedyDual, 2)]);
        let html = &report.per_type[DocumentType::Html.index()].1;
        assert_eq!(html.evictions, 2);
        assert_eq!(html.wasted, 1);
        assert_eq!(html.never_reused, 1);
        // Age 5 lands in the ≤8 bucket (index 3); reuse distance 2 in ≤2.
        assert_eq!(html.age_histogram[bucket(5)], 2, "both victims aged 5");
        assert_eq!(html.reuse_histogram[bucket(2)], 1);
        assert_eq!(report.top_regret.len(), 1);
        assert_eq!(report.top_regret[0].doc, 1);
        assert_eq!(report.top_regret[0].min_reuse_distance, 2);
    }

    /// Doc 1 is inserted at 0, evicted at 1 and requested again at 3:
    /// the eviction age 1 renders in `≤1`, the reuse distance 2 in `≤2`.
    #[test]
    fn powers_of_two_render_in_their_own_bucket() {
        let records = vec![
            rec(0, 1, EventKind::Miss, Reason::none()),
            rec(0, 1, EventKind::Insert, Reason::none()),
            rec(1, 2, EventKind::Miss, Reason::none()),
            rec(1, 2, EventKind::Insert, Reason::none()),
            rec(1, 1, EventKind::Evict, Reason::greedy_dual(1.5, 0.5)),
            rec(3, 1, EventKind::Miss, Reason::none()),
        ];
        let text = render("test.jsonl", None, &analyze(&records, 16), 16, 10);
        let row_after = |header: &str| {
            let rest = text.split(header).nth(1).expect("section present");
            rest.lines().nth(1).expect("a row").to_string()
        };
        assert_eq!(row_after("eviction age"), format!("  {:<13} ≤1:1", "HTML"));
        assert_eq!(
            row_after("reuse distance at eviction"),
            format!("  {:<13} ≤2:1", "HTML")
        );
        assert!(text.contains("min reuse distance 2"), "{text}");
        assert_eq!(bucket_label(bucket(1 << 22)), "≤4194304");
        assert_eq!(bucket_label(bucket((1 << 22) + 1)), ">4194304");
        assert_eq!(bucket_label(bucket(u64::MAX)), ">4194304");
    }

    #[test]
    fn tight_window_discounts_late_reuse() {
        let report = analyze(&sample(), 1);
        let html = &report.per_type[DocumentType::Html.index()].1;
        assert_eq!(html.wasted, 0, "distance 2 > window 1");
        assert!(report.top_regret.is_empty());
    }

    #[test]
    fn render_mentions_every_section() {
        let report = analyze(&sample(), 16);
        let text = render("test.jsonl", None, &report, 16, 10);
        for needle in [
            "records: 7 (2 evictions, 2 with a policy reason payload)",
            "greedy_dual",
            "wasted evictions",
            "eviction age",
            "reuse distance at eviction",
            "top regret documents",
            "doc 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn bundle_round_trips_through_inspect() {
        let dir =
            std::env::temp_dir().join(format!("webcache-forensics-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let jsonl: String = sample()
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let meta = BundleMeta {
            kind: "hit_rate_collapse",
            doc_type: "HTML",
            seq: 0,
            policy: "LRU",
            capacity_bytes: 4096,
            unix_ms: 1_700_000_000_000,
        };
        let bundle = write_bundle(&dir, &meta, &jsonl, "{\"metrics\": []}").unwrap();
        assert!(bundle
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("bundle-1700000000000-000-hit_rate_collapse"));

        let args = Args::parse(
            &[
                "--bundle".to_string(),
                bundle.display().to_string(),
                "--window".to_string(),
                "16".to_string(),
            ],
            &[],
        )
        .unwrap();
        let text = inspect(&args).unwrap();
        assert!(
            text.contains("2 evictions, 2 with a policy reason payload"),
            "{text}"
        );
        assert!(text.contains("\"kind\": \"hit_rate_collapse\""), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }
}
