//! Rendering sweep results as tables and CSV — the textual counterpart
//! of the paper's figures.

use serde::{Deserialize, Serialize};

use webcache_stats::Table;
use webcache_trace::{DocumentType, TypeMap};

use crate::experiment::SweepReport;
use crate::metrics::HitStats;
use crate::occupancy::OccupancySeries;
use crate::windowed::{WindowSpec, WindowedMetrics};

/// Which performance measure to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Fraction of requests served from cache.
    HitRate,
    /// Fraction of requested bytes served from cache.
    ByteHitRate,
}

impl Metric {
    /// Human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            Metric::HitRate => "Hit Rate",
            Metric::ByteHitRate => "Byte Hit Rate",
        }
    }
}

/// Renders one figure panel: the chosen metric as a function of cache
/// size, one column per policy, optionally restricted to one document
/// type.
///
/// This is the textual form of a single plot of Figure 2/3 (e.g. "Images
/// / Byte Hit Rate").
pub fn figure_panel(sweep: &SweepReport, metric: Metric, ty: Option<DocumentType>) -> Table {
    let policies = sweep.policies();
    let mut headers = vec!["Cache Size".to_owned()];
    headers.extend(policies.iter().map(|p| p.label()));
    let scope = match ty {
        Some(ty) => ty.label().to_owned(),
        None => "Overall".to_owned(),
    };
    let mut table = Table::new(headers).with_title(format!("{scope}: {}", metric.label()));
    for capacity in sweep.capacities() {
        let mut row = vec![capacity.to_string()];
        for &policy in &policies {
            let series = match metric {
                Metric::HitRate => sweep.hit_rate_series(policy, ty),
                Metric::ByteHitRate => sweep.byte_hit_rate_series(policy, ty),
            };
            let value = series
                .iter()
                .find(|&&(c, _)| c == capacity)
                .map(|&(_, v)| v);
            row.push(
                value
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.push_row(row);
    }
    table
}

/// Renders a full figure: panels for every main document type crossed
/// with both metrics, matching the layout of Figures 2 and 3 (hit rate
/// left, byte hit rate right, one row of panels per document type).
pub fn figure(sweep: &SweepReport, title: &str) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&"=".repeat(title.len()));
    out.push_str("\n\n");
    for ty in DocumentType::MAIN {
        for metric in [Metric::HitRate, Metric::ByteHitRate] {
            out.push_str(&figure_panel(sweep, metric, Some(ty)).render());
            out.push('\n');
        }
    }
    for metric in [Metric::HitRate, Metric::ByteHitRate] {
        out.push_str(&figure_panel(sweep, metric, None).render());
        out.push('\n');
    }
    out
}

/// Long-format CSV of every sweep cell:
/// `policy,capacity_bytes,doc_type,requests,hits,hit_rate,byte_hit_rate`.
pub fn sweep_csv(sweep: &SweepReport) -> String {
    let mut out =
        String::from("policy,capacity_bytes,doc_type,requests,hits,hit_rate,byte_hit_rate\n");
    for point in sweep.points() {
        let mut emit = |scope: &str, stats: &crate::metrics::HitStats| {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6}\n",
                point.policy.label(),
                point.capacity.as_u64(),
                scope,
                stats.requests,
                stats.hits,
                stats.hit_rate(),
                stats.byte_hit_rate(),
            ));
        };
        for (ty, stats) in point.report.by_type().iter() {
            emit(ty.label(), stats);
        }
        emit("Overall", &point.report.overall());
    }
    out
}

/// CSV of an occupancy series:
/// `request_index,<type>_doc_frac...,<type>_byte_frac...` — the data of
/// Figure 1.
pub fn occupancy_csv(series: &OccupancySeries) -> String {
    let mut out = String::from("request_index");
    for ty in DocumentType::ALL {
        out.push_str(&format!(",{}_doc_frac", ty.label().replace(' ', "_")));
    }
    for ty in DocumentType::ALL {
        out.push_str(&format!(",{}_byte_frac", ty.label().replace(' ', "_")));
    }
    out.push('\n');
    for s in series.samples() {
        out.push_str(&s.request_index.to_string());
        let fracs: TypeMap<f64> = s.document_fraction;
        for ty in DocumentType::ALL {
            out.push_str(&format!(",{:.6}", fracs[ty]));
        }
        for ty in DocumentType::ALL {
            out.push_str(&format!(",{:.6}", s.byte_fraction[ty]));
        }
        out.push('\n');
    }
    out
}

/// Long-format CSV of a windowed time series: one row per window ×
/// (document type + `Overall`). The churn columns describe the whole
/// window and are repeated on every row of it.
pub fn window_csv(metrics: &WindowedMetrics) -> String {
    let mut out = String::from(
        "window,start_index,end_index,doc_type,requests,hits,hit_rate,byte_hit_rate,\
         bytes_requested,bytes_hit,modification_misses,\
         window_evictions,window_bytes_evicted,window_admission_rejects\n",
    );
    for (w, window) in metrics.windows().iter().enumerate() {
        let mut emit = |scope: &str, stats: &HitStats| {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{}\n",
                w,
                window.start_index,
                window.end_index,
                scope,
                stats.requests,
                stats.hits,
                stats.hit_rate(),
                stats.byte_hit_rate(),
                stats.bytes_requested,
                stats.bytes_hit,
                stats.modification_misses,
                window.churn.evictions,
                window.churn.bytes_evicted,
                window.churn.admission_rejects,
            ));
        };
        for (ty, stats) in window.by_type.iter() {
            emit(ty.label(), stats);
        }
        emit("Overall", &window.overall());
    }
    out
}

/// JSON document of a windowed time series (hand-rendered; the workspace
/// is offline and carries no real serde backend).
///
/// Shape: `{ spec, warmup_end, total_requests, capacity_bytes,
/// warmup_churn, windows: [ { start_index, end_index, churn, overall,
/// by_type: { <label>: stats } } ] }`.
pub fn window_json(metrics: &WindowedMetrics) -> String {
    fn stats_json(s: &HitStats) -> String {
        format!(
            "{{\"requests\":{},\"hits\":{},\"hit_rate\":{:.6},\"byte_hit_rate\":{:.6},\
             \"bytes_requested\":{},\"bytes_hit\":{},\"modification_misses\":{}}}",
            s.requests,
            s.hits,
            s.hit_rate(),
            s.byte_hit_rate(),
            s.bytes_requested,
            s.bytes_hit,
            s.modification_misses,
        )
    }
    fn churn_json(c: &crate::windowed::ChurnCounters) -> String {
        format!(
            "{{\"evictions\":{},\"bytes_evicted\":{},\"admission_rejects\":{}}}",
            c.evictions, c.bytes_evicted, c.admission_rejects,
        )
    }

    let mut out = String::from("{\n");
    let spec = match metrics.spec() {
        WindowSpec::Requests(n) => format!("{{\"kind\":\"requests\",\"size\":{n}}}"),
        WindowSpec::Bytes(b) => format!("{{\"kind\":\"bytes\",\"size\":{}}}", b.as_u64()),
    };
    out.push_str(&format!("  \"spec\": {spec},\n"));
    match metrics.meta() {
        Some(meta) => {
            out.push_str(&format!("  \"warmup_end\": {},\n", meta.warmup_end));
            out.push_str(&format!("  \"total_requests\": {},\n", meta.total_requests));
            out.push_str(&format!(
                "  \"capacity_bytes\": {},\n",
                meta.capacity.as_u64()
            ));
        }
        None => {
            out.push_str("  \"warmup_end\": null,\n");
            out.push_str("  \"total_requests\": null,\n");
            out.push_str("  \"capacity_bytes\": null,\n");
        }
    }
    out.push_str(&format!(
        "  \"warmup_churn\": {},\n",
        churn_json(&metrics.warmup_churn())
    ));
    out.push_str("  \"windows\": [\n");
    let last = metrics.windows().len().saturating_sub(1);
    for (i, w) in metrics.windows().iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"start_index\":{},\"end_index\":{},\"churn\":{},\"overall\":{},\"by_type\":{{",
            w.start_index,
            w.end_index,
            churn_json(&w.churn),
            stats_json(&w.overall()),
        ));
        let mut first = true;
        for (ty, stats) in w.by_type.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", ty.label(), stats_json(stats)));
        }
        out.push_str("}}");
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::CacheSizeSweep;
    use webcache_core::PolicyKind;
    use webcache_trace::{ByteSize, DenseTrace, DocId, Request, Timestamp, Trace};

    fn sweep() -> SweepReport {
        let trace = DenseTrace::from_requests(
            (0..200u32).map(|i| (u64::from(i % 13), 400, DocumentType::Image)),
        );
        CacheSizeSweep::new(
            vec![PolicyKind::Lru, PolicyKind::LfuDa],
            vec![ByteSize::new(1_000), ByteSize::new(8_000)],
        )
        .run_with_threads(&trace, 2)
    }

    #[test]
    fn panel_has_one_row_per_capacity() {
        let s = sweep();
        let t = figure_panel(&s, Metric::HitRate, Some(DocumentType::Image));
        assert_eq!(t.len(), 2);
        let text = t.render();
        assert!(text.contains("LRU"));
        assert!(text.contains("LFU-DA"));
        assert!(text.contains("Images"));
    }

    #[test]
    fn figure_contains_all_panels() {
        let s = sweep();
        let text = figure(&s, "Figure 2 analogue");
        for label in ["Images", "HTML", "Multi Media", "Application", "Overall"] {
            assert!(text.contains(label), "missing {label}");
        }
        assert!(text.contains("Hit Rate"));
        assert!(text.contains("Byte Hit Rate"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = sweep();
        let csv = sweep_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("policy,capacity_bytes"));
        // 2 policies × 2 capacities × (5 types + overall).
        assert_eq!(lines.len() - 1, 2 * 2 * 6);
        assert!(csv.contains("LFU-DA"));
    }

    #[test]
    fn occupancy_csv_shape() {
        use crate::occupancy::OccupancySample;
        use webcache_core::Cache;
        let mut cache = Cache::new(ByteSize::new(100), PolicyKind::Lru.build());
        cache.insert(DocId::new(1), DocumentType::Html, ByteSize::new(10));
        let mut series = OccupancySeries::new();
        series.push(OccupancySample::capture(5, &cache));
        let csv = occupancy_csv(&series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].matches(",").count(),
            10,
            "1 index + 10 fraction columns"
        );
        assert!(lines[1].starts_with('5'));
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Metric::HitRate.label(), "Hit Rate");
        assert_eq!(Metric::ByteHitRate.label(), "Byte Hit Rate");
    }

    fn windowed() -> WindowedMetrics {
        use crate::{SimulationConfig, Simulator};
        let trace: Trace = (0..200u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new(i % 13),
                    DocumentType::Image,
                    ByteSize::new(400),
                )
            })
            .collect();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(2_000))
            .build();
        let mut metrics = WindowedMetrics::per_requests(60);
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut metrics);
        metrics
    }

    #[test]
    fn window_csv_shape() {
        let metrics = windowed();
        let csv = window_csv(&metrics);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("window,start_index,end_index,doc_type"));
        // 180 measured requests -> 3 windows, 5 types + overall per window.
        assert_eq!(metrics.windows().len(), 3);
        assert_eq!(lines.len() - 1, 3 * 6);
        assert!(csv.contains("Overall"));
        assert!(csv.contains("Images"));
    }

    #[test]
    fn window_json_is_balanced_and_carries_meta() {
        let metrics = windowed();
        let json = window_json(&metrics);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"warmup_end\": 20"));
        assert!(json.contains("\"total_requests\": 200"));
        assert!(json.contains("\"capacity_bytes\": 2000"));
        assert!(json.contains("\"kind\":\"requests\",\"size\":60"));
        assert_eq!(json.matches("\"start_index\"").count(), 3);
        assert!(json.contains("\"Images\""));
    }

    #[test]
    fn empty_window_series_renders_null_meta() {
        let metrics = WindowedMetrics::per_bytes(ByteSize::new(100));
        let json = window_json(&metrics);
        assert!(json.contains("\"warmup_end\": null"));
        assert!(json.contains("\"kind\":\"bytes\",\"size\":100"));
        assert_eq!(window_csv(&metrics).lines().count(), 1, "header only");
    }
}
