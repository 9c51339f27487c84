//! Plain-text table rendering for experiment output, shaped like the
//! paper's tables.

/// Renders a fixed-width text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    " {:<width$} ",
                    c,
                    width = widths.get(i).copied().unwrap_or(0)
                )
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a float with three decimals (the paper's precision).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats seconds adaptively (ms below one second).
pub fn secs(x: f64) -> String {
    if x < 1.0 {
        format!("{:.1}ms", x * 1e3)
    } else {
        format!("{x:.2}s")
    }
}

/// Formats value-cache counters as `hits/misses`.
pub fn cache_cell(c: &dr_core::CacheStats) -> String {
    format!("{}/{}", c.hits(), c.misses())
}

/// Formats resilience counters as `degraded/failed/quarantined/retried`.
pub fn resilience_cell(r: &dr_core::ResilienceReport) -> String {
    format!(
        "{}/{}/{}/{}",
        r.degraded, r.failed, r.quarantined, r.retried
    )
}

/// Formats disk-snapshot counters as `warm/cold/rejected/saves`.
pub fn snapshot_cell(s: &dr_core::SnapshotStats) -> String {
    format!(
        "{}/{}/{}/{}",
        s.warm_loads, s.cold_loads, s.rejected, s.saves
    )
}

/// Formats phase timings as `prewarm+repair`.
pub fn phases_cell(t: &dr_core::PhaseTimings) -> String {
    format!(
        "{}+{}",
        secs(t.prewarm.as_secs_f64()),
        secs(t.repair.as_secs_f64())
    )
}

/// Renders a [`MetricsSnapshot`](dr_obs::MetricsSnapshot) as a compact
/// human-readable summary table: one row per counter family (summed over
/// label sets), gauges, and histogram quantiles.
pub fn metrics_summary(snap: &dr_obs::MetricsSnapshot) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut families: Vec<&str> = snap
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    families.sort_unstable();
    for name in families {
        let total = snap.counter_total(name);
        let value = if name.ends_with("_seconds") {
            secs(total as f64 / 1e9)
        } else {
            total.to_string()
        };
        rows.push(vec![name.to_owned(), "counter".into(), value]);
    }
    for g in &snap.gauges {
        rows.push(vec![g.name.clone(), "gauge".into(), g.value.to_string()]);
    }
    for h in &snap.histograms {
        let q = |p: Option<u64>| p.map_or_else(|| "-".to_owned(), |n| secs(n as f64 / 1e9));
        let quantiles = format!(
            "n={} p50={} p95={} p99={}",
            h.count,
            q(h.p50),
            q(h.p95),
            q(h.p99),
        );
        rows.push(vec![h.name.clone(), "histogram".into(), quantiles]);
    }
    render_table("METRICS SUMMARY", &["metric", "kind", "value"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let text = render_table(
            "TABLE",
            &["method", "P"],
            &[
                vec!["DRs".into(), "1.000".into()],
                vec!["KATARA(long)".into(), "0.730".into()],
            ],
        );
        assert!(text.contains("TABLE"));
        assert!(text.contains("KATARA(long)"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, separator, two rows + title.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.5), "0.500");
        assert_eq!(secs(0.0123), "12.3ms");
        assert_eq!(secs(2.5), "2.50s");
    }
}
