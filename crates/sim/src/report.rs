//! The report sink API: every tabular artifact — sweep tables, serve
//! curves, fault tables, metrics snapshots — renders through one
//! [`Report`] trait and a [`ReportFormat`] selector, instead of a
//! parallel free function per (type, format) pair.

use crate::experiment::{AvailSweep, ServeSweep, ShareSweep};
use crate::faults::FaultReport;
use crate::SweepResult;
use decluster_obs::json::JsonValue;
use decluster_obs::MetricsSnapshot;
use std::fmt::Write as _;

/// Output format selector for [`Report::render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportFormat {
    /// Aligned plain-text table.
    Table,
    /// Plain-text table with every mean annotated by its ~95%
    /// confidence half-width. Reports without per-cell sampling
    /// distributions fall back to [`ReportFormat::Table`].
    TableWithCi,
    /// Comma-separated values with a header row.
    Csv,
    /// One JSON document (trailing newline included).
    Json,
}

/// A renderable report. Implemented by [`SweepResult`], [`FaultReport`],
/// and the observability [`MetricsSnapshot`], so binaries emit every
/// artifact through the same sink call.
pub trait Report {
    /// Renders this report in `format`.
    fn render(&self, format: ReportFormat) -> String;
}

/// A generic aligned plain-text table: optional title line, a
/// right-aligned header row, an optional dashed separator, and
/// right-aligned data rows (columns joined by two spaces).
///
/// This is the one rendering engine behind every `Table` /
/// `TableWithCi` output in the workspace; its layout is pinned byte for
/// byte by the tests below.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    /// Title printed on its own line (skipped when empty).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have one cell per header.
    pub rows: Vec<Vec<String>>,
    /// Whether to print a dashed separator under the header row.
    pub separator: bool,
}

impl TextTable {
    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(c, h)| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        if self.separator && !widths.is_empty() {
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
            );
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

fn fmt_cell(v: f64) -> String {
    if v.is_nan() {
        "-".to_owned()
    } else {
        format!("{v:.3}")
    }
}

impl SweepResult {
    fn column_headers(&self) -> Vec<String> {
        let mut headers: Vec<String> = vec![self.xlabel.clone()];
        headers.extend(self.series.iter().map(|s| s.name.clone()));
        headers.push("OPT".to_owned());
        headers
    }

    fn text_table(&self, with_ci: bool) -> TextTable {
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.xs.len());
        for (i, &x) in self.xs.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                if with_ci {
                    if s.means[i].is_nan() {
                        row.push("-".to_owned());
                    } else {
                        row.push(format!(
                            "{:.3} ±{:.3}",
                            s.means[i],
                            s.summaries[i].ci95_half_width()
                        ));
                    }
                } else {
                    row.push(fmt_cell(s.means[i]));
                }
            }
            row.push(fmt_cell(self.optimal[i]));
            rows.push(row);
        }
        TextTable {
            title: if with_ci {
                format!("{} (means ±95% CI)", self.title)
            } else {
                self.title.clone()
            },
            headers: self.column_headers(),
            rows,
            // The CI variant historically prints no separator line.
            separator: !with_ci,
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        let mut headers = vec![self.xlabel.replace(',', ";")];
        headers.extend(self.series.iter().map(|s| s.name.clone()));
        headers.push("OPT".to_owned());
        let _ = writeln!(out, "{}", headers.join(","));
        for (i, &x) in self.xs.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                row.push(if s.means[i].is_nan() {
                    String::new()
                } else {
                    format!("{}", s.means[i])
                });
            }
            row.push(format!("{}", self.optimal[i]));
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    fn json(&self) -> JsonValue {
        let numbers =
            |xs: &[f64]| JsonValue::Array(xs.iter().map(|&v| JsonValue::Number(v)).collect());
        let series = JsonValue::Array(
            self.series
                .iter()
                .map(|s| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::String(s.name.clone())),
                        ("means".into(), numbers(&s.means)),
                        (
                            "ci95".into(),
                            JsonValue::Array(
                                s.summaries
                                    .iter()
                                    .map(|sm| JsonValue::Number(sm.ci95_half_width()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("title".into(), JsonValue::String(self.title.clone())),
            ("xlabel".into(), JsonValue::String(self.xlabel.clone())),
            ("xs".into(), numbers(&self.xs)),
            ("optimal".into(), numbers(&self.optimal)),
            ("series".into(), series),
        ])
    }
}

impl Report for SweepResult {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Table => self.text_table(false).render(),
            ReportFormat::TableWithCi => self.text_table(true).render(),
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

impl FaultReport {
    fn text_table(&self) -> TextTable {
        let headers = [
            "method",
            "healthy RT",
            "degraded RT",
            "worst RT",
            "avail %",
            "served",
            "lost",
            "failover",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.3}", r.healthy.mean),
                    format!("{:.3}", r.degraded.mean),
                    format!("{:.0}", r.degraded.max),
                    format!("{:.1}", r.availability * 100.0),
                    format!("{}", r.served),
                    format!("{}", r.unavailable),
                    format!("{}", r.failover_buckets),
                ]
            })
            .collect();
        TextTable {
            title: self.title.clone(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows,
            separator: true,
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "method,healthy_mean_rt,degraded_mean_rt,degraded_max_rt,availability,served,unavailable,failover_buckets"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                r.name.replace(',', ";"),
                r.healthy.mean,
                r.degraded.mean,
                r.degraded.max,
                r.availability,
                r.served,
                r.unavailable,
                r.failover_buckets
            );
        }
        out
    }

    fn json(&self) -> JsonValue {
        let rows = JsonValue::Array(
            self.rows
                .iter()
                .map(|r| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::String(r.name.clone())),
                        ("healthy_mean_rt".into(), JsonValue::Number(r.healthy.mean)),
                        (
                            "degraded_mean_rt".into(),
                            JsonValue::Number(r.degraded.mean),
                        ),
                        ("degraded_max_rt".into(), JsonValue::Number(r.degraded.max)),
                        ("availability".into(), JsonValue::Number(r.availability)),
                        ("served".into(), JsonValue::Number(r.served as f64)),
                        (
                            "unavailable".into(),
                            JsonValue::Number(r.unavailable as f64),
                        ),
                        (
                            "failover_buckets".into(),
                            JsonValue::Number(r.failover_buckets as f64),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("title".into(), JsonValue::String(self.title.clone())),
            ("schedule".into(), JsonValue::String(self.schedule.clone())),
            ("rows".into(), rows),
        ])
    }
}

impl Report for FaultReport {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            // Fault rows carry no per-cell sampling distribution to
            // annotate, so TableWithCi degrades to the plain table.
            ReportFormat::Table | ReportFormat::TableWithCi => self.text_table().render(),
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

impl ServeSweep {
    fn text_table(&self) -> TextTable {
        let headers = [
            "rate q/s",
            "method",
            "achieved q/s",
            "mean ms",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "util",
            "in-flight",
        ];
        let mut rows = Vec::with_capacity(self.rates_qps.len() * self.curves.len());
        for ri in 0..self.rates_qps.len() {
            for curve in &self.curves {
                let p = &curve.points[ri];
                rows.push(vec![
                    format!("{:.3}", p.offered_qps),
                    curve.method.clone(),
                    format!("{:.3}", p.achieved_qps),
                    format!("{:.3}", p.mean_latency_ms),
                    format!("{:.3}", p.tail_ms.p50),
                    format!("{:.3}", p.tail_ms.p95),
                    format!("{:.3}", p.tail_ms.p99),
                    format!("{:.3}", p.utilization),
                    format!("{}", p.peak_in_flight),
                ]);
            }
        }
        TextTable {
            title: self.title.clone(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows,
            separator: true,
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rate_qps,method,achieved_qps,mean_latency_ms,p50_ms,p95_ms,p99_ms,utilization,peak_in_flight,knee_qps"
        );
        for ri in 0..self.rates_qps.len() {
            for curve in &self.curves {
                let p = &curve.points[ri];
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{}",
                    p.offered_qps,
                    curve.method.replace(',', ";"),
                    p.achieved_qps,
                    p.mean_latency_ms,
                    p.tail_ms.p50,
                    p.tail_ms.p95,
                    p.tail_ms.p99,
                    p.utilization,
                    p.peak_in_flight,
                    curve.knee_qps
                );
            }
        }
        out
    }

    fn json(&self) -> JsonValue {
        let curves = JsonValue::Array(
            self.curves
                .iter()
                .map(|c| {
                    let points = JsonValue::Array(
                        c.points
                            .iter()
                            .map(|p| {
                                JsonValue::Object(vec![
                                    ("offered_qps".into(), JsonValue::Number(p.offered_qps)),
                                    ("achieved_qps".into(), JsonValue::Number(p.achieved_qps)),
                                    (
                                        "mean_latency_ms".into(),
                                        JsonValue::Number(p.mean_latency_ms),
                                    ),
                                    ("p50_ms".into(), JsonValue::Number(p.tail_ms.p50)),
                                    ("p95_ms".into(), JsonValue::Number(p.tail_ms.p95)),
                                    ("p99_ms".into(), JsonValue::Number(p.tail_ms.p99)),
                                    ("utilization".into(), JsonValue::Number(p.utilization)),
                                    (
                                        "peak_in_flight".into(),
                                        JsonValue::Number(p.peak_in_flight as f64),
                                    ),
                                ])
                            })
                            .collect(),
                    );
                    JsonValue::Object(vec![
                        ("method".into(), JsonValue::String(c.method.clone())),
                        ("knee_qps".into(), JsonValue::Number(c.knee_qps)),
                        ("points".into(), points),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("title".into(), JsonValue::String(self.title.clone())),
            ("clients".into(), JsonValue::Number(self.clients as f64)),
            (
                "rates_qps".into(),
                JsonValue::Array(
                    self.rates_qps
                        .iter()
                        .map(|&r| JsonValue::Number(r))
                        .collect(),
                ),
            ),
            ("curves".into(), curves),
        ])
    }
}

impl Report for ServeSweep {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            // Serve rows carry exact tails rather than sampling CIs, so
            // TableWithCi degrades to the plain table.
            ReportFormat::Table | ReportFormat::TableWithCi => {
                let mut out = self.text_table().render();
                for c in &self.curves {
                    let _ = writeln!(out, "knee {}: {:.3} q/s", c.method, c.knee_qps);
                }
                out
            }
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

impl AvailSweep {
    fn text_table(&self) -> TextTable {
        let headers = [
            "faults",
            "r",
            "policy",
            "avail %",
            "served",
            "shed",
            "lost",
            "retries",
            "failovers",
            "q/s",
            "mean ms",
            "p99 ms",
            "RT x",
            "storage x",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.schedule.clone(),
                    format!("{}", p.replicas),
                    p.policy.name().to_owned(),
                    format!("{:.2}", p.availability * 100.0),
                    format!("{}", p.served),
                    format!("{}", p.shed),
                    format!("{}", p.lost),
                    format!("{}", p.retries),
                    format!("{}", p.failovers),
                    format!("{:.3}", p.achieved_qps),
                    format!("{:.3}", p.mean_latency_ms),
                    format!("{:.3}", p.tail_ms.p99),
                    format!("{:.3}", p.rt_overhead),
                    format!("{:.0}", p.storage_overhead),
                ]
            })
            .collect();
        TextTable {
            title: self.title.clone(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows,
            separator: true,
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "schedule,replicas,policy,availability,served,shed,lost,retries,timeouts,failovers,achieved_qps,mean_latency_ms,p50_ms,p95_ms,p99_ms,rt_overhead,storage_overhead"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                p.schedule.replace(',', ";"),
                p.replicas,
                p.policy.name(),
                p.availability,
                p.served,
                p.shed,
                p.lost,
                p.retries,
                p.timeouts,
                p.failovers,
                p.achieved_qps,
                p.mean_latency_ms,
                p.tail_ms.p50,
                p.tail_ms.p95,
                p.tail_ms.p99,
                p.rt_overhead,
                p.storage_overhead
            );
        }
        out
    }

    fn json(&self) -> JsonValue {
        let points = JsonValue::Array(
            self.points
                .iter()
                .map(|p| {
                    JsonValue::Object(vec![
                        ("schedule".into(), JsonValue::String(p.schedule.clone())),
                        ("replicas".into(), JsonValue::Number(f64::from(p.replicas))),
                        (
                            "policy".into(),
                            JsonValue::String(p.policy.name().to_owned()),
                        ),
                        ("availability".into(), JsonValue::Number(p.availability)),
                        ("served".into(), JsonValue::Number(p.served as f64)),
                        ("shed".into(), JsonValue::Number(p.shed as f64)),
                        ("lost".into(), JsonValue::Number(p.lost as f64)),
                        ("retries".into(), JsonValue::Number(p.retries as f64)),
                        ("timeouts".into(), JsonValue::Number(p.timeouts as f64)),
                        ("failovers".into(), JsonValue::Number(p.failovers as f64)),
                        ("achieved_qps".into(), JsonValue::Number(p.achieved_qps)),
                        (
                            "mean_latency_ms".into(),
                            JsonValue::Number(p.mean_latency_ms),
                        ),
                        ("p50_ms".into(), JsonValue::Number(p.tail_ms.p50)),
                        ("p95_ms".into(), JsonValue::Number(p.tail_ms.p95)),
                        ("p99_ms".into(), JsonValue::Number(p.tail_ms.p99)),
                        ("rt_overhead".into(), JsonValue::Number(p.rt_overhead)),
                        (
                            "storage_overhead".into(),
                            JsonValue::Number(p.storage_overhead),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("title".into(), JsonValue::String(self.title.clone())),
            ("method".into(), JsonValue::String(self.method.clone())),
            ("clients".into(), JsonValue::Number(self.clients as f64)),
            ("rate_qps".into(), JsonValue::Number(self.rate_qps)),
            ("points".into(), points),
        ])
    }
}

impl Report for AvailSweep {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            // Availability rows carry exact counts rather than sampling
            // CIs, so TableWithCi degrades to the plain table.
            ReportFormat::Table | ReportFormat::TableWithCi => self.text_table().render(),
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

impl ShareSweep {
    fn text_table(&self) -> TextTable {
        let headers = [
            "method",
            "overlap",
            "r",
            "unshared q/s",
            "shared q/s",
            "speedup",
            "mean ms",
            "shared ms",
            "windows",
            "merged",
            "pages saved",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.method.clone(),
                    format!("{:.2}", p.overlap),
                    format!("{}", p.replicas),
                    format!("{:.3}", p.unshared_qps),
                    format!("{:.3}", p.shared_qps),
                    format!("{:.3}", p.speedup()),
                    format!("{:.3}", p.unshared_mean_ms),
                    format!("{:.3}", p.shared_mean_ms),
                    format!("{}", p.windows),
                    format!("{}", p.merged_queries),
                    format!("{}", p.pages_saved),
                ]
            })
            .collect();
        TextTable {
            title: self.title.clone(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows,
            separator: true,
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "method,overlap,replicas,unshared_qps,shared_qps,speedup,unshared_mean_ms,shared_mean_ms,windows,merged_queries,pages_saved"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                p.method.replace(',', ";"),
                p.overlap,
                p.replicas,
                p.unshared_qps,
                p.shared_qps,
                p.speedup(),
                p.unshared_mean_ms,
                p.shared_mean_ms,
                p.windows,
                p.merged_queries,
                p.pages_saved
            );
        }
        out
    }

    fn json(&self) -> JsonValue {
        let points = JsonValue::Array(
            self.points
                .iter()
                .map(|p| {
                    JsonValue::Object(vec![
                        ("method".into(), JsonValue::String(p.method.clone())),
                        ("overlap".into(), JsonValue::Number(p.overlap)),
                        ("replicas".into(), JsonValue::Number(f64::from(p.replicas))),
                        ("unshared_qps".into(), JsonValue::Number(p.unshared_qps)),
                        ("shared_qps".into(), JsonValue::Number(p.shared_qps)),
                        ("speedup".into(), JsonValue::Number(p.speedup())),
                        (
                            "unshared_mean_ms".into(),
                            JsonValue::Number(p.unshared_mean_ms),
                        ),
                        ("shared_mean_ms".into(), JsonValue::Number(p.shared_mean_ms)),
                        ("windows".into(), JsonValue::Number(p.windows as f64)),
                        (
                            "merged_queries".into(),
                            JsonValue::Number(p.merged_queries as f64),
                        ),
                        (
                            "pages_saved".into(),
                            JsonValue::Number(p.pages_saved as f64),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("title".into(), JsonValue::String(self.title.clone())),
            ("clients".into(), JsonValue::Number(self.clients as f64)),
            ("rate_qps".into(), JsonValue::Number(self.rate_qps)),
            (
                "batch_window_ms".into(),
                JsonValue::Number(self.batch_window_ms),
            ),
            ("points".into(), points),
        ])
    }
}

impl Report for ShareSweep {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            // Share rows carry exact counts rather than sampling CIs, so
            // TableWithCi degrades to the plain table.
            ReportFormat::Table | ReportFormat::TableWithCi => {
                let mut out = self.text_table().render();
                if let Some(best) = self
                    .points
                    .iter()
                    .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
                {
                    let _ = writeln!(
                        out,
                        "best speedup {}: {:.3}x at overlap {:.2}, r={}",
                        best.method,
                        best.speedup(),
                        best.overlap,
                        best.replicas
                    );
                }
                out
            }
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

impl Report for MetricsSnapshot {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Table | ReportFormat::TableWithCi => self.render_text(),
            ReportFormat::Csv => self.render_csv(),
            ReportFormat::Json => format!("{}\n", self.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MethodSeries, Summary};

    fn sample() -> SweepResult {
        SweepResult {
            title: "demo".into(),
            xlabel: "area".into(),
            xs: vec![1.0, 4.0],
            optimal: vec![1.0, 1.0],
            series: vec![
                MethodSeries {
                    name: "DM".into(),
                    means: vec![1.0, 2.5],
                    summaries: vec![Summary::of(&[1.0]), Summary::of(&[2.5])],
                },
                MethodSeries {
                    name: "ECC".into(),
                    means: vec![1.0, f64::NAN],
                    summaries: vec![Summary::of(&[1.0]), Summary::of(&[])],
                },
            ],
        }
    }

    #[test]
    fn table_contains_headers_and_values() {
        let t = sample().render(ReportFormat::Table);
        assert!(t.contains("demo"));
        assert!(t.contains("DM"));
        assert!(t.contains("OPT"));
        assert!(t.contains("2.500"));
        // NaN renders as a dash.
        assert!(t.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn ci_table_annotates_means() {
        let t = sample().render(ReportFormat::TableWithCi);
        assert!(t.contains("±"));
        assert!(t.contains("95% CI"));
        // NaN points stay dashes.
        assert!(t.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn ci_table_from_real_experiment_has_finite_cis() {
        use decluster_grid::GridSpace;
        let r = crate::Experiment::new(GridSpace::new_2d(8, 8).unwrap(), 4)
            .with_queries_per_point(32)
            .run_size_sweep(&crate::workload::SizeSweep::explicit(vec![4]))
            .unwrap();
        let t = r.render(ReportFormat::TableWithCi);
        assert!(t.contains("±"));
        assert!(!t.contains("NaN"));
    }

    #[test]
    fn csv_roundtrips_structure() {
        let c = sample().render(ReportFormat::Csv);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "area,DM,ECC,OPT");
        assert_eq!(lines[1], "1,1,1,1");
        // NaN -> empty cell.
        assert_eq!(lines[2], "4,2.5,,1");
    }

    fn fault_sample() -> FaultReport {
        use crate::faults::FaultMethodStats;
        FaultReport {
            title: "fault demo".into(),
            schedule: "fail:1@5".into(),
            rows: vec![
                FaultMethodStats {
                    name: "DM".into(),
                    healthy: Summary::of(&[2.0, 2.0]),
                    degraded: Summary::of(&[2.0]),
                    served: 1,
                    unavailable: 1,
                    availability: 0.5,
                    failover_buckets: 0,
                },
                FaultMethodStats {
                    name: "DM+chain".into(),
                    healthy: Summary::of(&[2.0, 2.0]),
                    degraded: Summary::of(&[2.0, 4.0]),
                    served: 2,
                    unavailable: 0,
                    availability: 1.0,
                    failover_buckets: 3,
                },
            ],
        }
    }

    #[test]
    fn fault_table_shows_both_variants() {
        let t = fault_sample().render(ReportFormat::Table);
        assert!(t.contains("fault demo"));
        assert!(t.contains("DM+chain"));
        assert!(t.contains("avail %"));
        assert!(t.contains("50.0"));
        assert!(t.contains("100.0"));
    }

    #[test]
    fn fault_csv_has_one_row_per_variant() {
        let c = fault_sample().render(ReportFormat::Csv);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("method,healthy_mean_rt"));
        assert!(lines[1].starts_with("DM,"));
        assert!(lines[2].starts_with("DM+chain,"));
        assert!(lines[2].contains(",1,")); // availability 1
    }

    #[test]
    fn csv_escapes_commas_in_xlabel() {
        let mut s = sample();
        s.xlabel = "a,b".into();
        assert!(s.render(ReportFormat::Csv).starts_with("a;b,"));
    }

    #[test]
    fn table_layout_is_byte_stable() {
        // Pin the exact table layout: title, right-aligned headers,
        // dashed separator, aligned rows.
        let t = sample().render(ReportFormat::Table);
        let expected = "demo\n\
                        area     DM    ECC    OPT\n\
                        -------------------------\n\
                        \u{20}  1  1.000  1.000  1.000\n\
                        \u{20}  4  2.500      -  1.000\n";
        assert_eq!(t, expected);
    }

    #[test]
    fn ci_table_has_no_separator_line() {
        let t = sample().render(ReportFormat::TableWithCi);
        assert!(!t
            .lines()
            .any(|l| !l.is_empty() && l.chars().all(|c| c == '-')));
        assert!(t.starts_with("demo (means ±95% CI)\n"));
    }

    #[test]
    fn json_reports_parse_and_carry_the_rows() {
        use decluster_obs::json;
        let s = sample();
        let v = json::parse(s.render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(v.get("title").and_then(JsonValue::as_str), Some("demo"));
        assert!(matches!(v.get("series"), Some(JsonValue::Array(a)) if a.len() == 2));
        let f = fault_sample();
        let v = json::parse(f.render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(
            v.get("schedule").and_then(JsonValue::as_str),
            Some("fail:1@5")
        );
        assert!(matches!(v.get("rows"), Some(JsonValue::Array(a)) if a.len() == 2));
    }

    fn serve_sample() -> ServeSweep {
        use crate::experiment::{ServeCurve, ServePoint};
        use crate::stats::Quantiles;
        let point = |offered: f64, achieved: f64| ServePoint {
            offered_qps: offered,
            achieved_qps: achieved,
            mean_latency_ms: 42.0,
            tail_ms: Quantiles {
                p50: 40.0,
                p95: 80.0,
                p99: 99.0,
            },
            utilization: 0.5,
            peak_in_flight: 7,
            samples: vec![],
        };
        ServeSweep {
            title: "serve demo".into(),
            clients: 100,
            rates_qps: vec![5.0, 10.0],
            curves: vec![ServeCurve {
                method: "HCAM".into(),
                points: vec![point(5.0, 5.0), point(10.0, 8.0)],
                knee_qps: 5.0,
            }],
        }
    }

    #[test]
    fn serve_table_lists_rates_and_knees() {
        let t = serve_sample().render(ReportFormat::Table);
        assert!(t.contains("serve demo"));
        assert!(t.contains("p99 ms"));
        assert!(t.contains("HCAM"));
        assert!(t.trim_end().ends_with("knee HCAM: 5.000 q/s"));
    }

    #[test]
    fn serve_csv_has_one_row_per_cell() {
        let c = serve_sample().render(ReportFormat::Csv);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("rate_qps,method,achieved_qps"));
        assert!(lines[0].ends_with("knee_qps"));
        assert_eq!(lines[1], "5,HCAM,5,42,40,80,99,0.5,7,5");
        assert_eq!(lines[2], "10,HCAM,8,42,40,80,99,0.5,7,5");
    }

    #[test]
    fn serve_json_parses_and_carries_curves() {
        use decluster_obs::json;
        let v = json::parse(serve_sample().render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(
            v.get("title").and_then(JsonValue::as_str),
            Some("serve demo")
        );
        assert!(matches!(v.get("curves"), Some(JsonValue::Array(a)) if a.len() == 1));
    }

    fn avail_sample() -> AvailSweep {
        use crate::experiment::AvailPoint;
        use crate::faults::ReplicaPolicy;
        use crate::stats::Quantiles;
        let point = |policy, avail: f64, lost| AvailPoint {
            schedule: "fail:3@50".into(),
            replicas: 1,
            policy,
            availability: avail,
            served: 90,
            shed: 0,
            lost,
            retries: 2,
            timeouts: 3,
            failovers: 4,
            achieved_qps: 10.0,
            mean_latency_ms: 21.0,
            tail_ms: Quantiles {
                p50: 20.0,
                p95: 30.0,
                p99: 40.0,
            },
            rt_overhead: 1.25,
            storage_overhead: 2.0,
        };
        AvailSweep {
            title: "avail demo".into(),
            method: "HCAM".into(),
            clients: 100,
            rate_qps: 10.0,
            points: vec![
                point(ReplicaPolicy::PrimaryOnly, 0.9, 10),
                point(ReplicaPolicy::FailoverOnly, 1.0, 0),
            ],
        }
    }

    #[test]
    fn avail_table_lists_policies_and_overheads() {
        let t = avail_sample().render(ReportFormat::Table);
        assert!(t.contains("avail demo"));
        assert!(t.contains("primary"));
        assert!(t.contains("failover"));
        assert!(t.contains("90.00"));
        assert!(t.contains("100.00"));
        assert!(t.contains("1.250"));
        assert!(t.contains("storage x"));
    }

    #[test]
    fn avail_csv_has_one_row_per_cell() {
        let c = avail_sample().render(ReportFormat::Csv);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("schedule,replicas,policy,availability"));
        assert!(lines[0].ends_with("rt_overhead,storage_overhead"));
        assert_eq!(
            lines[1],
            "fail:3@50,1,primary,0.9,90,0,10,2,3,4,10,21,20,30,40,1.25,2"
        );
        assert_eq!(
            lines[2],
            "fail:3@50,1,failover,1,90,0,0,2,3,4,10,21,20,30,40,1.25,2"
        );
    }

    #[test]
    fn avail_json_parses_and_carries_points() {
        use decluster_obs::json;
        let v = json::parse(avail_sample().render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(v.get("method").and_then(JsonValue::as_str), Some("HCAM"));
        assert!(matches!(v.get("points"), Some(JsonValue::Array(a)) if a.len() == 2));
    }

    fn share_sample() -> ShareSweep {
        use crate::experiment::SharePoint;
        let point = |overlap: f64, shared_qps: f64, pages_saved| SharePoint {
            method: "HCAM".into(),
            overlap,
            replicas: 1,
            unshared_qps: 10.0,
            shared_qps,
            unshared_mean_ms: 21.0,
            shared_mean_ms: 18.0,
            windows: 5,
            merged_queries: 8,
            pages_saved,
        };
        ShareSweep {
            title: "share demo".into(),
            clients: 100,
            rate_qps: 10.0,
            batch_window_ms: 4.0,
            points: vec![point(0.0, 10.0, 0), point(0.8, 15.0, 640)],
        }
    }

    #[test]
    fn share_table_lists_speedups_and_best_line() {
        let t = share_sample().render(ReportFormat::Table);
        assert!(t.contains("share demo"));
        assert!(t.contains("pages saved"));
        assert!(t.contains("1.500"));
        assert!(t
            .trim_end()
            .ends_with("best speedup HCAM: 1.500x at overlap 0.80, r=1"));
    }

    #[test]
    fn share_csv_has_one_row_per_cell() {
        let c = share_sample().render(ReportFormat::Csv);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("method,overlap,replicas,unshared_qps"));
        assert!(lines[0].ends_with("pages_saved"));
        assert_eq!(lines[1], "HCAM,0,1,10,10,1,21,18,5,8,0");
        assert_eq!(lines[2], "HCAM,0.8,1,10,15,1.5,21,18,5,8,640");
    }

    #[test]
    fn share_json_parses_and_carries_points() {
        use decluster_obs::json;
        let v = json::parse(share_sample().render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(
            v.get("title").and_then(JsonValue::as_str),
            Some("share demo")
        );
        assert!(matches!(v.get("points"), Some(JsonValue::Array(a)) if a.len() == 2));
    }

    #[test]
    fn metrics_snapshot_renders_through_report() {
        use decluster_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        reg.counter_add("rt.queries", 4);
        let snap = reg.snapshot();
        assert!(snap.render(ReportFormat::Table).contains("rt.queries"));
        assert!(snap
            .render(ReportFormat::Csv)
            .contains("counter,rt.queries,4"));
        let json = snap.render(ReportFormat::Json);
        assert!(decluster_obs::json::parse(json.trim_end()).is_ok());
    }

    #[test]
    fn text_table_handles_empty_rows() {
        let t = TextTable {
            title: String::new(),
            headers: vec!["a".into()],
            rows: vec![],
            separator: true,
        };
        assert_eq!(t.render(), "a\n-\n");
    }
}
