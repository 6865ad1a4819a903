//! The report sink API: every tabular artifact — sweep tables, serve
//! curves, fault tables, metrics snapshots — renders through one
//! [`Report`] trait and a [`ReportFormat`] selector. The fault, serve,
//! availability and share reports each declare their columns once, in
//! one `Column` list that renders the table, the CSV and the JSON.

use crate::experiment::{
    AvailPoint, AvailSweep, ServeCurve, ServePoint, ServeSweep, SharePoint, ShareSweep,
};
use crate::faults::{FaultMethodStats, FaultReport};
use crate::SweepResult;
use decluster_obs::json::JsonValue;
use decluster_obs::MetricsSnapshot;
use std::fmt::Write as _;
use Cell::{Int, Num, Percent, Text};

/// Output format selector for [`Report::render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportFormat {
    /// Aligned plain-text table.
    Table,
    /// Comma-separated values with a header row.
    Csv,
    /// One JSON document (trailing newline included).
    Json,
}

/// A renderable report. Implemented by [`SweepResult`], [`FaultReport`],
/// [`ServeSweep`], [`AvailSweep`], [`ShareSweep`] and the observability
/// [`MetricsSnapshot`], so binaries emit every artifact through the same
/// sink call.
pub trait Report {
    /// Renders this report in `format`.
    fn render(&self, format: ReportFormat) -> String;
}

/// A generic aligned plain-text table: optional title line, a
/// right-aligned header row, an optional dashed separator, and
/// right-aligned data rows (columns joined by two spaces).
///
/// This is the one rendering engine behind every `Table` output in the
/// workspace; its layout is pinned byte for byte by the tests below.
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
    fn text_table(&self) -> TextTable {
        let mut headers: Vec<String> = vec![self.xlabel.clone()];
        headers.extend(self.series.iter().map(|s| s.name.clone()));
        headers.push("OPT".to_owned());
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.xs.len());
        for (i, &x) in self.xs.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            for s in &self.series {
                row.push(fmt_cell(s.means[i]));
            }
            row.push(fmt_cell(self.optimal[i]));
            rows.push(row);
        }
        TextTable {
            title: self.title.clone(),
            headers,
            rows,
            separator: true,
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
            ReportFormat::Table => self.text_table().render(),
            ReportFormat::Csv => self.csv(),
            ReportFormat::Json => format!("{}\n", self.json()),
        }
    }
}

/// One typed cell of a column-list report.
enum Cell {
    /// Free text; the CSV swaps its commas for semicolons.
    Text(String),
    /// An exact count.
    Int(u64),
    /// A measurement the table prints with this many decimals.
    Num(f64, usize),
    /// A fraction the table prints as a percentage with this many
    /// decimals.
    Percent(f64, usize),
}

impl Cell {
    fn table(&self) -> String {
        match self {
            Text(s) => s.clone(),
            Int(n) => n.to_string(),
            Num(v, prec) => format!("{v:.prec$}"),
            Percent(v, prec) => format!("{:.prec$}", v * 100.0),
        }
    }

    /// The full value, unrounded.
    fn csv(&self) -> String {
        match self {
            Text(s) => s.replace(',', ";"),
            Int(n) => n.to_string(),
            Num(v, _) | Percent(v, _) => v.to_string(),
        }
    }

    fn json(self) -> JsonValue {
        match self {
            Text(s) => JsonValue::String(s),
            Int(n) => JsonValue::Number(n as f64),
            Num(v, _) | Percent(v, _) => JsonValue::Number(v),
        }
    }
}

/// One column over rows of type `R`: its table header (`None` for a
/// column only the CSV and the JSON carry), its CSV and JSON key, and
/// the accessor that reads its cell off a row.
struct Column<R> {
    header: Option<&'static str>,
    key: &'static str,
    cell: fn(&R) -> Cell,
}

/// A column of the table, the CSV and the JSON.
const fn col<R>(header: &'static str, key: &'static str, cell: fn(&R) -> Cell) -> Column<R> {
    Column {
        header: Some(header),
        key,
        cell,
    }
}

/// A column of the CSV and the JSON only.
const fn csv_col<R>(key: &'static str, cell: fn(&R) -> Cell) -> Column<R> {
    Column {
        header: None,
        key,
        cell,
    }
}

/// Renders `rows` through `columns`. The table shows the columns that
/// have a header; the CSV has one line per row under a line of keys;
/// the JSON is `{"title", "rows": [{key: value}]}`.
fn render_columns<R>(
    title: &str,
    columns: &[Column<R>],
    rows: &[R],
    format: ReportFormat,
) -> String {
    match format {
        ReportFormat::Table => {
            let shown = || columns.iter().filter(|c| c.header.is_some());
            TextTable {
                title: title.to_owned(),
                headers: shown()
                    .filter_map(|c| c.header.map(str::to_owned))
                    .collect(),
                rows: rows
                    .iter()
                    .map(|r| shown().map(|c| (c.cell)(r).table()).collect())
                    .collect(),
                separator: true,
            }
            .render()
        }
        ReportFormat::Csv => {
            let keys: Vec<&str> = columns.iter().map(|c| c.key).collect();
            let mut out = format!("{}\n", keys.join(","));
            for r in rows {
                let cells: Vec<String> = columns.iter().map(|c| (c.cell)(r).csv()).collect();
                let _ = writeln!(out, "{}", cells.join(","));
            }
            out
        }
        ReportFormat::Json => {
            let rows = rows
                .iter()
                .map(|r| {
                    let fields = columns
                        .iter()
                        .map(|c| (c.key.to_owned(), (c.cell)(r).json()));
                    JsonValue::Object(fields.collect())
                })
                .collect();
            let doc = JsonValue::Object(vec![
                ("title".into(), JsonValue::String(title.to_owned())),
                ("rows".into(), JsonValue::Array(rows)),
            ]);
            format!("{doc}\n")
        }
    }
}

const FAULT_COLUMNS: &[Column<FaultMethodStats>] = &[
    col("method", "method", |r| Text(r.name.clone())),
    col("healthy RT", "healthy_mean_rt", |r| Num(r.healthy.mean, 3)),
    col("degraded RT", "degraded_mean_rt", |r| {
        Num(r.degraded.mean, 3)
    }),
    col("worst RT", "degraded_max_rt", |r| Num(r.degraded.max, 0)),
    col("avail %", "availability", |r| Percent(r.availability, 1)),
    col("served", "served", |r| Int(r.served as u64)),
    col("lost", "unavailable", |r| Int(r.unavailable as u64)),
    col("failover", "failover_buckets", |r| Int(r.failover_buckets)),
];

impl Report for FaultReport {
    fn render(&self, format: ReportFormat) -> String {
        render_columns(&self.title, FAULT_COLUMNS, &self.rows, format)
    }
}

/// One serve row: a method's curve at one offered rate.
type ServeRow<'a> = (&'a ServeCurve, &'a ServePoint);

/// The serve columns. A function rather than a constant because its
/// rows borrow the sweep.
fn serve_columns<'a>() -> [Column<ServeRow<'a>>; 10] {
    [
        col("rate q/s", "rate_qps", |(_, p)| Num(p.offered_qps, 3)),
        col("method", "method", |(c, _)| Text(c.method.clone())),
        col("achieved q/s", "achieved_qps", |(_, p)| {
            Num(p.achieved_qps, 3)
        }),
        col("mean ms", "mean_latency_ms", |(_, p)| {
            Num(p.mean_latency_ms, 3)
        }),
        col("p50 ms", "p50_ms", |(_, p)| Num(p.tail_ms.p50, 3)),
        col("p95 ms", "p95_ms", |(_, p)| Num(p.tail_ms.p95, 3)),
        col("p99 ms", "p99_ms", |(_, p)| Num(p.tail_ms.p99, 3)),
        col("util", "utilization", |(_, p)| Num(p.utilization, 3)),
        col("in-flight", "peak_in_flight", |(_, p)| {
            Int(p.peak_in_flight as u64)
        }),
        csv_col("knee_qps", |(c, _)| Num(c.knee_qps, 3)),
    ]
}

impl Report for ServeSweep {
    fn render(&self, format: ReportFormat) -> String {
        let rows: Vec<ServeRow> = (0..self.rates_qps.len())
            .flat_map(|ri| self.curves.iter().map(move |c| (c, &c.points[ri])))
            .collect();
        let mut out = render_columns(&self.title, &serve_columns(), &rows, format);
        if format == ReportFormat::Table {
            for c in &self.curves {
                let _ = writeln!(out, "knee {}: {:.3} q/s", c.method, c.knee_qps);
            }
        }
        out
    }
}

const AVAIL_COLUMNS: &[Column<AvailPoint>] = &[
    col("faults", "schedule", |p| Text(p.schedule.clone())),
    col("r", "replicas", |p| Int(p.replicas.into())),
    col("policy", "policy", |p| Text(p.policy.name().to_owned())),
    col("avail %", "availability", |p| Percent(p.availability, 2)),
    col("served", "served", |p| Int(p.served)),
    col("shed", "shed", |p| Int(p.shed)),
    col("lost", "lost", |p| Int(p.lost)),
    col("retries", "retries", |p| Int(p.retries)),
    csv_col("timeouts", |p| Int(p.timeouts)),
    col("failovers", "failovers", |p| Int(p.failovers)),
    col("q/s", "achieved_qps", |p| Num(p.achieved_qps, 3)),
    col("mean ms", "mean_latency_ms", |p| Num(p.mean_latency_ms, 3)),
    csv_col("p50_ms", |p| Num(p.tail_ms.p50, 3)),
    csv_col("p95_ms", |p| Num(p.tail_ms.p95, 3)),
    col("p99 ms", "p99_ms", |p| Num(p.tail_ms.p99, 3)),
    col("RT x", "rt_overhead", |p| Num(p.rt_overhead, 3)),
    col("storage x", "storage_overhead", |p| {
        Num(p.storage_overhead, 0)
    }),
];

impl Report for AvailSweep {
    fn render(&self, format: ReportFormat) -> String {
        render_columns(&self.title, AVAIL_COLUMNS, &self.points, format)
    }
}

const SHARE_COLUMNS: &[Column<SharePoint>] = &[
    col("method", "method", |p| Text(p.method.clone())),
    col("overlap", "overlap", |p| Num(p.overlap, 2)),
    col("r", "replicas", |p| Int(p.replicas.into())),
    col("unshared q/s", "unshared_qps", |p| Num(p.unshared_qps, 3)),
    col("shared q/s", "shared_qps", |p| Num(p.shared_qps, 3)),
    col("speedup", "speedup", |p| Num(p.speedup(), 3)),
    col("mean ms", "unshared_mean_ms", |p| {
        Num(p.unshared_mean_ms, 3)
    }),
    col("shared ms", "shared_mean_ms", |p| Num(p.shared_mean_ms, 3)),
    col("windows", "windows", |p| Int(p.windows)),
    col("merged", "merged_queries", |p| Int(p.merged_queries)),
    col("pages saved", "pages_saved", |p| Int(p.pages_saved)),
];

impl Report for ShareSweep {
    fn render(&self, format: ReportFormat) -> String {
        let mut out = render_columns(&self.title, SHARE_COLUMNS, &self.points, format);
        if format == ReportFormat::Table {
            let best = self
                .points
                .iter()
                .max_by(|a, b| a.speedup().total_cmp(&b.speedup()));
            if let Some(best) = best {
                let _ = writeln!(
                    out,
                    "best speedup {}: {:.3}x at overlap {:.2}, r={}",
                    best.method,
                    best.speedup(),
                    best.overlap,
                    best.replicas
                );
            }
        }
        out
    }
}

impl Report for MetricsSnapshot {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Table => self.render_text(),
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
    fn sweep_json_parses_and_carries_the_series() {
        use decluster_obs::json;
        let s = sample();
        let v = json::parse(s.render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(v.get("title").and_then(JsonValue::as_str), Some("demo"));
        assert!(matches!(v.get("series"), Some(JsonValue::Array(a)) if a.len() == 2));
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

    /// Checks a report against its column list: the CSV header is the
    /// list's keys in order, the table's header row is its headers in
    /// order, and each JSON row has exactly the CSV keys.
    fn check_columns<R>(report: &dyn Report, columns: &[Column<R>], rows: usize) {
        use decluster_obs::json;
        let keys: Vec<&str> = columns.iter().map(|c| c.key).collect();
        let csv = report.render(ReportFormat::Csv);
        assert_eq!(csv.lines().next(), Some(keys.join(",").as_str()));
        assert_eq!(csv.lines().count(), rows + 1);
        let headers: Vec<&str> = columns.iter().filter_map(|c| c.header).collect();
        let table = report.render(ReportFormat::Table);
        let header_row: Vec<&str> = table
            .lines()
            .nth(1)
            .unwrap()
            .split("  ")
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .collect();
        assert_eq!(header_row, headers);
        let doc = json::parse(report.render(ReportFormat::Json).trim_end()).unwrap();
        assert_eq!(
            doc.get("title").and_then(JsonValue::as_str),
            table.lines().next()
        );
        let Some(JsonValue::Array(json_rows)) = doc.get("rows") else {
            panic!("the JSON has no rows array");
        };
        assert_eq!(json_rows.len(), rows);
        for row in json_rows {
            let JsonValue::Object(fields) = row else {
                panic!("a JSON row is not an object");
            };
            let row_keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(row_keys, keys);
        }
    }

    #[test]
    fn column_lists_drive_table_csv_and_json() {
        check_columns(&fault_sample(), FAULT_COLUMNS, 2);
        check_columns(&serve_sample(), &serve_columns(), 2);
        check_columns(&avail_sample(), AVAIL_COLUMNS, 2);
        check_columns(&share_sample(), SHARE_COLUMNS, 2);
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
