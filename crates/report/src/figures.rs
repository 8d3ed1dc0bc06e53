//! Builds the paper-layout figures from a loaded results directory.
//!
//! Every builder is conditional on its input being present, so the same
//! pipeline handles a full `repro_all --out` directory, a
//! `fig10_server --out` directory (rich latency columns), and a directory
//! holding a single standalone-binary CSV. The figure set, names, and SVG
//! bytes are fully determined by the inputs.
//!
//! Layouts mirror the paper's evaluation:
//!
//! * fast-read percentage per lock spec (the BRAVO headline metric) as
//!   single-hue horizontal bars, and — when the rich `fig3` columns are
//!   present — fast-read % vs thread count per lock spec as lines;
//! * serving throughput per backend (grouped bars from
//!   `BENCH_locks.json`), and throughput vs connection count per backend
//!   when the rich `fig10` columns are present;
//! * latency vs offered load with p50–p99 bands around the p95 line,
//!   faceted per backend so the series count stays within the palette;
//! * the shard weak-scaling sweep (measured vs offered rate by shard
//!   count);
//! * a generic per-experiment bar summary for every remaining
//!   `experiment,series,value` CSV, so nothing the harness recorded is
//!   invisible in the report.

use std::io;
use std::path::Path;

use crate::csv::Table;
use crate::summary::{self, Summary};
use crate::svg::{BarChart, BarGroup, LineChart, Scale, Series, MAX_SERIES};

/// A loaded results directory: every CSV as a table (sorted by file name)
/// plus the machine-readable summary when present.
#[derive(Debug, Default)]
pub struct Results {
    /// Parsed `*.csv` tables, named by file stem, sorted by name.
    pub tables: Vec<Table>,
    /// Parsed `BENCH_locks.json`, when the directory has one.
    pub summary: Option<Summary>,
}

impl Results {
    /// The table with the given file stem, if loaded.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// One rendered figure, ready to write to `figs/{name}.svg`.
#[derive(Debug)]
pub struct Figure {
    /// File stem (also the anchor used in the report).
    pub name: String,
    /// Human title, reused as the report heading.
    pub title: String,
    /// One-sentence reading aid, shown under the embedded image.
    pub caption: String,
    /// The standalone SVG document.
    pub svg: String,
}

/// Loads every `*.csv` (and `BENCH_locks.json`, if present) under `dir`.
/// Unreadable or malformed individual files are skipped rather than
/// failing the whole report; only an unreadable directory is an error.
pub fn load_results(dir: &Path) -> io::Result<Results> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == "csv") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    let mut results = Results::default();
    for name in names {
        let path = dir.join(format!("{name}.csv"));
        if let Ok(text) = std::fs::read_to_string(&path) {
            results.tables.push(Table::parse(name, &text));
        }
    }
    if let Ok(text) = std::fs::read_to_string(dir.join("BENCH_locks.json")) {
        results.summary = summary::parse_summary(&text).ok();
    }
    Ok(results)
}

/// Builds every figure the loaded results support, in report order.
pub fn build_figures(results: &Results) -> Vec<Figure> {
    let mut figures = Vec::new();
    // Tables a dedicated builder consumed; the generic summary pass at the
    // end skips these so a measurement is never plotted twice.
    let mut consumed: Vec<&str> = Vec::new();

    if let Some(table) = results.table("wait_park_catalog") {
        if let Some(fig) = fast_read_catalog(table) {
            figures.push(fig);
            consumed.push("wait_park_catalog");
        }
    }
    if let Some(table) = rich_fig3(results) {
        figures.extend(fig3_lines(table));
        consumed.push(&table.name);
    }
    if let Some(summary) = &results.summary {
        figures.extend(serving_throughput(summary));
        figures.extend(shard_weak_scaling(summary));
        figures.extend(wait_mode_activity(summary));
        // The JSON serving rows supersede the summary-shaped CSV rows of
        // the same measurements.
        consumed.push("fig10_server");
        consumed.push("fig10_shard_sweep");
    }
    if let Some(table) = rich_fig10(results) {
        figures.extend(fig10_throughput(table));
        figures.extend(fig10_latency(table));
        consumed.push(&table.name);
    }
    for table in &results.tables {
        if table.name == "bravo_stats" || consumed.contains(&table.name.as_str()) {
            continue;
        }
        if table.is_repro_summary() {
            if let Some(fig) = experiment_summary(table) {
                figures.push(fig);
            }
        }
    }
    figures
}

/// The rich (per-thread-count) `fig3` table, when present: the standalone
/// binary writes `readers,lock,ops_per_msec,...` rather than the summary
/// shape.
fn rich_fig3(results: &Results) -> Option<&Table> {
    results
        .tables
        .iter()
        .find(|t| t.has_columns(&["readers", "lock", "ops_per_msec", "fast_read_pct"]))
}

/// The rich `fig10` table, when present (per-connection latency columns).
fn rich_fig10(results: &Results) -> Option<&Table> {
    results.tables.iter().find(|t| {
        t.has_columns(&[
            "backend",
            "connections",
            "lock",
            "ops_per_sec",
            "p50_us",
            "p95_us",
            "p99_us",
        ])
    })
}

/// Distinct values of `column`, in first-appearance order.
fn distinct<'a>(table: &'a Table, column: &str) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for row in &table.rows {
        if let Some(cell) = table.cell(row, column) {
            if !out.contains(&cell) {
                out.push(cell);
            }
        }
    }
    out
}

fn fast_read_catalog(table: &Table) -> Option<Figure> {
    let mut groups = Vec::new();
    for row in &table.rows {
        let label = table.cell(row, "series")?.to_string();
        groups.push(BarGroup {
            label,
            values: vec![table.number(row, "fast_read_pct")],
        });
    }
    if groups.iter().all(|g| g.values[0].is_none()) {
        return None;
    }
    let chart = BarChart {
        title: "Fast-path reads per lock spec (parking catalog)".into(),
        value_label: "fast-path reads (%)".into(),
        series_labels: vec!["fast-path reads (%)".into()],
        groups,
        caption: "Share of read acquisitions that took the BRAVO fast path during the \
                  wait=park catalog sweep; non-BRAVO specs publish no counter and render \
                  no bar."
            .into(),
    };
    Some(Figure {
        name: "fast_read_catalog".into(),
        title: "Fast-path reads per lock spec".into(),
        caption: chart.caption.clone(),
        svg: chart.render(),
    })
}

/// The paper's figure-3 layout from the rich table: fast-read % and
/// throughput vs thread count, one line per lock spec.
fn fig3_lines(table: &Table) -> Vec<Figure> {
    let locks = distinct(table, "lock");
    let series_for = |column: &str| -> Vec<Series> {
        locks
            .iter()
            .map(|lock| {
                let mut points = Vec::new();
                for row in &table.rows {
                    if table.cell(row, "lock") == Some(lock) {
                        if let (Some(x), Some(y)) =
                            (table.number(row, "readers"), table.number(row, column))
                        {
                            points.push((x, y));
                        }
                    }
                }
                Series {
                    label: (*lock).to_string(),
                    points,
                    band: Vec::new(),
                }
            })
            .filter(|s| !s.points.is_empty())
            .collect()
    };
    let mut figures = Vec::new();
    let fast = series_for("fast_read_pct");
    if !fast.is_empty() {
        let chart = LineChart {
            title: "Fast-path reads vs thread count".into(),
            x_label: "reader threads".into(),
            y_label: "fast-path reads (%)".into(),
            x_scale: Scale::Log2,
            y_scale: Scale::Linear,
            series: fast,
            caption: "test_rwlock sweep: the fraction of reads served by the BRAVO fast \
                      path as reader concurrency doubles, per lock spec."
                .into(),
        };
        figures.push(Figure {
            name: "fast_read_vs_threads".into(),
            title: "Fast-path reads vs thread count".into(),
            caption: chart.caption.clone(),
            svg: chart.render(),
        });
    }
    let ops = series_for("ops_per_msec");
    if !ops.is_empty() {
        let chart = LineChart {
            title: "test_rwlock throughput vs thread count".into(),
            x_label: "reader threads".into(),
            y_label: "ops / msec".into(),
            x_scale: Scale::Log2,
            y_scale: Scale::Linear,
            series: ops,
            caption: "Aggregate test_rwlock throughput as reader concurrency doubles, \
                      per lock spec."
                .into(),
        };
        figures.push(Figure {
            name: "throughput_vs_threads".into(),
            title: "Throughput vs thread count".into(),
            caption: chart.caption.clone(),
            svg: chart.render(),
        });
    }
    figures
}

/// Serving throughput per backend from the summary's flat (batch ≤ 1)
/// rows: grouped bars, one group per lock spec, one bar per backend.
fn serving_throughput(summary: &Summary) -> Option<Figure> {
    let rows: Vec<_> = summary.serving.iter().filter(|r| r.batch <= 1.0).collect();
    if rows.is_empty() {
        return None;
    }
    let mut backends: Vec<String> = Vec::new();
    let mut specs: Vec<&str> = Vec::new();
    for row in &rows {
        let label = format!("{} x{} conns", row.backend, row.connections);
        if !backends.contains(&label) {
            backends.push(label);
        }
        if !specs.contains(&row.spec.as_str()) {
            specs.push(&row.spec);
        }
    }
    let groups = specs
        .iter()
        .map(|spec| BarGroup {
            label: (*spec).to_string(),
            values: backends
                .iter()
                .map(|backend| {
                    rows.iter()
                        .find(|r| {
                            r.spec == *spec
                                && format!("{} x{} conns", r.backend, r.connections) == *backend
                        })
                        .map(|r| r.ops_per_sec)
                })
                .collect(),
        })
        .collect();
    let chart = BarChart {
        title: "Serving throughput per backend".into(),
        value_label: "ops / sec".into(),
        series_labels: backends,
        groups,
        caption: "bravod loopback serving throughput per lock spec and backend \
                  (one representative connection count per backend), from \
                  BENCH_locks.json."
            .into(),
    };
    Some(Figure {
        name: "serving_throughput".into(),
        title: "Serving throughput per backend".into(),
        caption: chart.caption.clone(),
        svg: chart.render(),
    })
}

/// The PR 8 shard weak-scaling sweep from the summary's batched rows:
/// measured vs offered rate by shard count.
fn shard_weak_scaling(summary: &Summary) -> Option<Figure> {
    let mut rows: Vec<_> = summary.serving.iter().filter(|r| r.batch > 1.0).collect();
    if rows.is_empty() {
        return None;
    }
    rows.sort_by(|a, b| a.shards.total_cmp(&b.shards));
    let measured = Series {
        label: "measured ops/sec".into(),
        points: rows.iter().map(|r| (r.shards, r.ops_per_sec)).collect(),
        band: Vec::new(),
    };
    let offered = Series {
        label: "offered rate".into(),
        points: rows
            .iter()
            .filter_map(|r| r.offered_rate.map(|rate| (r.shards, rate)))
            .collect(),
        band: Vec::new(),
    };
    let mut series = vec![measured];
    if !offered.points.is_empty() {
        series.push(offered);
    }
    let caption = rows
        .first()
        .map(|r| {
            format!(
                "Weak-scaling sweep ({} @{}, {} connections, batch {}): the offered \
                 operation rate grows with the shard count; measured throughput \
                 tracking it means shard routing keeps the scaled target servable.",
                r.spec.split('?').next().unwrap_or(&r.spec),
                r.backend,
                r.connections,
                r.batch
            )
        })
        .unwrap_or_default();
    let chart = LineChart {
        title: "Shard weak scaling".into(),
        x_label: "store shards".into(),
        y_label: "ops / sec".into(),
        x_scale: Scale::Linear,
        y_scale: Scale::Linear,
        series,
        caption,
    };
    Some(Figure {
        name: "shard_weak_scaling".into(),
        title: "Shard weak scaling".into(),
        caption: chart.caption.clone(),
        svg: chart.render(),
    })
}

/// The PR 10 wait-mode figure: how the blocking layer spent the run, from
/// the summary's headline counters. `parked_waits` counts every real sleep
/// regardless of mode (the futex backend double-counts its sleeps there so
/// modes stay comparable); the `futex_*` bars split the futex backend's
/// syscall activity into sleeps, wakes, and `EAGAIN` bounces (waits the
/// kernel's word check turned away — contention resolved between snapshot
/// and sleep, costing a syscall but no context switch).
fn wait_mode_activity(summary: &Summary) -> Option<Figure> {
    // Pre-futex summaries (no futex_* fields) render no figure.
    summary
        .futex_waits
        .or(summary.futex_wakes)
        .or(summary.futex_eagain)?;
    let bars = [
        ("parked_waits (sleeps, any mode)", summary.parked_waits),
        ("futex_waits (FUTEX_WAIT issued)", summary.futex_waits),
        ("futex_wakes (FUTEX_WAKE issued)", summary.futex_wakes),
        ("futex_eagain (bounced sleeps)", summary.futex_eagain),
    ];
    let groups = bars
        .iter()
        .map(|(label, value)| BarGroup {
            label: (*label).to_string(),
            values: vec![*value],
        })
        .collect();
    let chart = BarChart {
        title: "Blocking-layer activity by wait mode".into(),
        value_label: "events over the run".into(),
        series_labels: vec!["events over the run".into()],
        groups,
        caption: "Headline blocking-layer counters from BENCH_locks.json: parked_waits \
                  counts every real sleep in any wait mode; the futex_* bars split the \
                  wait=futex backend's syscalls into sleeps, wakes, and EAGAIN bounces \
                  (sleeps the kernel's word check turned away before blocking)."
            .into(),
    };
    Some(Figure {
        name: "wait_mode_activity".into(),
        title: "Blocking-layer activity by wait mode".into(),
        caption: chart.caption.clone(),
        svg: chart.render(),
    })
}

/// Rich fig10: throughput vs connection count, one figure per backend
/// (faceting keeps the series count within the palette).
fn fig10_throughput(table: &Table) -> Vec<Figure> {
    facet_by_backend(table, |backend| {
        let locks = distinct(table, "lock");
        let series: Vec<Series> = locks
            .iter()
            .take(MAX_SERIES)
            .map(|lock| Series {
                label: (*lock).to_string(),
                points: rows_for(table, backend, lock)
                    .filter_map(|row| {
                        Some((
                            table.number(row, "connections")?,
                            table.number(row, "ops_per_sec")?,
                        ))
                    })
                    .collect(),
                band: Vec::new(),
            })
            .filter(|s| !s.points.is_empty())
            .collect();
        if series.is_empty() {
            return None;
        }
        let chart = LineChart {
            title: format!("Serving throughput vs connections ({backend} backend)"),
            x_label: "client connections".into(),
            y_label: "ops / sec".into(),
            x_scale: Scale::Log2,
            y_scale: Scale::Linear,
            series,
            caption: "Open-loop loadgen against bravod on loopback; each line is one \
                      lock spec."
                .into(),
        };
        Some(Figure {
            name: format!("fig10_throughput_{backend}"),
            title: format!("Serving throughput vs connections ({backend})"),
            caption: chart.caption.clone(),
            svg: chart.render(),
        })
    })
}

/// Rich fig10: the latency-vs-offered-load layout — p95 line with a
/// p50–p99 band per lock spec, log-scale latency axis, one figure per
/// backend.
fn fig10_latency(table: &Table) -> Vec<Figure> {
    facet_by_backend(table, |backend| {
        let locks = distinct(table, "lock");
        let series: Vec<Series> = locks
            .iter()
            .take(MAX_SERIES)
            .map(|lock| {
                let mut points = Vec::new();
                let mut band = Vec::new();
                for row in rows_for(table, backend, lock) {
                    let x = table.number(row, "connections");
                    let p50 = table.number(row, "p50_us");
                    let p95 = table.number(row, "p95_us");
                    let p99 = table.number(row, "p99_us");
                    if let (Some(x), Some(p95)) = (x, p95) {
                        points.push((x, p95));
                        if let (Some(p50), Some(p99)) = (p50, p99) {
                            band.push((x, p50, p99));
                        }
                    }
                }
                Series {
                    label: (*lock).to_string(),
                    points,
                    band,
                }
            })
            .filter(|s| !s.points.is_empty())
            .collect();
        if series.is_empty() {
            return None;
        }
        let chart = LineChart {
            title: format!("Request latency vs offered load ({backend} backend)"),
            x_label: "client connections (offered load scales with connections)".into(),
            y_label: "latency (µs)".into(),
            x_scale: Scale::Log2,
            y_scale: Scale::Log10,
            series,
            caption: "Line: p95 request latency; shaded band: p50–p99 envelope. The \
                      latency axis is logarithmic — a flat line under growing load is \
                      the goal state."
                .into(),
        };
        Some(Figure {
            name: format!("fig10_latency_{backend}"),
            title: format!("Request latency vs offered load ({backend})"),
            caption: chart.caption.clone(),
            svg: chart.render(),
        })
    })
}

fn facet_by_backend(table: &Table, build: impl Fn(&str) -> Option<Figure>) -> Vec<Figure> {
    distinct(table, "backend")
        .into_iter()
        .filter_map(build)
        .collect()
}

fn rows_for<'a>(
    table: &'a Table,
    backend: &'a str,
    lock: &'a str,
) -> impl Iterator<Item = &'a Vec<String>> {
    table.rows.iter().filter(move |row| {
        table.cell(row, "backend") == Some(backend) && table.cell(row, "lock") == Some(lock)
    })
}

/// Generic bar summary for an `experiment,series,value` table: one bar per
/// series, single hue (a single measure needs no categorical coloring).
fn experiment_summary(table: &Table) -> Option<Figure> {
    let mut groups = Vec::new();
    for row in &table.rows {
        let (Some(label), Some(value)) = (table.cell(row, "series"), table.number(row, "value"))
        else {
            continue;
        };
        groups.push(BarGroup {
            label: label.to_string(),
            values: vec![Some(value)],
        });
    }
    if groups.is_empty() {
        return None;
    }
    let experiment = table
        .rows
        .first()
        .and_then(|row| table.cell(row, "experiment"))
        .unwrap_or(&table.name)
        .to_string();
    // Time-valued experiments (table 1–2 report seconds) read better with
    // an explicit unit; everything else reports a count or rate.
    let unit = if table
        .rows
        .iter()
        .filter_map(|row| table.cell(row, "value"))
        .all(|cell| cell.trim_end().ends_with('s') && !cell.trim_end().ends_with("ops"))
    {
        "runtime (seconds, lower is better)"
    } else {
        "reported value (higher is better)"
    };
    let chart = BarChart {
        title: format!("{experiment}: summary"),
        value_label: unit.into(),
        series_labels: vec![unit.into()],
        groups,
        caption: format!(
            "Summary-pass result per series for the {experiment} experiment \
             (quick-mode numbers are indicative, not paper-scale)."
        ),
    };
    Some(Figure {
        name: table.name.clone(),
        title: format!("{experiment} summary"),
        caption: chart.caption.clone(),
        svg: chart.render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::parse_summary;

    fn repro_table(name: &str, rows: &[(&str, &str, &str, &str)]) -> Table {
        let mut text = String::from("experiment,series,value,fast_read_pct\n");
        for (e, s, v, f) in rows {
            text.push_str(&format!("{e},{s},{v},{f}\n"));
        }
        Table::parse(name, &text)
    }

    fn sample_results() -> Results {
        let summary = parse_summary(
            r#"{"fast_read_fraction": 0.95, "parked_waits": 12,
                "futex_waits": 9, "futex_wakes": 4, "futex_eagain": 2, "serving": [
                {"spec": "BA", "backend": "threads", "connections": 4, "shards": 1, "batch": 1, "ops_per_sec": 1000.0},
                {"spec": "BA", "backend": "mux", "connections": 128, "shards": 1, "batch": 1, "ops_per_sec": 9000.0},
                {"spec": "BRAVO-BA", "backend": "mux", "connections": 128, "shards": 1, "batch": 1, "ops_per_sec": 9500.0},
                {"spec": "BRAVO-BA?shards=4", "backend": "mux", "connections": 256, "shards": 4, "batch": 16, "offered_rate": 40000, "ops_per_sec": 39000.0},
                {"spec": "BRAVO-BA?shards=8", "backend": "mux", "connections": 256, "shards": 8, "batch": 16, "offered_rate": 80000, "ops_per_sec": 78000.0}
            ]}"#,
        )
        .expect("summary parses");
        Results {
            tables: vec![
                repro_table(
                    "fig2_alternator",
                    &[
                        ("fig2_alternator", "BA", "58110", "-"),
                        ("fig2_alternator", "BRAVO-BA?n=9", "83313", "94.1%"),
                    ],
                ),
                repro_table(
                    "wait_park_catalog",
                    &[
                        ("wait_park_catalog", "BA?wait=park", "1000", "-"),
                        ("wait_park_catalog", "BRAVO-BA?wait=park", "2000", "97.0%"),
                    ],
                ),
            ],
            summary: Some(summary),
        }
    }

    #[test]
    fn a_repro_all_directory_yields_at_least_four_figures() {
        let figures = build_figures(&sample_results());
        let names: Vec<&str> = figures.iter().map(|f| f.name.as_str()).collect();
        assert!(figures.len() >= 5, "only {names:?}");
        assert!(names.contains(&"fast_read_catalog"));
        assert!(names.contains(&"serving_throughput"));
        assert!(names.contains(&"shard_weak_scaling"));
        assert!(names.contains(&"wait_mode_activity"));
        assert!(names.contains(&"fig2_alternator"));
    }

    #[test]
    fn pre_futex_summaries_render_no_wait_mode_figure() {
        // A summary written before the futex backend existed has no
        // futex_* headline fields; the wait-mode figure must not appear
        // (rather than rendering an all-empty chart).
        let summary = parse_summary(
            r#"{"fast_read_fraction": 0.9, "parked_waits": 3, "serving": [
                {"spec": "BA", "backend": "mux", "connections": 64, "shards": 1, "batch": 1, "ops_per_sec": 800.0}
            ]}"#,
        )
        .expect("old summary parses");
        let results = Results {
            tables: Vec::new(),
            summary: Some(summary),
        };
        let names: Vec<String> = build_figures(&results)
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert!(
            !names.iter().any(|n| n == "wait_mode_activity"),
            "{names:?}"
        );
    }

    #[test]
    fn figure_building_is_deterministic() {
        let a = build_figures(&sample_results());
        let b = build_figures(&sample_results());
        let flat = |figs: &[Figure]| {
            figs.iter()
                .map(|f| format!("{}\n{}", f.name, f.svg))
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
    }

    #[test]
    fn rich_fig10_produces_faceted_latency_and_throughput_figures() {
        let text = "backend,connections,shards,lock,ops,errors,abandoned,ops_per_sec,\
                    rate_achieved_pct,p50_us,p95_us,p99_us,fast_read_pct,wait_mode,parked_waits\n\
                    threads,2,1,BA,100,0,0,500.0,99.0,10,40,90,-,block,0\n\
                    threads,4,1,BA,200,0,0,900.0,99.0,12,50,120,-,block,0\n\
                    mux,64,1,BA,300,0,0,5000.0,99.0,15,60,200,-,block,0\n\
                    mux,128,1,BA,400,0,0,9000.0,99.0,18,80,400,-,block,0\n\
                    mux,64,1,BRAVO-BA,310,0,0,5100.0,99.0,14,55,180,97.0,block,0\n\
                    mux,128,1,BRAVO-BA,410,0,0,9300.0,99.0,16,70,350,97.2,block,0\n";
        let results = Results {
            tables: vec![Table::parse("fig10_server", text)],
            summary: None,
        };
        let figures = build_figures(&results);
        let names: Vec<&str> = figures.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"fig10_throughput_threads"), "{names:?}");
        assert!(names.contains(&"fig10_throughput_mux"), "{names:?}");
        assert!(names.contains(&"fig10_latency_mux"), "{names:?}");
        // The latency figure carries the p50–p99 band.
        let latency = figures
            .iter()
            .find(|f| f.name == "fig10_latency_mux")
            .unwrap();
        assert!(latency.svg.contains("fill-opacity=\"0.15\""));
    }

    #[test]
    fn rich_fig3_produces_the_fast_read_vs_threads_layout() {
        let text = "readers,lock,iterations,ops_per_msec,fast_read_pct,wait_mode,parked_waits\n\
                    1,BA,1000,100.0,-,block,0\n\
                    4,BA,4000,300.0,-,block,0\n\
                    1,BRAVO-BA,1100,110.0,99.0,block,0\n\
                    4,BRAVO-BA,4400,350.0,97.5,block,0\n";
        let results = Results {
            tables: vec![Table::parse("fig3_test_rwlock", text)],
            summary: None,
        };
        let figures = build_figures(&results);
        let names: Vec<&str> = figures.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"fast_read_vs_threads"), "{names:?}");
        assert!(names.contains(&"throughput_vs_threads"), "{names:?}");
        // The fast-read figure only has the BRAVO series (BA publishes "-"),
        // so it renders one line (no legend for a single series) with a
        // marker per thread count.
        let fast = figures
            .iter()
            .find(|f| f.name == "fast_read_vs_threads")
            .unwrap();
        assert_eq!(fast.svg.matches("<circle").count(), 2);
        // The throughput figure has both locks and therefore a legend.
        let ops = figures
            .iter()
            .find(|f| f.name == "throughput_vs_threads")
            .unwrap();
        assert!(ops.svg.contains("BRAVO-BA"));
    }

    #[test]
    fn empty_results_build_no_figures() {
        assert!(build_figures(&Results::default()).is_empty());
    }

    #[test]
    fn bravo_stats_is_never_a_figure() {
        let results = Results {
            tables: vec![Table::parse(
                "bravo_stats",
                "metric,value\nfast_read_fraction,0.95\n",
            )],
            summary: None,
        };
        assert!(build_figures(&results).is_empty());
    }
}
