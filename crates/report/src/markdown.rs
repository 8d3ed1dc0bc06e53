//! Assembles the generated `RESULTS.md`.
//!
//! The report embeds every rendered figure, the perf trajectory against a
//! committed baseline (the same comparison `bench_diff` gates on, rendered
//! as a table), the headline BRAVO statistics, and an inventory of the raw
//! inputs. Output is deterministic — no timestamps, no host details — so a
//! regenerated report diffs cleanly when and only when the results
//! changed.

use std::fmt::Write as _;
use std::path::Path;

use crate::figures::{Figure, Results};
use crate::relative_path;
use crate::summary::{diff, Summary, Thresholds};

/// Everything [`render`] needs, borrowed from the pipeline.
#[derive(Debug)]
pub struct ReportInputs<'a> {
    /// The loaded results directory.
    pub results: &'a Results,
    /// The rendered figures, in report order.
    pub figures: &'a [Figure],
    /// Directory the figure SVGs were written into (image links are
    /// computed relative to the report).
    pub figs_dir: &'a Path,
    /// Where the report will be written (anchor for relative links).
    pub md_path: &'a Path,
    /// Baseline summary to diff against, with its path for attribution.
    pub baseline: Option<(&'a Path, &'a Summary)>,
}

/// Renders the full Markdown report.
pub fn render(inputs: &ReportInputs<'_>) -> String {
    let md_dir = inputs.md_path.parent().unwrap_or(Path::new("."));
    let mut md = String::new();
    md.push_str("# BRAVO reproduction results\n\n");
    md.push_str(
        "Generated by `cargo run -p bench --bin report` from the raw results \
         directory — regenerate after any sweep; do not edit by hand. ",
    );
    let _ = writeln!(
        md,
        "See [how to read the figures]({}#how-to-read-the-figures) for the \
         reading guide.\n",
        relative_path(md_dir, Path::new("docs/benchmarks.md"))
    );

    md.push_str("## Figures\n\n");
    if inputs.figures.is_empty() {
        md.push_str("No figures: the results directory held no renderable data.\n\n");
    }
    for figure in inputs.figures {
        let link = relative_path(
            md_dir,
            &inputs.figs_dir.join(format!("{}.svg", figure.name)),
        );
        let _ = writeln!(md, "### {}\n", figure.title);
        let _ = writeln!(md, "![{}]({link})\n", figure.name);
        if !figure.caption.is_empty() {
            let _ = writeln!(md, "*{}*\n", figure.caption);
        }
    }

    md.push_str("## Perf trajectory\n\n");
    match (inputs.baseline, &inputs.results.summary) {
        (Some((baseline_path, baseline)), Some(current)) => {
            trajectory(&mut md, baseline_path, baseline, current);
        }
        (Some((baseline_path, _)), None) => {
            let _ = writeln!(
                md,
                "Baseline `{}` was given but the results directory has no \
                 `BENCH_locks.json` to compare against (run `repro_all --out` \
                 to produce one).\n",
                baseline_path.display()
            );
        }
        (None, _) => {
            md.push_str(
                "No baseline given — pass `--baseline ci/BENCH_locks.baseline.json` \
                 to render the trajectory table `bench_diff` gates on.\n\n",
            );
        }
    }

    headline_stats(&mut md, inputs.results);
    inventory(&mut md, inputs.results);
    md
}

/// The `bench_diff` comparison as a table: every baseline row accounted
/// for, current-only rows listed as new, removed rows kept visible.
fn trajectory(md: &mut String, baseline_path: &Path, baseline: &Summary, current: &Summary) {
    let thresholds = Thresholds::default();
    let report = diff(baseline, current, &thresholds);
    let _ = writeln!(
        md,
        "Compared against `{}` with the default thresholds ({thresholds}).\n",
        baseline_path.display()
    );
    let delta_points = (current.fast_read_fraction - baseline.fast_read_fraction) * 100.0;
    let _ = writeln!(
        md,
        "Headline `fast_read_fraction`: {:.4} → {:.4} ({:+.2} points).\n",
        baseline.fast_read_fraction, current.fast_read_fraction, delta_points
    );
    md.push_str(
        "| serving row | baseline ops/s | current ops/s | Δ | status |\n\
         |---|---:|---:|---:|---|\n",
    );
    for base_row in &baseline.serving {
        let key = base_row.key();
        match current.serving.iter().find(|r| r.key() == key) {
            Some(cur_row) => {
                let change_pct = if base_row.ops_per_sec > 0.0 {
                    (cur_row.ops_per_sec - base_row.ops_per_sec) / base_row.ops_per_sec * 100.0
                } else {
                    0.0
                };
                let status = if -change_pct > thresholds.serving_drop_pct {
                    "**regressed**"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    md,
                    "| `{key}` | {:.0} | {:.0} | {change_pct:+.1}% | {status} |",
                    base_row.ops_per_sec, cur_row.ops_per_sec
                );
            }
            None => {
                let _ = writeln!(
                    md,
                    "| `{key}` | {:.0} | — | — | **removed** |",
                    base_row.ops_per_sec
                );
            }
        }
    }
    for cur_row in &current.serving {
        if !baseline.serving.iter().any(|r| r.key() == cur_row.key()) {
            let _ = writeln!(
                md,
                "| `{}` | — | {:.0} | — | new |",
                cur_row.key(),
                cur_row.ops_per_sec
            );
        }
    }
    let _ = write!(md, "\n{}.", report.counts());
    if report.regressions.is_empty() {
        md.push_str(" Within thresholds.\n\n");
    } else {
        let _ = writeln!(md, " **{} regression(s):**\n", report.regressions.len());
        for regression in &report.regressions {
            let _ = writeln!(md, "- {regression}");
        }
        md.push('\n');
    }
}

/// The headline BRAVO counters, preferring the richer `bravo_stats.csv`
/// over the JSON summary when both exist.
fn headline_stats(md: &mut String, results: &Results) {
    md.push_str("## Headline lock statistics\n\n");
    if let Some(table) = results.table("bravo_stats") {
        if table.has_columns(&["metric", "value"]) && !table.rows.is_empty() {
            md.push_str("| metric | value |\n|---|---:|\n");
            for row in &table.rows {
                if let (Some(metric), Some(value)) =
                    (table.cell(row, "metric"), table.cell(row, "value"))
                {
                    let _ = writeln!(md, "| `{metric}` | {value} |");
                }
            }
            md.push('\n');
            return;
        }
    }
    if let Some(summary) = &results.summary {
        md.push_str("| metric | value |\n|---|---:|\n");
        let _ = writeln!(
            md,
            "| `fast_read_fraction` | {:.4} |",
            summary.fast_read_fraction
        );
        for (name, value) in [
            ("total_reads", summary.total_reads),
            ("revocations", summary.revocations),
            ("parked_waits", summary.parked_waits),
            ("futex_waits", summary.futex_waits),
            ("futex_wakes", summary.futex_wakes),
            ("futex_eagain", summary.futex_eagain),
        ] {
            if let Some(value) = value {
                let _ = writeln!(md, "| `{name}` | {value:.0} |");
            }
        }
        md.push('\n');
    } else {
        md.push_str("No `bravo_stats.csv` or `BENCH_locks.json` in this run.\n\n");
    }
}

/// What the report was built from, so a reader can trace any figure back
/// to its raw rows.
fn inventory(md: &mut String, results: &Results) {
    md.push_str("## Inputs\n\n");
    for table in &results.tables {
        let _ = writeln!(
            md,
            "- `{}.csv` — {} data row(s), columns: {}",
            table.name,
            table.rows.len(),
            if table.columns.is_empty() {
                "(empty)".to_string()
            } else {
                format!("`{}`", table.columns.join("`, `"))
            }
        );
    }
    if results.summary.is_some() {
        let _ = writeln!(
            md,
            "- `BENCH_locks.json` — machine-readable summary ({} serving row(s))",
            results
                .summary
                .as_ref()
                .map_or(0, |summary| summary.serving.len())
        );
    }
    if results.tables.is_empty() && results.summary.is_none() {
        md.push_str("(results directory was empty)\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::Table;
    use crate::summary::parse_summary;
    use std::path::PathBuf;

    fn sample() -> (Results, Vec<Figure>) {
        let results = Results {
            tables: vec![Table::parse(
                "bravo_stats",
                "metric,value\nfast_read_fraction,0.95\nparked_waits,3\n",
            )],
            summary: Some(
                parse_summary(
                    r#"{"fast_read_fraction": 0.95, "serving": [
                        {"spec": "BA", "backend": "mux", "connections": 128, "shards": 1, "batch": 1, "ops_per_sec": 9000.0}
                    ]}"#,
                )
                .unwrap(),
            ),
        };
        let figures = vec![Figure {
            name: "serving_throughput".into(),
            title: "Serving throughput per backend".into(),
            caption: "caption text".into(),
            svg: "<svg/>".into(),
        }];
        (results, figures)
    }

    fn render_with_baseline(baseline_json: &str) -> String {
        let (results, figures) = sample();
        let baseline = parse_summary(baseline_json).unwrap();
        let baseline_path = PathBuf::from("ci/BENCH_locks.baseline.json");
        render(&ReportInputs {
            results: &results,
            figures: &figures,
            figs_dir: Path::new("results/figs"),
            md_path: Path::new("RESULTS.md"),
            baseline: Some((&baseline_path, &baseline)),
        })
    }

    #[test]
    fn embeds_figures_with_relative_links_and_captions() {
        let (results, figures) = sample();
        let md = render(&ReportInputs {
            results: &results,
            figures: &figures,
            figs_dir: Path::new("results/figs"),
            md_path: Path::new("RESULTS.md"),
            baseline: None,
        });
        assert!(md.contains("![serving_throughput](results/figs/serving_throughput.svg)"));
        assert!(md.contains("*caption text*"));
        assert!(md.contains("docs/benchmarks.md#how-to-read-the-figures"));
        assert!(md.contains("No baseline given"));
        assert!(md.contains("| `fast_read_fraction` | 0.95 |"));
        assert!(md.contains("`bravo_stats.csv` — 2 data row(s)"));
    }

    #[test]
    fn trajectory_accounts_for_matched_new_and_removed_rows() {
        let md = render_with_baseline(
            r#"{"fast_read_fraction": 0.90, "serving": [
                {"spec": "BA", "backend": "mux", "connections": 128, "shards": 1, "batch": 1, "ops_per_sec": 8000.0},
                {"spec": "OLD", "backend": "mux", "connections": 4, "shards": 1, "batch": 1, "ops_per_sec": 100.0}
            ]}"#,
        );
        // Matched row, improved.
        assert!(md.contains("| `BA @mux x128 shards=1 batch=1` | 8000 | 9000 | +12.5% | ok |"));
        // Baseline-only row stays visible as removed (and is a regression).
        assert!(md.contains("| `OLD @mux x4 shards=1 batch=1` | 100 | — | — | **removed** |"));
        assert!(md.contains("1 rows compared, 0 added, 1 removed"));
        assert!(md.contains("regression"));
        assert!(md.contains("(+5.00 points)"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_with_baseline(r#"{"fast_read_fraction": 0.9, "serving": []}"#);
        let b = render_with_baseline(r#"{"fast_read_fraction": 0.9, "serving": []}"#);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_results_still_render_a_complete_document() {
        let results = Results::default();
        let md = render(&ReportInputs {
            results: &results,
            figures: &[],
            figs_dir: Path::new("figs"),
            md_path: Path::new("RESULTS.md"),
            baseline: None,
        });
        assert!(md.contains("No figures"));
        assert!(md.contains("(results directory was empty)"));
    }
}
