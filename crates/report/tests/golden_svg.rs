//! Golden-file determinism tests for the SVG renderer and the report
//! pipeline.
//!
//! The committed files under `tests/golden/` pin the renderer's exact byte
//! output: any change to coordinates, palette, layout, or escaping shows up
//! as a reviewable SVG diff instead of a silent drift. To regenerate after
//! an intentional renderer change:
//!
//! ```text
//! BLESS=1 cargo test -p report --test golden_svg
//! ```
//!
//! The end-to-end test exercises the other half of the determinism
//! contract: running [`report::generate`] twice over the same results
//! directory must leave every artifact byte-identical.

use std::path::PathBuf;

use report::svg::{BarChart, BarGroup, LineChart, Scale, Series};
use report::ReportConfig;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `rendered` against the committed golden, or rewrites the
/// golden when `BLESS` is set in the environment.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nrun `BLESS=1 cargo test -p report --test golden_svg` \
             to (re)create the goldens",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "rendered SVG no longer matches {}; if the renderer change is \
         intentional, regenerate with BLESS=1 and review the diff",
        path.display()
    );
}

/// A line chart exercising both log scales, a percentile band, a
/// multi-series legend, and marker rings.
fn sample_line_chart() -> LineChart {
    LineChart {
        title: "Latency vs connections".into(),
        x_label: "connections".into(),
        y_label: "latency (µs)".into(),
        x_scale: Scale::Log2,
        y_scale: Scale::Log10,
        series: vec![
            Series {
                label: "BRAVO-BA?wait=park".into(),
                points: vec![(8.0, 110.0), (32.0, 240.0), (128.0, 950.0), (256.0, 2100.0)],
                band: vec![
                    (8.0, 80.0, 400.0),
                    (32.0, 150.0, 900.0),
                    (128.0, 600.0, 4000.0),
                    (256.0, 1100.0, 9000.0),
                ],
            },
            Series {
                label: "BA".into(),
                points: vec![
                    (8.0, 120.0),
                    (32.0, 300.0),
                    (128.0, 1800.0),
                    (256.0, 5200.0),
                ],
                band: vec![],
            },
        ],
        caption: "p95 line inside the p50–p99 band; log₂ x-axis, log₁₀ y-axis.".into(),
    }
}

/// A grouped bar chart exercising value labels, a missing cell, and XML
/// escaping in a spec-string group label.
fn sample_bar_chart() -> BarChart {
    BarChart {
        title: "Serving throughput".into(),
        value_label: "ops/sec".into(),
        series_labels: vec!["threads x4".into(), "mux x128".into()],
        groups: vec![
            BarGroup {
                label: "BA".into(),
                values: vec![Some(15970.0), Some(13429.0)],
            },
            BarGroup {
                label: "BRAVO-BA?n=9&wait=park".into(),
                values: vec![Some(15971.0), Some(14895.0)],
            },
            BarGroup {
                label: "BRAVO-2D-BA".into(),
                values: vec![Some(15200.0), None],
            },
        ],
        caption: "Grouped horizontal bars; a missing cell renders no bar.".into(),
    }
}

#[test]
fn line_chart_matches_golden() {
    check_golden("line_latency_band.svg", &sample_line_chart().render());
}

#[test]
fn bar_chart_matches_golden() {
    check_golden("bar_serving_throughput.svg", &sample_bar_chart().render());
}

/// Fresh scratch directory under the system temp dir, unique per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("report_golden_{}_{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, with contents, sorted by path.
fn snapshot(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path, bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn generate_twice_is_byte_identical() {
    let results = temp_dir("results");
    std::fs::write(
        results.join("fig3_test_rwlock.csv"),
        "readers,lock,iterations,ops_per_msec,fast_read_pct,wait_mode,parked_waits\n\
         1,BA,1000,250.0,-,spin,0\n\
         2,BA,1000,240.0,-,spin,0\n\
         4,BA,1000,180.0,-,spin,0\n\
         1,BRAVO-BA,1000,260.0,97.0%,spin,0\n\
         2,BRAVO-BA,1000,500.0,98.1%,spin,0\n\
         4,BRAVO-BA,1000,930.0,98.4%,spin,0\n",
    )
    .unwrap();
    std::fs::write(
        results.join("bravo_stats.csv"),
        "metric,value\nfast_read_fraction,0.97\nparked_waits,12\n",
    )
    .unwrap();
    std::fs::write(
        results.join("BENCH_locks.json"),
        r#"{"fast_read_fraction": 0.97, "total_reads": 9000, "revocations": 3,
            "parked_waits": 12, "serving": [
            {"spec": "BA", "backend": "threads", "connections": 4, "shards": 1,
             "batch": 1, "ops_per_sec": 15970.0, "fast_read_pct": "-"},
            {"spec": "BRAVO-BA", "backend": "mux", "connections": 128, "shards": 1,
             "batch": 1, "ops_per_sec": 14895.0, "fast_read_pct": "93.1%"},
            {"spec": "BRAVO-BA?shards=4", "backend": "mux", "connections": 256,
             "shards": 4, "batch": 16, "offered_rate": 16000.0,
             "ops_per_sec": 15100.0, "fast_read_pct": "91.0%"},
            {"spec": "BRAVO-BA", "backend": "mux", "connections": 256,
             "shards": 1, "batch": 16, "offered_rate": 4000.0,
             "ops_per_sec": 3980.0, "fast_read_pct": "92.2%"}
        ]}"#,
    )
    .unwrap();

    let out = temp_dir("out");
    let config = ReportConfig {
        results_dir: results.clone(),
        baseline: Some(results.join("BENCH_locks.json")),
        md_path: out.join("RESULTS.md"),
        figs_dir: out.join("figs"),
    };
    let first = report::generate(&config).unwrap();
    assert!(
        first.figures.len() >= 3,
        "expected the fig3 pair plus serving figures, got {:?}",
        first.figures
    );
    let before = snapshot(&out);

    let second = report::generate(&config).unwrap();
    assert_eq!(first.figures, second.figures);
    let after = snapshot(&out);
    assert_eq!(
        before.len(),
        after.len(),
        "regeneration changed the artifact set"
    );
    for ((path_a, bytes_a), (path_b, bytes_b)) in before.iter().zip(&after) {
        assert_eq!(path_a, path_b);
        assert_eq!(
            bytes_a,
            bytes_b,
            "{} changed across identical reruns",
            path_a.display()
        );
    }

    std::fs::remove_dir_all(&results).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
}
