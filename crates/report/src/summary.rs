//! `BENCH_locks.json` parsing and the cross-run perf diff.
//!
//! `repro_all --out` writes a machine-readable summary: headline lock
//! counters (`fast_read_fraction`, `parked_waits`, …) plus one `serving`
//! row per `{spec, backend, connections, shards, batch}` measurement. This
//! module parses that file and diffs a current summary against a committed
//! baseline — `bench_diff` is a thin CLI over [`diff`], and the generated
//! `RESULTS.md` renders the same comparison as its perf-trajectory table.
//!
//! The parser is a deliberately tiny JSON subset reader (objects, arrays,
//! strings without escapes, numbers) — exactly the shape `repro_all`
//! writes — so the harness stays free of serialization dependencies.

use crate::csv::parse_number;

/// Allowed drops before a diff counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Max headline `fast_read_fraction` drop, in percentage points.
    pub fast_read_drop_points: f64,
    /// Max per-row `ops_per_sec` drop, as a percentage of the baseline.
    pub serving_drop_pct: f64,
}

impl Default for Thresholds {
    /// The CI defaults: 10 points of fast-read drop, 30% of serving drop
    /// (quick-mode numbers are noisy; a paper-scale run can gate tighter).
    fn default() -> Self {
        Self {
            fast_read_drop_points: 10.0,
            serving_drop_pct: 30.0,
        }
    }
}

impl std::fmt::Display for Thresholds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fast-read drop ≤ {:.1} points, serving drop ≤ {:.1}%",
            self.fast_read_drop_points, self.serving_drop_pct
        )
    }
}

/// One parsed `BENCH_locks.json`.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Headline fraction of reads taking the BRAVO fast path.
    pub fast_read_fraction: f64,
    /// Total reads across the run, when the summary records it.
    pub total_reads: Option<f64>,
    /// Bias revocations, when recorded.
    pub revocations: Option<f64>,
    /// Parked waiter wake-ups, when recorded (PR 6).
    pub parked_waits: Option<f64>,
    /// `FUTEX_WAIT` syscalls issued by the futex wait backend (PR 10).
    pub futex_waits: Option<f64>,
    /// `FUTEX_WAKE` syscalls issued on notify (PR 10).
    pub futex_wakes: Option<f64>,
    /// Waits bounced by the kernel's word check (`EAGAIN`, PR 10).
    pub futex_eagain: Option<f64>,
    /// The serving measurements.
    pub serving: Vec<ServingRow>,
}

/// One serving measurement, keyed by everything but the result columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRow {
    /// Lock spec string the server ran with.
    pub spec: String,
    /// Server backend (`threads`, `mux`, …).
    pub backend: String,
    /// Concurrent client connections.
    pub connections: f64,
    /// Store partition count; rows from summaries predating the sharded
    /// store (no `"shards"` field) default to 1.
    pub shards: f64,
    /// Ops per wire frame; missing field defaults to 1 likewise.
    pub batch: f64,
    /// Offered load in ops/sec, recorded by the shard-sweep rows only.
    pub offered_rate: Option<f64>,
    /// Measured throughput.
    pub ops_per_sec: f64,
    /// Fast-read percentage for the row, when the spec exposes stats.
    pub fast_read_pct: Option<f64>,
}

impl ServingRow {
    /// The identity a row is matched on across runs.
    pub fn key(&self) -> String {
        format!(
            "{} @{} x{} shards={} batch={}",
            self.spec, self.backend, self.connections, self.shards, self.batch
        )
    }
}

/// What [`diff`] found, ready for printing.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Human-readable per-row comparison lines, in baseline order.
    pub lines: Vec<String>,
    /// Regression descriptions; empty means within thresholds.
    pub regressions: Vec<String>,
    /// Serving rows present in both summaries.
    pub compared: usize,
    /// Rows only in the current summary (new coverage).
    pub added: usize,
    /// Rows only in the baseline (disappeared — also regressions).
    pub removed: usize,
}

impl DiffReport {
    /// The row-accounting suffix for the final summary line, e.g.
    /// `3 rows compared, 1 added, 0 removed`.
    pub fn counts(&self) -> String {
        format!(
            "{} rows compared, {} added, {} removed",
            self.compared, self.added, self.removed
        )
    }
}

/// Parses a `BENCH_locks.json` document.
pub fn parse_summary(text: &str) -> Result<Summary, String> {
    let json = Json::parse(text)?;
    let fast_read_fraction = json
        .get("fast_read_fraction")
        .and_then(Json::as_number)
        .ok_or("missing fast_read_fraction")?;
    let headline = |name: &str| json.get(name).and_then(Json::as_number);
    let mut serving = Vec::new();
    for row in json
        .get("serving")
        .and_then(Json::as_array)
        .ok_or("missing serving array")?
    {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_number)
                .ok_or_else(|| format!("serving row missing {name}"))
        };
        // Lenient numeric read: the summary writes fast_read_pct as a
        // string ("97.3" or "-"); older rows may lack it entirely.
        let lenient = |name: &str| {
            row.get(name).and_then(|v| {
                v.as_number()
                    .or_else(|| v.as_string().and_then(parse_number))
            })
        };
        serving.push(ServingRow {
            spec: row
                .get("spec")
                .and_then(Json::as_string)
                .ok_or("serving row missing spec")?
                .to_string(),
            backend: row
                .get("backend")
                .and_then(Json::as_string)
                .ok_or("serving row missing backend")?
                .to_string(),
            connections: field("connections")?,
            shards: field("shards").unwrap_or(1.0),
            batch: field("batch").unwrap_or(1.0),
            offered_rate: lenient("offered_rate"),
            ops_per_sec: field("ops_per_sec")?,
            fast_read_pct: lenient("fast_read_pct"),
        });
    }
    Ok(Summary {
        fast_read_fraction,
        total_reads: headline("total_reads"),
        revocations: headline("revocations"),
        parked_waits: headline("parked_waits"),
        futex_waits: headline("futex_waits"),
        futex_wakes: headline("futex_wakes"),
        futex_eagain: headline("futex_eagain"),
        serving,
    })
}

/// Diffs `current` against `baseline`. Every baseline row is accounted
/// for in [`DiffReport::lines`] — matched rows with their throughput
/// delta, disappeared rows explicitly as removed (also regressions: lost
/// coverage must not pass silently) — and current-only rows are listed as
/// new. The counts feed the final summary line.
pub fn diff(baseline: &Summary, current: &Summary, thresholds: &Thresholds) -> DiffReport {
    let mut report = DiffReport::default();
    let drop_points = (baseline.fast_read_fraction - current.fast_read_fraction) * 100.0;
    report.lines.push(format!(
        "fast_read_fraction: {:.4} -> {:.4} ({:+.2} points)",
        baseline.fast_read_fraction, current.fast_read_fraction, -drop_points
    ));
    if drop_points > thresholds.fast_read_drop_points {
        report.regressions.push(format!(
            "fast_read_fraction dropped {drop_points:.2} points \
             (limit {:.1})",
            thresholds.fast_read_drop_points
        ));
    }
    for base_row in &baseline.serving {
        let key = base_row.key();
        let Some(cur_row) = current.serving.iter().find(|r| r.key() == key) else {
            report.removed += 1;
            report
                .lines
                .push(format!("removed serving row (was in baseline): {key}"));
            report
                .regressions
                .push(format!("serving row disappeared: {key}"));
            continue;
        };
        report.compared += 1;
        let change_pct = if base_row.ops_per_sec > 0.0 {
            (cur_row.ops_per_sec - base_row.ops_per_sec) / base_row.ops_per_sec * 100.0
        } else {
            0.0
        };
        report.lines.push(format!(
            "{key}: {:.0} -> {:.0} ops/s ({change_pct:+.1}%)",
            base_row.ops_per_sec, cur_row.ops_per_sec
        ));
        if -change_pct > thresholds.serving_drop_pct {
            report.regressions.push(format!(
                "{key}: ops_per_sec dropped {:.1}% (limit {:.1}%)",
                -change_pct, thresholds.serving_drop_pct
            ));
        }
    }
    for cur_row in &current.serving {
        if !baseline.serving.iter().any(|r| r.key() == cur_row.key()) {
            report.added += 1;
            report
                .lines
                .push(format!("new serving row (no baseline): {}", cur_row.key()));
        }
    }
    report
}

/// The JSON subset `BENCH_locks.json` uses: objects, arrays, escape-free
/// strings, and numbers.
#[derive(Debug)]
enum Json {
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Self::parse_value(bytes, &mut pos)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    skip_whitespace(bytes, pos);
                    if bytes.get(*pos) == Some(&b'}') {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    let Json::String(name) = Self::parse_value(bytes, pos)? else {
                        return Err(format!("non-string object key at offset {pos}"));
                    };
                    skip_whitespace(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at offset {pos}"));
                    }
                    *pos += 1;
                    fields.push((name, Self::parse_value(bytes, pos)?));
                    skip_whitespace(bytes, pos);
                    if bytes.get(*pos) == Some(&b',') {
                        *pos += 1;
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    skip_whitespace(bytes, pos);
                    if bytes.get(*pos) == Some(&b']') {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    items.push(Self::parse_value(bytes, pos)?);
                    skip_whitespace(bytes, pos);
                    if bytes.get(*pos) == Some(&b',') {
                        *pos += 1;
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'\\' {
                        return Err(format!("string escapes unsupported (offset {pos})"));
                    }
                    if b == b'"' {
                        let text =
                            std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                        *pos += 1;
                        return Ok(Json::String(text.to_string()));
                    }
                    *pos += 1;
                }
                Err("unterminated string".to_string())
            }
            Some(&b) if b == b'-' || b.is_ascii_digit() => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    *pos += 1;
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .ok()
                    .and_then(|text| text.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            _ => Err(format!("unexpected byte at offset {pos}")),
        }
    }

    fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find_map(|(key, value)| (key == name).then_some(value)),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_string(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_whitespace()) {
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "fast_read_fraction": 0.95,
  "total_reads": 123456,
  "revocations": 7,
  "parked_waits": 0,
  "futex_waits": 41,
  "futex_wakes": 17,
  "futex_eagain": 5,
  "serving": [
    {"spec": "BRAVO-BA", "backend": "mux", "connections": 128, "shards": 1, "batch": 1, "ops_per_sec": 15000.0, "fast_read_pct": "97.3"},
    {"spec": "BRAVO-BA?shards=8", "backend": "mux", "connections": 256, "shards": 8, "batch": 16, "offered_rate": 120000, "ops_per_sec": 90000.5, "fast_read_pct": "99.0"}
  ]
}
"#;

    fn sample() -> Summary {
        parse_summary(SAMPLE).expect("sample parses")
    }

    #[test]
    fn parses_the_repro_all_summary_shape() {
        let summary = sample();
        assert_eq!(summary.fast_read_fraction, 0.95);
        assert_eq!(summary.total_reads, Some(123456.0));
        assert_eq!(summary.futex_waits, Some(41.0));
        assert_eq!(summary.futex_wakes, Some(17.0));
        assert_eq!(summary.futex_eagain, Some(5.0));
        assert_eq!(summary.serving.len(), 2);
        assert_eq!(summary.serving[0].spec, "BRAVO-BA");
        assert_eq!(summary.serving[0].fast_read_pct, Some(97.3));
        assert_eq!(summary.serving[0].offered_rate, None);
        assert_eq!(summary.serving[1].shards, 8.0);
        assert_eq!(summary.serving[1].batch, 16.0);
        assert_eq!(summary.serving[1].offered_rate, Some(120000.0));
        assert_eq!(summary.serving[1].ops_per_sec, 90000.5);
    }

    #[test]
    fn rows_without_shard_fields_default_to_the_flat_store() {
        // A pre-sharding summary: no "shards"/"batch" fields in the row.
        let old = r#"{"fast_read_fraction": 0.9, "serving": [
            {"spec": "BA", "backend": "threads", "connections": 4, "ops_per_sec": 100.0}
        ]}"#;
        let summary = parse_summary(old).expect("old shape parses");
        assert_eq!(summary.serving[0].shards, 1.0);
        assert_eq!(summary.serving[0].batch, 1.0);
        assert_eq!(summary.serving[0].fast_read_pct, None);
        assert_eq!(summary.total_reads, None);
        assert_eq!(summary.futex_waits, None, "pre-futex summaries stay valid");
    }

    #[test]
    fn identical_summaries_pass_and_count_compared_rows() {
        let report = diff(&sample(), &sample(), &Thresholds::default());
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert_eq!((report.compared, report.added, report.removed), (2, 0, 0));
        assert_eq!(report.counts(), "2 rows compared, 0 added, 0 removed");
    }

    #[test]
    fn fast_read_and_serving_drops_trip_their_thresholds() {
        let mut current = sample();
        current.fast_read_fraction = 0.80; // −15 points: over the limit.
        current.serving[1].ops_per_sec = 10_000.0; // −89%: over the limit.
        current.serving[0].ops_per_sec = 14_000.0; // −6.7%: fine.
        let report = diff(&sample(), &current, &Thresholds::default());
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("fast_read_fraction"));
        assert!(report.regressions[1].contains("shards=8"));
    }

    #[test]
    fn removed_rows_are_reported_in_the_body_and_counted() {
        let mut current = sample();
        let dropped = current.serving.remove(0);
        current.serving.push(ServingRow {
            spec: "BA".into(),
            connections: 512.0,
            ..dropped
        });
        let report = diff(&sample(), &current, &Thresholds::default());
        // The disappearance is still a regression…
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("disappeared"));
        // …but now also a visible report line, and both directions count.
        assert!(report
            .lines
            .iter()
            .any(|line| line.contains("removed serving row")));
        assert!(report
            .lines
            .iter()
            .any(|line| line.contains("new serving row")));
        assert_eq!((report.compared, report.added, report.removed), (1, 1, 1));
        assert_eq!(report.counts(), "1 rows compared, 1 added, 1 removed");
    }

    #[test]
    fn improvements_never_trip() {
        let thresholds = Thresholds {
            fast_read_drop_points: 0.5,
            serving_drop_pct: 1.0,
        };
        let mut current = sample();
        current.fast_read_fraction = 0.99;
        for row in &mut current.serving {
            row.ops_per_sec *= 3.0;
        }
        let report = diff(&sample(), &current, &thresholds);
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"fast_read_fraction": "not a number", "serving": []}"#,
            r#"{"serving": []}"#,
            r#"{"fast_read_fraction": 0.5}"#,
            "{} trailing",
        ] {
            assert!(parse_summary(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
