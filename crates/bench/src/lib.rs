//! Shared plumbing for the reproduction harness binaries.
//!
//! Every figure and table in the paper's evaluation has a dedicated binary
//! in `src/bin/` (`fig1_interference` … `table2_wrmem`) that regenerates the
//! corresponding rows or series. This module holds what they share: run-mode
//! selection (`--quick` / `--standard` / `--full`), the thread series, and
//! result-table printing.
//!
//! Output format: every binary prints a self-describing, tab-separated table
//! to stdout with one row per data point, mirroring the series plotted in
//! the paper. Paper-scale intervals (`--full`) reproduce the original 10 s /
//! 30 s / 50 s measurement windows; the default `--quick` mode shrinks them
//! so the entire suite completes in minutes on a laptop.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Duration;

use bravo::spec::{LockHandle, LockSpec};
use bravo::stats::Snapshot;
use rwlocks::{build_lock, LockKind};
use rwsem::KernelVariant;

/// How long (and how wide) to run each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Seconds-long total runtime per figure; the default.
    Quick,
    /// Intermediate setting: ~1 s measurement intervals.
    Standard,
    /// The paper's own intervals (10 s+ per data point). Expect long runs.
    Full,
}

impl RunMode {
    /// Parses the run mode from the process arguments (`--quick`,
    /// `--standard`, `--full`); unknown arguments are ignored so binaries
    /// can add their own flags.
    pub fn from_args() -> Self {
        let mut mode = RunMode::Quick;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => mode = RunMode::Quick,
                "--standard" => mode = RunMode::Standard,
                "--full" => mode = RunMode::Full,
                _ => {}
            }
        }
        mode
    }

    /// The measurement interval for user-space throughput experiments
    /// (paper: 10 s).
    pub fn interval(self) -> Duration {
        match self {
            RunMode::Quick => Duration::from_millis(200),
            RunMode::Standard => Duration::from_secs(1),
            RunMode::Full => Duration::from_secs(10),
        }
    }

    /// The measurement interval for locktorture (paper: 30 s).
    pub fn locktorture_interval(self) -> Duration {
        match self {
            RunMode::Quick => Duration::from_millis(500),
            RunMode::Standard => Duration::from_secs(2),
            RunMode::Full => Duration::from_secs(30),
        }
    }

    /// Number of repetitions per data point (paper: median of 7).
    pub fn repetitions(self) -> usize {
        match self {
            RunMode::Quick => 1,
            RunMode::Standard => 3,
            RunMode::Full => 7,
        }
    }

    /// Thread counts to sweep, capped so quick runs stay quick.
    pub fn thread_series(self) -> Vec<usize> {
        match self {
            RunMode::Quick => vec![1, 2, 4, 8],
            RunMode::Standard => vec![1, 2, 4, 8, 16, 32],
            RunMode::Full => vec![1, 2, 4, 8, 16, 32, 48, 64],
        }
    }

    /// Input scale factor for the Metis tables (fraction of the paper's
    /// corpus size).
    pub fn corpus_words(self) -> usize {
        match self {
            RunMode::Quick => 40_000,
            RunMode::Standard => 200_000,
            RunMode::Full => 2_000_000,
        }
    }
}

impl std::fmt::Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RunMode::Quick => "quick",
            RunMode::Standard => "standard",
            RunMode::Full => "full",
        };
        f.write_str(s)
    }
}

/// Parsed harness command line: run mode plus the `--lock SPEC` selections
/// shared by every figure/table binary and the optional `--out DIR` results
/// directory.
///
/// `--lock` is repeatable (`--lock BRAVO-BA --lock "BRAVO-BA?n=99"`) and
/// also accepts the `--lock=SPEC` form. When absent, each binary sweeps its
/// paper-default lock set. Spec strings follow the grammar documented in
/// [`bravo::spec`]. `--out DIR` (or `--out=DIR`) asks the binary to
/// additionally write its rows as CSV files into `DIR` (see [`ResultsDir`]);
/// `repro_all` uses it to collect one CSV per experiment. `--report`
/// (requires `--out`) additionally renders the collected results into
/// `DIR/figs/*.svg` and a generated `RESULTS.md` when the sweep finishes —
/// the same pipeline the standalone `report` binary runs.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Interval/thread-count preset.
    pub mode: RunMode,
    /// Lock specs selected with `--lock`; empty means "use the binary's
    /// default set".
    pub locks: Vec<LockSpec>,
    /// Results directory selected with `--out`; `None` means stdout only.
    pub out: Option<std::path::PathBuf>,
    /// Whether `--report` asked for figures + `RESULTS.md` after the run.
    pub report: bool,
}

impl HarnessArgs {
    /// Parses the process arguments; malformed `--lock` specs terminate the
    /// process with a diagnostic (these are user-facing CLI errors, not
    /// programming errors).
    pub fn from_args() -> Self {
        let mode = RunMode::from_args();
        let mut locks = Vec::new();
        let mut out = None;
        let mut report = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--report" {
                report = true;
                continue;
            } else if arg == "--out" {
                match args.next() {
                    Some(dir) => out = Some(std::path::PathBuf::from(dir)),
                    None => {
                        eprintln!("--out requires a directory argument, e.g. --out results/");
                        std::process::exit(2);
                    }
                }
                continue;
            } else if let Some(dir) = arg.strip_prefix("--out=") {
                out = Some(std::path::PathBuf::from(dir));
                continue;
            }
            let spec_text = if arg == "--lock" {
                match args.next() {
                    Some(text) => text,
                    None => {
                        eprintln!("--lock requires a spec argument, e.g. --lock BRAVO-BA?n=99");
                        std::process::exit(2);
                    }
                }
            } else if let Some(text) = arg.strip_prefix("--lock=") {
                text.to_string()
            } else {
                continue;
            };
            match spec_text.parse::<LockSpec>() {
                Ok(spec) => locks.push(spec),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        if report && out.is_none() {
            eprintln!("--report requires --out DIR (there is nothing to render otherwise)");
            std::process::exit(2);
        }
        Self {
            mode,
            locks,
            out,
            report,
        }
    }

    /// Honours `--report`: renders the `--out` directory's collected
    /// results into `<out>/figs/*.svg` plus a generated `RESULTS.md`, the
    /// same pipeline as `cargo run -p bench --bin report`. Call after the
    /// sweep has written its rows; a no-op when `--report` was not passed.
    /// The committed CI baseline (`ci/BENCH_locks.baseline.json`) is used
    /// for the trajectory table when it exists in the working directory.
    pub fn run_report(&self) {
        if !self.report {
            return;
        }
        let Some(out) = &self.out else {
            return; // from_args rejects --report without --out
        };
        let mut config = report::ReportConfig::for_results_dir(out);
        let baseline = std::path::Path::new("ci/BENCH_locks.baseline.json");
        if baseline.is_file() {
            config.baseline = Some(baseline.to_path_buf());
        }
        match report::generate(&config) {
            Ok(outcome) => {
                println!(
                    "# rendered {} figure(s) under {}; report in {}",
                    outcome.figures.len(),
                    config.figs_dir.display(),
                    outcome.md_path.display()
                );
            }
            Err(e) => {
                eprintln!("report generation failed: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Opens the `--out` results directory if one was selected, terminating
    /// with a diagnostic when it cannot be created. Used by `repro_all`,
    /// which routes many experiments into one directory; single-table
    /// binaries use [`HarnessArgs::init_results`] instead.
    pub fn results_dir(&self) -> Option<ResultsDir> {
        self.out.as_ref().map(|dir| {
            ResultsDir::create(dir).unwrap_or_else(|e| {
                eprintln!("cannot create results directory {}: {e}", dir.display());
                std::process::exit(2);
            })
        })
    }

    /// Honours `--out` for a single-table binary: installs a process-wide
    /// tee so every subsequent [`header`]/[`row`] call is mirrored into
    /// `<dir>/<experiment>.csv`. A no-op when `--out` was not passed;
    /// terminates with a diagnostic when the directory cannot be created.
    pub fn init_results(&self, experiment: &str) {
        let Some(results) = self.results_dir() else {
            return;
        };
        println!(
            "# collecting rows in {}",
            results.path().join(format!("{experiment}.csv")).display()
        );
        let _ = TEE.set(ResultsTee {
            results,
            experiment: experiment.to_string(),
            header: std::sync::Mutex::new(Vec::new()),
        });
    }

    /// The lock specs this run sweeps: the `--lock` selections, or the
    /// given default kinds when none were passed.
    pub fn lock_specs(&self, default: &[LockKind]) -> Vec<LockSpec> {
        if self.locks.is_empty() {
            default.iter().map(|k| k.spec()).collect()
        } else {
            self.locks.clone()
        }
    }

    /// For the kernel-side binaries (locktorture, will-it-scale, Metis):
    /// interprets each `--lock` spec's kind as a [`KernelVariant`] name
    /// ("stock", "BRAVO", "BRAVO-nobias"), terminating with a diagnostic on
    /// anything else — including spec parameters (`n=`, `bias=`, `table=`,
    /// `wait=`), which the kernel semaphores cannot honour and which would
    /// otherwise silently mislabel the measurement.
    pub fn kernel_variants(&self, default: &[KernelVariant]) -> Vec<KernelVariant> {
        if self.locks.is_empty() {
            return default.to_vec();
        }
        self.locks
            .iter()
            .map(|spec| {
                if *spec != LockSpec::new(spec.kind()) {
                    eprintln!(
                        "this binary sweeps kernel rwsem variants; '{spec}' carries \
                         parameters the kernel semaphores cannot honour — pass a bare \
                         variant name instead"
                    );
                    std::process::exit(2);
                }
                match KernelVariant::parse(spec.kind()) {
                    Some(variant) => variant,
                    None => {
                        eprintln!(
                            "this binary sweeps kernel rwsem variants; \
                             --lock must name one of: {}",
                            KernelVariant::all()
                                .iter()
                                .map(|v| v.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            })
            .collect()
    }
}

impl HarnessArgs {
    /// For the two-column Metis tables: resolves `--lock` to exactly one
    /// `(baseline, contender)` pair of kernel variants, terminating with a
    /// diagnostic on any other arity — a lone variant would only compare
    /// against itself.
    pub fn kernel_pair(
        &self,
        default: (KernelVariant, KernelVariant),
    ) -> (KernelVariant, KernelVariant) {
        let variants = self.kernel_variants(&[default.0, default.1]);
        match variants[..] {
            [baseline, contender] => (baseline, contender),
            _ => {
                eprintln!(
                    "this table compares exactly two kernel variants; pass --lock twice \
                     (e.g. --lock stock --lock BRAVO), got {}",
                    variants.len()
                );
                std::process::exit(2);
            }
        }
    }
}

/// A directory collecting benchmark rows as CSV, one file per experiment.
///
/// This is the `--out results/` mode: every row a binary prints is also
/// appended to `<dir>/<experiment>.csv`, with a header row written when the
/// file is first touched in this run. Opening the directory deletes every
/// `.csv` left by a previous run **up front**, so the directory reflects
/// exactly one run even if this run exits early. Cells keep the
/// spec-string labels and `fast_read_pct` columns of the stdout tables, so
/// the CSVs are directly plottable.
pub struct ResultsDir {
    dir: std::path::PathBuf,
    started: std::sync::Mutex<std::collections::HashSet<String>>,
}

impl ResultsDir {
    /// Creates (or reuses) the directory and clears any `.csv` files a
    /// previous run left in it.
    pub fn create(dir: &std::path::Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_file() && path.extension().is_some_and(|e| e == "csv") {
                std::fs::remove_file(path)?;
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            started: std::sync::Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// Appends one row to `<experiment>.csv`, writing `header` first if this
    /// is the experiment's first row of the run. Failures are reported to
    /// stderr but do not abort the run — the stdout table is authoritative.
    pub fn append<S: AsRef<str>>(&self, experiment: &str, header: &[S], cells: &[String]) {
        if let Err(e) = self.try_append(experiment, header, cells) {
            eprintln!("warning: could not write {experiment}.csv: {e}");
        }
    }

    fn try_append<S: AsRef<str>>(
        &self,
        experiment: &str,
        header: &[S],
        cells: &[String],
    ) -> std::io::Result<()> {
        use std::io::Write as _;
        let fresh = self
            .started
            .lock()
            .expect("results registry poisoned")
            .insert(experiment.to_string());
        let path = self.dir.join(format!("{experiment}.csv"));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if fresh {
            writeln!(file, "{}", csv_row(header))?;
        }
        writeln!(file, "{}", csv_row(cells))
    }

    /// Path of the directory (for end-of-run reporting).
    pub fn path(&self) -> &std::path::Path {
        &self.dir
    }
}

fn csv_row<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .map(|c| csv_cell(c.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The single-experiment tee installed by [`HarnessArgs::init_results`]:
/// [`header`] and [`row`] mirror everything they print into
/// `<dir>/<experiment>.csv`.
struct ResultsTee {
    results: ResultsDir,
    experiment: String,
    header: std::sync::Mutex<Vec<String>>,
}

static TEE: std::sync::OnceLock<ResultsTee> = std::sync::OnceLock::new();

/// Minimal CSV quoting: cells containing a comma, quote or newline are
/// quoted with internal quotes doubled; everything else passes through
/// (spec strings contain `?`/`&`/`:` but none of the special characters).
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Builds a lock from a spec, terminating the process with a diagnostic on
/// specs the catalog rejects (unknown kind, unsupported table/bias).
pub fn build_or_exit(spec: &LockSpec) -> LockHandle {
    match build_lock(spec) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

// The latency formatting helpers live next to `LoadReport` in
// `server::loadgen` (bravod's own CLI needs them and `server` cannot
// depend on `bench`); re-exported here so the fig binaries keep one
// import root for result-table plumbing.
pub use server::loadgen::{micros_cell, LATENCY_COLUMNS};

/// Offered load per connection for the serving sweeps (operations per
/// second): high enough to stress the GetLock, low enough that a laptop's
/// loopback stack keeps up and the open loop measures the lock, not the
/// NIC. Shared by `fig10_server` and the `repro_all` serving section so
/// their rows stay comparable.
pub const SERVING_RATE_PER_CONNECTION: f64 = 2_000.0;

/// Total offered load cap across all connections of a serving sweep:
/// beyond this the sweep is probing reader-population effects
/// (visible-readers slots, revocation scan cost), not arrival rate, and
/// pushing the rate higher would only degrade the open loop into a closed
/// one on small hosts.
pub const SERVING_TOTAL_RATE_CAP: f64 = 16_000.0;

/// The offered rate for a serving sweep at `connections`: per-connection
/// rate, capped at the sweep-wide total.
pub fn serving_sweep_rate(connections: usize) -> f64 {
    (SERVING_RATE_PER_CONNECTION * connections as f64).min(SERVING_TOTAL_RATE_CAP)
}

/// The p50/p95/p99 cells of one load-generator report, matching
/// [`LATENCY_COLUMNS`].
pub fn latency_cells(report: &server::LoadReport) -> [String; 3] {
    report.latency_cells()
}

/// Runs the open-loop load generator against a serving address,
/// terminating the process with a diagnostic when no connection could be
/// established (a dead or unreachable server is a harness failure, not a
/// data point). A run that fell below 95% of its target arrival rate is
/// still a data point, but the degradation warning goes to stderr so the
/// row is never mistaken for a clean open-loop measurement.
pub fn loadgen_or_exit(
    addr: std::net::SocketAddr,
    config: &server::LoadConfig,
) -> server::LoadReport {
    match server::loadgen::run(addr, config) {
        Ok(report) => {
            if let Some(warning) = report.degradation_warning() {
                eprintln!("{warning}");
            }
            report
        }
        Err(e) => {
            eprintln!("load generator failed against {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// Formats the per-lock statistics cell appended to result rows: the
/// fast-read percentage over the lock's lifetime, or `-` when the lock
/// recorded nothing (plain locks do not record).
pub fn fast_read_cell(stats: &Snapshot) -> String {
    if stats.total_reads() == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", stats.fast_read_fraction() * 100.0)
    }
}

/// Prints the experiment banner: which figure/table this regenerates and
/// the run mode in effect.
pub fn banner(experiment: &str, mode: RunMode) {
    println!("# {experiment}");
    println!("# run mode: {mode} (use --full for paper-scale intervals)");
}

/// Prints a tab-separated header row (and remembers it for the `--out` CSV
/// tee installed by [`HarnessArgs::init_results`]).
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
    if let Some(tee) = TEE.get() {
        *tee.header.lock().expect("results tee poisoned") =
            columns.iter().map(|c| c.to_string()).collect();
    }
}

/// Prints a tab-separated data row (mirrored into the `--out` CSV when a
/// tee is installed).
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
    if let Some(tee) = TEE.get() {
        let header = tee.header.lock().expect("results tee poisoned").clone();
        tee.results.append(&tee.experiment, &header, cells);
    }
}

/// Formats a floating-point cell with sensible precision for throughput
/// numbers.
pub fn fmt_f64(value: f64) -> String {
    if value >= 1000.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_quick() {
        // from_args reads real argv (the test binary's), which contains no
        // mode flag, so the default applies.
        assert_eq!(RunMode::from_args(), RunMode::Quick);
    }

    #[test]
    fn intervals_scale_with_mode() {
        assert!(RunMode::Quick.interval() < RunMode::Standard.interval());
        assert!(RunMode::Standard.interval() < RunMode::Full.interval());
        assert_eq!(RunMode::Full.interval(), Duration::from_secs(10));
        assert_eq!(
            RunMode::Full.locktorture_interval(),
            Duration::from_secs(30)
        );
        assert_eq!(RunMode::Full.repetitions(), 7);
    }

    #[test]
    fn thread_series_grow_with_mode() {
        assert!(RunMode::Quick.thread_series().len() < RunMode::Full.thread_series().len());
        assert_eq!(*RunMode::Full.thread_series().last().unwrap(), 64);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(1.234), "1.23");
    }

    #[test]
    fn latency_cells_match_their_columns() {
        assert_eq!(micros_cell(Duration::from_micros(150)), "150.0");
        let mut latencies = server::LatencyHistogram::new();
        latencies.record(Duration::from_micros(100));
        let report = server::LoadReport {
            operations: 1,
            errors: 0,
            scheduled: 1,
            abandoned: 0,
            connect_failures: 0,
            target_rate: 1.0,
            target_duration: Duration::from_secs(1),
            elapsed: Duration::from_secs(1),
            latencies,
        };
        let cells = latency_cells(&report);
        assert_eq!(cells.len(), LATENCY_COLUMNS.len());
        for cell in &cells {
            assert!(cell.parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn lock_specs_fall_back_to_the_default_set() {
        let args = HarnessArgs {
            mode: RunMode::Quick,
            locks: Vec::new(),
            out: None,
            report: false,
        };
        let specs = args.lock_specs(LockKind::paper_set());
        assert_eq!(specs.len(), LockKind::paper_set().len());
        assert_eq!(specs[0].kind(), "Cohort-RW");

        let args = HarnessArgs {
            mode: RunMode::Quick,
            locks: vec!["BRAVO-BA?n=99".parse().unwrap()],
            out: None,
            report: false,
        };
        let specs = args.lock_specs(LockKind::paper_set());
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].to_string(), "BRAVO-BA?n=99");
    }

    #[test]
    fn kernel_variants_fall_back_and_parse() {
        let args = HarnessArgs {
            mode: RunMode::Quick,
            locks: vec!["stock".parse().unwrap(), "BRAVO".parse().unwrap()],
            out: None,
            report: false,
        };
        let variants = args.kernel_variants(KernelVariant::all());
        assert_eq!(variants, vec![KernelVariant::Stock, KernelVariant::Bravo]);
    }

    #[test]
    fn results_dir_writes_headers_once_and_truncates_previous_runs() {
        let dir = std::env::temp_dir().join(format!("bravo_results_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let results = ResultsDir::create(&dir).unwrap();
            results.append(
                "fig_test",
                &["experiment", "series", "value"],
                &["fig_test".into(), "BRAVO-BA?n=9".into(), "1".into()],
            );
            results.append(
                "fig_test",
                &["experiment", "series", "value"],
                &["fig_test".into(), "BA".into(), "2".into()],
            );
        }
        let text = std::fs::read_to_string(dir.join("fig_test.csv")).unwrap();
        assert_eq!(
            text,
            "experiment,series,value\nfig_test,BRAVO-BA?n=9,1\nfig_test,BA,2\n"
        );
        // A later run truncates the previous run's rows.
        let results = ResultsDir::create(&dir).unwrap();
        results.append(
            "fig_test",
            &["experiment", "series", "value"],
            &["fig_test".into(), "pthread".into(), "3".into()],
        );
        let text = std::fs::read_to_string(dir.join("fig_test.csv")).unwrap();
        assert_eq!(text, "experiment,series,value\nfig_test,pthread,3\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_cells_quote_only_when_needed() {
        assert_eq!(
            csv_cell("BRAVO-BA?n=9&wait=futex"),
            "BRAVO-BA?n=9&wait=futex"
        );
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fast_read_cell_handles_empty_and_populated_snapshots() {
        assert_eq!(fast_read_cell(&Snapshot::default()), "-");
        let s = Snapshot {
            fast_reads: 3,
            slow_reads_disabled: 1,
            ..Snapshot::default()
        };
        assert_eq!(fast_read_cell(&s), "75.0%");
    }
}
