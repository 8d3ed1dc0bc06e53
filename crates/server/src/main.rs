//! `bravod` — the BRAVO reproduction's RPC server and load generator.
//!
//! ```text
//! bravod serve [--addr 127.0.0.1:4629] [--lock SPEC] [--keys N]
//!              [--backend threads|mux] [--workers N]
//!              [--port-file PATH] [--verbose]
//! bravod bench --addr HOST:PORT [--quick] [--connections N] [--rate OPS]
//!              [--read-ratio F] [--scan-ratio F] [--skew THETA] [--keys N]
//!              [--duration-ms MS] [--seed S] [--batch K] [--label TEXT]
//!              [--csv PATH]
//! ```
//!
//! `serve` opens a [`kvstore::Db`] with the given lock spec and serves the
//! wire protocol until killed. `--backend threads` (the default) serves
//! each connection on the thread that accepted it, which starts the next
//! acceptor after answering the connection's first request if that
//! request has already arrived, and before reading otherwise; so a new
//! connection waits for at most one request of the one before it.
//! `--backend mux` multiplexes nonblocking sockets over `--workers` event
//! loops (default: host parallelism, capped at 8) so connection counts can
//! exceed host threads. With
//! `--addr 127.0.0.1:0` the kernel picks an ephemeral port; `--port-file`
//! writes the bound port there so scripts (CI's `server-smoke` step) can
//! find it. Once listening, `serve` prints one `bravod: serving …` line
//! ending in `loaded in X.XXX s`, the time taken to bind and load the
//! store; a store that cannot be built or allocated exits 2.
//!
//! `bench` drives the open-loop load generator against a running server
//! and prints one result row (throughput, achieved-vs-target arrival rate,
//! p50/p95/p99 latency); with `--csv PATH` the row is also appended as
//! CSV. Exits nonzero when the run completed zero operations, so smoke
//! tests fail loudly on a dead server; warns on stderr when the achieved
//! arrival rate fell below 95% of target (the open loop degraded).
//! `--batch K` with K > 1 packs each scheduled arrival into one
//! `MultiGet`/`WriteBatch` frame of K point operations; `--rate` remains
//! the target *operation* rate.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use bravo::spec::LockSpec;
use server::loadgen::{self, LoadConfig};
use server::{BackendKind, Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'\n{USAGE}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
bravod: the BRAVO reproduction's RPC server and open-loop load generator

  bravod serve [--addr 127.0.0.1:4629] [--lock SPEC] [--keys N]
               [--backend threads|mux] [--workers N]
               [--port-file PATH] [--verbose]
  bravod bench --addr HOST:PORT [--quick] [--connections N] [--rate OPS]
               [--read-ratio F] [--scan-ratio F] [--skew THETA] [--keys N]
               [--duration-ms MS] [--seed S] [--batch K] [--label TEXT]
               [--csv PATH]

SPEC follows the lock-spec grammar, e.g. BRAVO-BA?shards=8&wait=futex.
--backend threads (default) serves each connection on the thread that
accepted it, which starts the next acceptor once it has answered the
connection's first request if that request was already waiting, and at once
otherwise; --backend mux multiplexes nonblocking sockets over --workers
event loops, so connections can outnumber host threads. --batch K > 1 packs
each arrival into one MultiGet/WriteBatch frame of K point operations
(--rate stays the op rate).
";

/// Pulls the value of `--flag VALUE` / `--flag=VALUE` out of `args`,
/// exiting with a diagnostic when the value is missing or unparsable.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let text = if arg == flag {
            match iter.next() {
                Some(value) => value.clone(),
                None => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        } else if let Some(value) = arg.strip_prefix(&format!("{flag}=")) {
            value.to_string()
        } else {
            continue;
        };
        match text.parse::<T>() {
            Ok(value) => return Some(value),
            Err(e) => {
                eprintln!("invalid value '{text}' for {flag}: {e}");
                std::process::exit(2);
            }
        }
    }
    None
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn serve(args: &[String]) {
    let addr: String = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:4629".to_string());
    let spec: LockSpec = flag_value(args, "--lock").unwrap_or_else(|| LockSpec::new("BRAVO-BA"));
    let keys: u64 = flag_value(args, "--keys").unwrap_or(10_000);
    let port_file: Option<String> = flag_value(args, "--port-file");
    let backend: BackendKind = flag_value(args, "--backend").unwrap_or_default();
    let config = ServerConfig {
        spec: spec.clone(),
        prepopulate: keys,
        verbose: has_flag(args, "--verbose"),
        backend,
        mux_workers: flag_value(args, "--workers").unwrap_or(0),
        mux_scan_poller: false,
    };
    let workers = config.resolved_mux_workers();
    let started = Instant::now();
    let server = match Server::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bravod: {e}");
            std::process::exit(2);
        }
    };
    let loaded = started.elapsed().as_secs_f64();
    let bound = server.local_addr();
    let serving = match backend {
        BackendKind::Threads => "threads backend".to_string(),
        BackendKind::Mux => format!("mux backend, {workers} workers"),
    };
    println!("bravod: serving {spec} on {bound} ({keys} keys, {serving}), loaded in {loaded:.3} s");
    if let Some(path) = port_file {
        // Written atomically-enough for scripts: the whole port in one call.
        if let Err(e) = std::fs::write(&path, format!("{}\n", bound.port())) {
            eprintln!("bravod: cannot write port file {path}: {e}");
            std::process::exit(2);
        }
    }
    // Serve until killed. The backend accepts on threads of its own; nothing
    // ever wakes the main thread, so a plain periodic sleep (rather than an
    // ad-hoc park outside the `bravo::wait` eventcount) is the honest idle
    // loop.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn bench(args: &[String]) {
    let Some(addr_text) = flag_value::<String>(args, "--addr") else {
        eprintln!("bench requires --addr HOST:PORT\n{USAGE}");
        std::process::exit(2);
    };
    let addr: SocketAddr = match addr_text.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("cannot resolve --addr '{addr_text}'");
            std::process::exit(2);
        }
    };
    let mut config = LoadConfig::quick();
    if !has_flag(args, "--quick") {
        config.duration = Duration::from_millis(2_000);
        config.connections = 8;
        config.rate = 20_000.0;
    }
    if let Some(connections) = flag_value(args, "--connections") {
        config.connections = connections;
    }
    if let Some(rate) = flag_value(args, "--rate") {
        config.rate = rate;
    }
    if let Some(read_ratio) = flag_value(args, "--read-ratio") {
        config.read_ratio = read_ratio;
    }
    if let Some(scan_ratio) = flag_value(args, "--scan-ratio") {
        config.scan_ratio = scan_ratio;
    }
    if let Some(skew) = flag_value(args, "--skew") {
        config.skew = skew;
    }
    if let Some(keys) = flag_value(args, "--keys") {
        config.keys = keys;
    }
    if let Some(ms) = flag_value::<u64>(args, "--duration-ms") {
        config.duration = Duration::from_millis(ms);
    }
    if let Some(seed) = flag_value(args, "--seed") {
        config.seed = seed;
    }
    if let Some(batch) = flag_value(args, "--batch") {
        config.batch = batch;
    }
    let label: String = flag_value(args, "--label").unwrap_or_else(|| addr_text.clone());
    let csv: Option<String> = flag_value(args, "--csv");

    let report = match loadgen::run(addr, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bravod bench: {e}");
            std::process::exit(1);
        }
    };

    // Serialization lives beside the report itself (loadgen), so the
    // in-harness sweeps and this CLI can never drift apart on schema.
    let header = loadgen::REPORT_COLUMNS;
    let cells = report.csv_cells(&label, &config);
    println!("{}", header.join("\t"));
    println!("{}", cells.join("\t"));
    if let Some(path) = csv {
        if let Err(e) = loadgen::append_csv(&path, &header, &cells) {
            eprintln!("bravod bench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("# row appended to {path}");
    }
    if let Some(warning) = report.degradation_warning() {
        eprintln!("bravod bench: {warning}");
    }
    if report.operations == 0 {
        eprintln!("bravod bench: completed zero operations against {addr}");
        std::process::exit(1);
    }
}
