//! Figure 10 (reproduction extension) — serving traffic over loopback.
//!
//! The paper's experiments are all in-process; the north star ("serve heavy
//! traffic") calls for measuring lock specs under *connection concurrency*.
//! This binary sweeps `{backend} × {connections} × {lock specs}`: for each
//! spec and serving backend it starts an in-process `bravod` server on an
//! ephemeral loopback port, then drives the open-loop load generator at
//! each connection count, reporting achieved throughput and p50/p95/p99
//! completion latency (measured from the scheduled arrival, so server-side
//! queueing is charged to the lock).
//!
//! The `threads` backend spends one OS thread per connection, so its series
//! stops at 32; the `mux` backend multiplexes nonblocking sockets over a
//! fixed worker pool, so its series continues to 256 (quick) and 1024
//! (full) — reader populations the thread-per-connection discipline cannot
//! reach on CI hosts. Past the per-connection rate knee the *total* offered
//! load is capped, so high-connection rows measure reader-population
//! pressure on the lock, not loopback saturation.
//!
//! Expected shape: read-mostly traffic keeps BRAVO composites on the fast
//! path (`fast_read_pct` high), so added connections raise throughput
//! without the reader-count-proportional writer penalty the underlying
//! lock would pay.
//!
//! Pass `--lock SPEC` (repeatable) to sweep explicit lock specs instead of
//! the default `BA` vs `BRAVO-BA` pair (plus their parking and futex
//! variants and a `BRAVO-BA?shards=8` sharded store, so the default sweep
//! covers `{shards} × {backend} × {connections}`). The `shards` column reports
//! the spec's store partition count; per-shard lock counters are merged,
//! so `fast_read_pct` attribution survives sharding. With `--out DIR`,
//! `--report` renders the collected CSVs into the per-backend throughput
//! and latency-band figures plus a generated `RESULTS.md` (see
//! `docs/benchmarks.md`).

use std::time::Duration;

use bench::{
    banner, fast_read_cell, fmt_f64, header, latency_cells, loadgen_or_exit, row,
    serving_sweep_rate, HarnessArgs, RunMode,
};
use bravo::wait::WaitMode;
use rwlocks::LockKind;
use server::loadgen::LoadConfig;
use server::{BackendKind, Server, ServerConfig};

/// Connection counts to sweep for one backend. The threaded series is
/// capped at 32 so the thread-per-connection server stays within reason on
/// small hosts; the mux series extends into the hundreds (its whole point).
fn connection_series(mode: RunMode, backend: BackendKind) -> Vec<usize> {
    let mut series: Vec<usize> = mode
        .thread_series()
        .into_iter()
        .filter(|&t| t <= 32)
        .collect();
    if backend == BackendKind::Mux {
        series.extend(match mode {
            RunMode::Quick => [64, 256].as_slice(),
            RunMode::Standard => [64, 256, 512].as_slice(),
            RunMode::Full => [64, 256, 512, 1024].as_slice(),
        });
    }
    series
}

/// The load the sweep offers at a given connection count.
fn sweep_config(mode: RunMode, connections: usize) -> LoadConfig {
    LoadConfig {
        connections,
        rate: serving_sweep_rate(connections),
        duration: mode.interval().max(Duration::from_millis(200)),
        keys: 10_000,
        ..LoadConfig::quick()
    }
}

fn main() {
    let args = HarnessArgs::from_args();
    args.init_results("fig10_server");
    let mode = args.mode;
    banner(
        "Figure 10: bravod loopback serving sweep (open-loop, ops/sec + latency)",
        mode,
    );

    let mut specs = args.lock_specs(&[LockKind::Ba, LockKind::BravoBa]);
    if args.locks.is_empty() {
        // The default sweep repeats the pair with parking waiters: under the
        // mux backend's high-connection rows (256 quick, 1024 full) the
        // handler pool is oversubscribed, which is exactly where wait=park
        // should shed spin cycles — the parked_waits column shows it.
        specs.push(LockKind::Ba.spec().with_wait(WaitMode::Park));
        specs.push(LockKind::BravoBa.spec().with_wait(WaitMode::Park));
        // The futex twins of the parking rows: same oversubscribed handler
        // pool, but blocking through the kernel word directly — the
        // futex_waits/futex_wakes/futex_eagain columns separate real
        // sleeps from bounced (EAGAIN) syscalls.
        specs.push(LockKind::Ba.spec().with_wait(WaitMode::Futex));
        specs.push(LockKind::BravoBa.spec().with_wait(WaitMode::Futex));
        // And the sharded store: eight key-hashed GetLocks instead of one,
        // so the high-connection rows show what spreading the readers (and
        // above all the writers) across shards buys on top of BRAVO.
        specs.push(LockKind::BravoBa.spec().with_shards(8));
    }
    header(&[
        "backend",
        "connections",
        "shards",
        "lock",
        "ops",
        "errors",
        "abandoned",
        "ops_per_sec",
        "rate_achieved_pct",
        "p50_us",
        "p95_us",
        "p99_us",
        "fast_read_pct",
        "wait_mode",
        "parked_waits",
        "futex_waits",
        "futex_wakes",
        "futex_eagain",
    ]);
    for backend in BackendKind::all() {
        for spec in &specs {
            let config = ServerConfig::new(spec.clone()).with_backend(backend);
            let server = match Server::bind("127.0.0.1:0", config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            let addr = server.local_addr();
            for connections in connection_series(mode, backend) {
                let before = server.db().lock_stats();
                let global_before = bravo::stats::snapshot();
                let report = loadgen_or_exit(addr, &sweep_config(mode, connections));
                let delta = server.db().lock_stats().since(&before);
                let global_delta = bravo::stats::snapshot().since(&global_before);
                let [p50, p95, p99] = latency_cells(&report);
                row(&[
                    backend.to_string(),
                    connections.to_string(),
                    spec.shards().to_string(),
                    spec.to_string(),
                    report.operations.to_string(),
                    report.errors.to_string(),
                    report.abandoned.to_string(),
                    fmt_f64(report.throughput()),
                    format!("{:.1}", report.rate_fraction() * 100.0),
                    p50,
                    p95,
                    p99,
                    fast_read_cell(&delta),
                    spec.wait().to_string(),
                    global_delta.parked_waits.to_string(),
                    global_delta.futex_waits.to_string(),
                    global_delta.futex_wakes.to_string(),
                    global_delta.futex_eagain.to_string(),
                ]);
            }
            server.shutdown();
        }
    }
    // `--report`: render the collected CSV into the latency/throughput
    // figures + RESULTS.md (requires `--out`, which tees the rows).
    args.run_report();
}
