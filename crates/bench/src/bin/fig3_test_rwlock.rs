//! Figure 3 — the test_rwlock benchmark (Desnoyers et al.).
//!
//! One fixed-role writer plus `T` fixed-role readers on one central lock,
//! extremely read-dominated. Expected shape: BRAVO-BA ≫ BA at higher thread
//! counts and approaches Per-CPU; BRAVO-pthread ≫ pthread.
//!
//! On hosts with fewer cores than runnable threads the absolute numbers for
//! the phase-fair locks (BA and composites over it, Per-CPU) are dominated
//! by scheduling, not lock scalability: phase-fair admission gives a
//! registered waiting reader one reader/writer alternation — two context
//! switches — per writer cycle. The binary prints a footnote to that effect
//! so quick-mode output on tiny hosts is not misread.
//!
//! Pass `--lock SPEC` (repeatable) to sweep explicit lock specs instead of
//! the paper set, e.g. `--lock "BRAVO-BA?n=99" --lock BRAVO-2D-BA`.

use bench::{banner, build_or_exit, fast_read_cell, fmt_f64, header, row, HarnessArgs};
use bravo::wait::WaitMode;
use rwlocks::LockKind;
use workloads::harness::median_of;
use workloads::test_rwlock::{test_rwlock, TestRwlockConfig};

fn main() {
    let args = HarnessArgs::from_args();
    args.init_results("fig3_test_rwlock");
    let mode = args.mode;
    banner(
        "Figure 3: test_rwlock (1 writer + T readers, ops/msec)",
        mode,
    );

    let mut specs = args.lock_specs(LockKind::paper_set());
    if args.locks.is_empty() {
        // The default sweep includes one parking composite so the CSV
        // carries parked-wait counts next to the spinning paper set.
        specs.push(LockKind::BravoBa.spec().with_wait(WaitMode::Park));
    }
    header(&[
        "readers",
        "lock",
        "iterations",
        "ops_per_msec",
        "fast_read_pct",
        "wait_mode",
        "parked_waits",
    ]);
    for threads in mode.thread_series() {
        for spec in &specs {
            // One lock per data point: bias state and per-lock statistics
            // are scoped to this (threads, spec) cell. Parked waits are
            // recorded by the process-global wait layer, so bracket the
            // cell with global snapshots.
            let lock = build_or_exit(spec);
            let before = bravo::stats::snapshot();
            let result = median_of(mode.repetitions(), || {
                test_rwlock(&lock, TestRwlockConfig::paper(threads, mode.interval())).operations
            });
            let delta = bravo::stats::snapshot().since(&before);
            let per_msec = result as f64 / mode.interval().as_millis().max(1) as f64;
            row(&[
                threads.to_string(),
                lock.label().to_string(),
                result.to_string(),
                fmt_f64(per_msec),
                fast_read_cell(&lock.snapshot()),
                spec.wait().to_string(),
                delta.parked_waits.to_string(),
            ]);
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if mode.thread_series().last().copied().unwrap_or(1) + 1 > cpus {
        println!(
            "# note: this host has {cpus} hardware thread(s) but the sweep runs up to {} \
             runnable threads (readers + 1 writer). When oversubscribed, phase-fair \
             admission (BA, Per-CPU, and BRAVO composites over them) charges one \
             reader/writer alternation — two context switches — per writer cycle for \
             every registered waiting reader, so low-thread-count rows reflect \
             scheduling cost, not lock scalability. Paper-shape comparisons need \
             threads <= hardware threads (use --full on a big host).",
            mode.thread_series().last().copied().unwrap_or(1) + 1
        );
    }
}
