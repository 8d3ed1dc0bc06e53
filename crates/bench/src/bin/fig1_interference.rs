//! Figure 1 — sensitivity to inter-lock interference.
//!
//! 64 threads (scaled down in quick mode) pick read locks at random from a
//! pool whose size sweeps the powers of two from 1 to 8192. Each row reports
//! the throughput of shared-table BRAVO-BA divided by the throughput of an
//! idealized BRAVO-BA with a private 4096-slot table per lock instance. The
//! paper's claim: the fraction never drops below ~0.94.
//!
//! Pass `--lock SPEC` (repeatable) to change the base composite(s) — each
//! must be a BRAVO composite on a *process-shared* table (`table=global`,
//! the default: the flat global table for `BRAVO-BA`, the sectored global
//! table for `BRAVO-2D-BA`); the comparator run overrides the table to
//! `private:4096`. Beyond the paper's fraction, each row reports the
//! table-level interference directly: cross-lock slot collisions in the
//! shared run (`xlock_collisions`) and the average slots a revoking writer
//! scans (`scan_slots_per_revoke`, measured by a revocation probe over the
//! shared pool after the read phase). Running `BRAVO-BA` and `BRAVO-2D-BA`
//! in one invocation shows the trade: the flat global writer walks all 4096
//! slots, the sectored writer one column of a slot per row.

use bench::{banner, fmt_f64, header, row, HarnessArgs};
use bravo::wait::WaitMode;
use rwlocks::LockKind;
use workloads::interference::{interference_run_spec, paper_lock_pool_series, InterferenceResult};

fn main() {
    let args = HarnessArgs::from_args();
    args.init_results("fig1_interference");
    let mode = args.mode;
    banner(
        "Figure 1: inter-lock interference (shared-table vs private-table)",
        mode,
    );

    let mut bases = args.lock_specs(&[LockKind::BravoBa]);
    if args.locks.is_empty() {
        // The default sweep also exercises the parking wait strategy, so
        // the CSV shows its cost (or lack of it) next to the spinning
        // baseline.
        bases.push(LockKind::BravoBa.spec().with_wait(WaitMode::Park));
    }
    let threads = match mode {
        bench::RunMode::Quick => 8,
        bench::RunMode::Standard => 16,
        bench::RunMode::Full => 64,
    };
    let pools: Vec<usize> = match mode {
        bench::RunMode::Quick => paper_lock_pool_series().into_iter().step_by(3).collect(),
        _ => paper_lock_pool_series(),
    };

    header(&[
        "base_lock",
        "locks",
        "shared_ops",
        "private_ops",
        "throughput_fraction",
        "xlock_collisions",
        "scan_slots_per_revoke",
        "wait_mode",
        "parked_waits",
    ]);
    for base in &bases {
        for &locks in &pools {
            // Process totals bracket the whole cell (all repetitions):
            // parked waits are recorded per thread by the wait layer, which
            // has no per-lock sink.
            let before = bravo::stats::snapshot();
            let mut runs: Vec<InterferenceResult> = (0..mode.repetitions())
                .map(|_| {
                    interference_run_spec(base, locks, threads, mode.interval()).unwrap_or_else(
                        |e| {
                            eprintln!("{e}");
                            std::process::exit(2);
                        },
                    )
                })
                .collect();
            let delta = bravo::stats::snapshot().since(&before);
            runs.sort_by(|a, b| a.fraction().total_cmp(&b.fraction()));
            let result = runs[runs.len() / 2];
            row(&[
                base.to_string(),
                locks.to_string(),
                result.shared_table_ops.to_string(),
                result.private_table_ops.to_string(),
                fmt_f64(result.fraction()),
                result.shared_collisions.to_string(),
                fmt_f64(result.scan_slots_per_revocation()),
                base.wait().to_string(),
                delta.parked_waits.to_string(),
            ]);
        }
    }
}
