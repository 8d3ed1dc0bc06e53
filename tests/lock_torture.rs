//! Lock-torture tier: every catalog spec under oversubscription, in every
//! wait mode (spin, park, futex), pinned by a watchdog.
//!
//! Each run hammers one lock with `2 × available_parallelism` threads — a
//! mix of writers and readers sharing an exclusion checker — for a short
//! wall-clock window. Oversubscription is the point: with more runnable
//! threads than cores, a spinning waiter burns its whole quantum and a
//! parking waiter must round-trip through the kernel, so lost-wakeup and
//! missed-notify bugs that stay latent on idle hosts surface here as hangs.
//!
//! Hangs must fail, not stall CI: a watchdog thread observes per-worker
//! progress counters and, if the run (including the joins) overstays its
//! deadline, dumps every worker's counter to stderr and aborts the test
//! binary. A watchdog firing is always a bug — either a deadlock/lost
//! wakeup in the lock under test or a starvation so complete it amounts to
//! one.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bravo_repro::bravo::wait::WaitMode;
use bravo_repro::rwlocks::{build_lock, LockKind};

/// Measurement window per (kind, wait-mode) cell.
const TORTURE_WINDOW: Duration = Duration::from_millis(100);

/// Watchdog deadline for one cell, joins included. Generous: CI hosts are
/// slow and oversubscribed scheduling is noisy, but a healthy cell finishes
/// in well under a second.
const WATCHDOG_LIMIT: Duration = Duration::from_secs(120);

/// How often the watchdog re-checks for completion.
const WATCHDOG_POLL: Duration = Duration::from_millis(100);

fn torture_threads() -> usize {
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
    (cpus * 2).max(4)
}

/// Where a torture cell currently is, so a watchdog dump states whether the
/// hang is inside the measurement window or in the shutdown joins (a join
/// hang means a worker is stuck inside the lock and never saw `stop`).
const PHASE_RUNNING: u8 = 0;
const PHASE_JOINING: u8 = 1;

fn phase_name(phase: u8) -> &'static str {
    match phase {
        PHASE_RUNNING => "running (measurement window)",
        PHASE_JOINING => "joining workers after stop",
        _ => "unknown",
    }
}

/// Tortures one catalog spec: every worker alternates read and write
/// critical sections, checking mutual exclusion from inside each, and
/// bumps its progress counter per iteration.
///
/// BRAVO kinds run with their default configuration, and a cell must show
/// that it reached BRAVO's own paths: fast reads, and revocations (which
/// scan the table and wait for fast readers to clear their slots).
fn torture(kind: LockKind, wait: WaitMode) {
    let spec = kind.spec().with_wait(wait);
    let label = spec.to_string();
    let lock = Arc::new(build_lock(&spec).unwrap_or_else(|e| panic!("build {label}: {e}")));
    let threads = torture_threads();

    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let phase = Arc::new(AtomicU8::new(PHASE_RUNNING));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    // Exclusion checker: incremented under the write lock, must never be
    // seen nonzero by a reader or at a second writer's entry.
    let writers_inside = Arc::new(AtomicU64::new(0));

    let watchdog = {
        let done = Arc::clone(&done);
        let phase = Arc::clone(&phase);
        let progress = Arc::clone(&progress);
        let label = label.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + WATCHDOG_LIMIT;
            // Last-poll snapshot, so the dump separates workers that are
            // merely slow from workers that have fully stopped advancing.
            let mut last: Vec<u64> = vec![0; progress.len()];
            while !done.load(Ordering::Acquire) {
                if Instant::now() >= deadline {
                    eprintln!(
                        "lock_torture watchdog fired: kind={kind:?} wait={wait} \
                         (spec '{label}') overstayed {WATCHDOG_LIMIT:?} \
                         while {}; per-worker progress:",
                        phase_name(phase.load(Ordering::Acquire)),
                    );
                    for (i, counter) in progress.iter().enumerate() {
                        let now = counter.load(Ordering::Relaxed);
                        let delta = now - last[i];
                        eprintln!(
                            "  worker {i}: {now} iterations ({delta} in the last \
                             {WATCHDOG_POLL:?}{})",
                            if delta == 0 { " — STALLED" } else { "" }
                        );
                    }
                    // Abort instead of panicking: the test thread is stuck
                    // inside the lock under test, so a panic here would
                    // leave the binary hanging anyway.
                    std::process::abort();
                }
                for (i, counter) in progress.iter().enumerate() {
                    last[i] = counter.load(Ordering::Relaxed);
                }
                std::thread::sleep(WATCHDOG_POLL);
            }
        })
    };

    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            let writers_inside = Arc::clone(&writers_inside);
            std::thread::spawn(move || {
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Every 8th iteration writes; the offset spreads the
                    // writer phases across workers.
                    if (iter + i as u64) % 8 == 0 {
                        lock.lock_exclusive();
                        let inside = writers_inside.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(inside, 0, "two writers inside the critical section");
                        writers_inside.fetch_sub(1, Ordering::SeqCst);
                        lock.unlock_exclusive();
                    } else {
                        lock.lock_shared();
                        let inside = writers_inside.load(Ordering::SeqCst);
                        assert_eq!(inside, 0, "writer inside while a reader holds the lock");
                        lock.unlock_shared();
                    }
                    iter += 1;
                    progress[i].store(iter, Ordering::Relaxed);
                }
            })
        })
        .collect();

    std::thread::sleep(TORTURE_WINDOW);
    stop.store(true, Ordering::Relaxed);
    phase.store(PHASE_JOINING, Ordering::Release);
    for worker in workers {
        worker
            .join()
            .unwrap_or_else(|_| panic!("torture worker panicked under '{label}'"));
    }
    // Liveness, not just absence of deadlock: every worker must have made
    // progress despite oversubscription.
    for (i, counter) in progress.iter().enumerate() {
        assert!(
            counter.load(Ordering::Relaxed) > 0,
            "worker {i} starved completely under '{label}'"
        );
    }
    done.store(true, Ordering::Release);
    watchdog.join().expect("watchdog panicked");
    if kind.is_bravo() {
        let snap = lock.snapshot();
        assert!(
            snap.fast_reads > 0 && snap.revocations > 0,
            "'{label}' never reached the fast path and revocation: {} fast reads, \
             {} revocations",
            snap.fast_reads,
            snap.revocations
        );
    }
}

#[test]
fn every_catalog_spec_survives_torture_spinning() {
    for &kind in LockKind::all() {
        torture(kind, WaitMode::Spin);
    }
}

#[test]
fn every_catalog_spec_survives_torture_parking() {
    // Plain pthread takes no wait mode: its one cell is the spinning one.
    for &kind in LockKind::all().iter().filter(|kind| kind.honours_wait()) {
        torture(kind, WaitMode::Park);
    }
}

#[test]
fn every_catalog_spec_survives_torture_futex_blocking() {
    // On targets (or under BRAVO_FUTEX_FALLBACK=1) where the syscall is
    // unavailable the dispatch silently runs the park path — the cell is
    // then a duplicate of the parking sweep, which is exactly the fallback
    // contract this tier should hold.
    for &kind in LockKind::all().iter().filter(|kind| kind.honours_wait()) {
        torture(kind, WaitMode::Futex);
    }
}

/// The parking path must actually be exercised by this tier, not just
/// survive it: under oversubscription at least one waiter of some parking
/// run should overstay the spin grace period and park.
#[test]
fn parking_torture_records_parked_waits() {
    let before = bravo_repro::bravo::stats::snapshot();
    // BA's reader/writer phases park readily under contention, and so do
    // BRAVO-pthread's revocations. (The plain pthread-like lock blocks on
    // its own condition variables and takes no wait mode.)
    for kind in [LockKind::Ba, LockKind::BravoPthread] {
        torture(kind, WaitMode::Park);
    }
    let delta = bravo_repro::bravo::stats::snapshot().since(&before);
    assert!(
        delta.parked_waits > 0,
        "no wait ever parked during oversubscribed parking torture"
    );
}

/// Same exercise pin for the futex backend: when it is active, the torture
/// must drive real `FUTEX_WAIT`s (visible in the new counters), not dodge
/// the kernel through the spin grace every time.
#[test]
fn futex_torture_records_futex_waits() {
    if !bravo_repro::bravo::wait::futex_backend_active() {
        eprintln!("futex backend inactive (non-Linux or fallback forced); skipping");
        return;
    }
    let before = bravo_repro::bravo::stats::snapshot();
    for kind in [LockKind::Ba, LockKind::BravoPthread] {
        torture(kind, WaitMode::Futex);
    }
    let delta = bravo_repro::bravo::stats::snapshot().since(&before);
    assert!(
        delta.futex_waits > 0,
        "no wait ever reached FUTEX_WAIT during oversubscribed futex torture"
    );
    // Sleeps are double-counted on parked_waits so wait modes stay
    // comparable in the reports; hold that invariant here.
    assert!(
        delta.parked_waits > 0,
        "futex sleeps must also count on the cross-mode parked_waits column"
    );
}
