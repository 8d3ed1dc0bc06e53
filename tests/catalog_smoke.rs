//! Workspace-seam smoke tests: every lock algorithm the catalog advertises
//! must construct through the spec-driven builder, round-trip its display
//! name through `parse`, and actually enforce reader-writer exclusion when
//! driven through the type-erased `LockHandle` the harness binaries use.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use bravo_repro::bravo::spec::{LockSpec, TableSpec};
use bravo_repro::rwlocks::{build_lock, LockKind};

#[test]
fn every_lock_kind_round_trips_through_the_catalog() {
    for &kind in LockKind::all() {
        assert_eq!(
            LockKind::parse(kind.name()),
            Some(kind),
            "name '{}' must parse back to its kind",
            kind.name()
        );
        assert_eq!(kind.to_string(), kind.name());
        // The default spec's label is just the kind name, and the spec
        // string round-trips through the builder.
        let spec = kind.spec();
        assert_eq!(spec.to_string(), kind.name());
        assert_eq!(spec.to_string().parse::<LockSpec>().unwrap(), spec);

        let lock = build_lock(&spec).expect("default spec must build");
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock_exclusive();
        lock.unlock_exclusive();
        // Every handle holds a `RawTryRwLock`, so every kind has a try
        // path, and an uncontended one must succeed.
        assert!(
            lock.try_lock_exclusive().is_ok(),
            "{kind}: uncontended try-write failed"
        );
        lock.unlock_exclusive();
        assert!(
            lock.try_lock_shared().is_ok(),
            "{kind}: uncontended try-read failed"
        );
        lock.unlock_shared();
    }
}

#[test]
fn sectored_table_is_selectable_purely_via_spec_string() {
    // The acceptance bar for the LockSpec redesign: a BRAVO-2D-style
    // sectored table comes up from a string alone, with per-lock stats.
    let spec: LockSpec = "BRAVO-2D-BA?table=sectored:4x64".parse().unwrap();
    let lock = build_lock(&spec).expect("sectored spec must build");
    assert_eq!(lock.label(), "BRAVO-2D-BA?table=sectored:4x64");
    // Prime bias (first read is slow), then take a fast read.
    lock.lock_shared();
    lock.unlock_shared();
    lock.lock_shared();
    lock.unlock_shared();
    let stats = lock.snapshot();
    assert!(stats.fast_reads >= 1, "sectored fast path not taken");
    // A writer revokes via the column scan.
    lock.lock_exclusive();
    lock.unlock_exclusive();
    assert!(lock.snapshot().revocations >= 1);
}

#[test]
fn private_tables_isolate_two_locks_visible_readers_traffic() {
    // Two locks with single-slot *private* tables: each lock's fast reader
    // occupies its own table, so both fast reads can be held concurrently.
    // If the locks shared one single-slot table, the second acquisition
    // would collide and fall to the slow path — so two concurrent fast
    // reads prove the tables are disjoint.
    let spec = LockKind::BravoBa
        .spec()
        .with_table(TableSpec::Private { slots: 1 });
    let a = build_lock(&spec).unwrap();
    let b = build_lock(&spec).unwrap();
    // Prime bias on both.
    a.lock_shared();
    a.unlock_shared();
    b.lock_shared();
    b.unlock_shared();
    // Hold both read locks at once.
    a.lock_shared();
    b.lock_shared();
    let (sa, sb) = (a.snapshot(), b.snapshot());
    a.unlock_shared();
    b.unlock_shared();
    assert_eq!(sa.fast_reads, 1, "lock A's held read was not fast");
    assert_eq!(sb.fast_reads, 1, "lock B's held read was not fast");
}

#[test]
fn per_lock_snapshots_do_not_bleed_between_concurrent_locks() {
    // Drive a read-only workload on lock A and a write-only workload on
    // lock B concurrently; each handle's snapshot must contain only its own
    // lock's events (the old process-global counters smeared them).
    let a = LockKind::BravoBa.build();
    let b = LockKind::BravoBa.build();
    thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..2_000 {
                a.lock_shared();
                a.unlock_shared();
            }
        });
        s.spawn(|| {
            for _ in 0..2_000 {
                b.lock_exclusive();
                b.unlock_exclusive();
            }
        });
    });
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.writes, 0, "reader lock A recorded someone else's writes");
    assert!(sa.total_reads() >= 2_000);
    assert_eq!(sb.total_reads(), 0, "writer lock B recorded reads");
    assert_eq!(sb.writes, 2_000);
}

#[test]
fn every_lock_kind_enforces_read_write_exclusion() {
    const WRITERS: usize = 2;
    const READERS: usize = 4;
    const OPS: usize = 2_000;

    for &kind in LockKind::all() {
        let lock = Arc::new(kind.build());
        // Set only inside an exclusive section: readers holding shared
        // permission and writers entering must never observe `true`.
        let in_write = Arc::new(AtomicBool::new(false));
        // Incremented as a pair inside the exclusive section: readers must
        // never observe the counters mid-update.
        let c1 = Arc::new(AtomicU64::new(0));
        let c2 = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for _ in 0..WRITERS {
            let (lock, in_write, c1, c2) = (
                Arc::clone(&lock),
                Arc::clone(&in_write),
                Arc::clone(&c1),
                Arc::clone(&c2),
            );
            handles.push(thread::spawn(move || {
                for _ in 0..OPS {
                    lock.lock_exclusive();
                    assert!(
                        !in_write.swap(true, Ordering::SeqCst),
                        "{kind}: two writers inside the exclusive section"
                    );
                    c1.fetch_add(1, Ordering::SeqCst);
                    c2.fetch_add(1, Ordering::SeqCst);
                    in_write.store(false, Ordering::SeqCst);
                    lock.unlock_exclusive();
                }
            }));
        }
        for _ in 0..READERS {
            let (lock, in_write, c1, c2) = (
                Arc::clone(&lock),
                Arc::clone(&in_write),
                Arc::clone(&c1),
                Arc::clone(&c2),
            );
            handles.push(thread::spawn(move || {
                for _ in 0..OPS {
                    lock.lock_shared();
                    assert!(
                        !in_write.load(Ordering::SeqCst),
                        "{kind}: reader overlapped a writer"
                    );
                    let a = c1.load(Ordering::SeqCst);
                    let b = c2.load(Ordering::SeqCst);
                    assert_eq!(a, b, "{kind}: reader observed a torn counter pair");
                    lock.unlock_shared();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            c1.load(Ordering::SeqCst),
            (WRITERS * OPS) as u64,
            "{kind}: lost writes"
        );
    }
}
