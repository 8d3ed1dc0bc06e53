//! The inter-lock interference experiment (Figure 1).
//!
//! Because every lock in the process shares one visible readers table, locks
//! can collide with each other in the table. The paper quantifies the cost:
//! 64 threads pick read locks at random from a pool of `N` locks (for `N`
//! from 1 to 8192), and the throughput of regular shared-table BRAVO-BA is
//! divided by the throughput of a specialized BRAVO-BA whose every instance
//! owns a private 4096-slot table (immune to inter-lock conflicts by
//! construction). The paper's result: the worst-case penalty stays under
//! 6 %.
//!
//! The experiment accepts any BRAVO composite over a *process-shared*
//! table — `BRAVO-BA` over the flat global table or `BRAVO-2D-BA` over the
//! sectored global table — and, beyond the paper's throughput fraction,
//! reports the table-level interference directly: cross-lock slot
//! collisions during the shared run, and the average number of slots a
//! revoking writer scans (measured by a revocation probe over the shared
//! pool after the read phase). A flat-global writer always walks all 4096
//! slots; a sectored writer walks one column, a slot per row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bravo::spec::{LockHandle, LockSpec, SpecError, TableSpec};
use bravo::stats::Snapshot;
use bravo::DEFAULT_TABLE_SIZE;
use rwlocks::{build_lock, LockKind};

use crate::harness::{run_for, WorkloadRng};

/// Result of one interference measurement at a given pool size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InterferenceResult {
    /// Number of locks in the pool.
    pub locks: usize,
    /// Read acquisitions completed with the shared table.
    pub shared_table_ops: u64,
    /// Read acquisitions completed with private per-lock tables.
    pub private_table_ops: u64,
    /// Cross-lock slot collisions observed in the shared run (readers that
    /// found their slot occupied and fell back to the slow path), summed
    /// over the pool.
    pub shared_collisions: u64,
    /// Revocations performed by the post-run revocation probe over the
    /// shared pool.
    pub revocations: u64,
    /// Total slots those revocation scans visited.
    pub revocation_scan_slots: u64,
}

impl InterferenceResult {
    /// Throughput fraction (shared / private): 1.0 means no measurable
    /// interference; the paper reports ≥ 0.94 everywhere.
    pub fn fraction(&self) -> f64 {
        if self.private_table_ops == 0 {
            0.0
        } else {
            self.shared_table_ops as f64 / self.private_table_ops as f64
        }
    }

    /// Average slots a revoking writer scanned in the shared arrangement
    /// (0 when the probe performed no revocation). This is the writer-side
    /// interference cost of the layout: ~4096 for the flat global table,
    /// one slot per row for the sectored global table. Delegates to
    /// [`Snapshot::scan_slots_per_revocation`] so the metric has one
    /// definition.
    pub fn scan_slots_per_revocation(&self) -> f64 {
        Snapshot {
            revocations: self.revocations,
            revocation_scan_slots: self.revocation_scan_slots,
            ..Snapshot::default()
        }
        .scan_slots_per_revocation()
    }
}

fn build_pool(spec: &LockSpec, locks: usize) -> Result<Vec<LockHandle>, SpecError> {
    (0..locks.max(1)).map(|_| build_lock(spec)).collect()
}

fn pool_snapshot(pool: &[LockHandle]) -> Snapshot {
    pool.iter().fold(Snapshot::default(), |acc, lock| {
        acc.merged(&lock.snapshot())
    })
}

fn measure(pool: &[LockHandle], threads: usize, duration: Duration) -> u64 {
    run_for(threads, duration, move |t, stop: &AtomicBool| {
        let mut rng = WorkloadRng::new(t as u64 + 1);
        let mut ops = 0;
        while !stop.load(Ordering::Relaxed) {
            // Pick a random lock, read-acquire it, do 20 units of work in
            // the critical section and 100 outside, as the paper describes.
            let lock = &pool[rng.below(pool.len() as u64) as usize];
            lock.lock_shared();
            rng.advance(20);
            lock.unlock_shared();
            rng.advance(100);
            ops += 1;
        }
        ops
    })
    .operations
}

/// Write-acquires every lock in the pool once, so each biased lock performs
/// one revocation scan; the pool's per-lock counters then carry the
/// layout's writer-side scan cost.
fn revocation_probe(pool: &[LockHandle]) {
    for lock in pool {
        lock.lock_exclusive();
        lock.unlock_exclusive();
    }
}

/// Runs the interference experiment for one pool size with an explicit base
/// spec: the shared run uses the spec as given and the comparator run
/// overrides the table to a private [`DEFAULT_TABLE_SIZE`]-slot flat table
/// per lock instance.
///
/// The base spec must name a BRAVO composite on a *process-shared* table
/// layout (`table=global`, the default) — the experiment measures
/// shared-table interference, so a base whose locks own their tables would
/// compare interference-free configurations and produce a meaningless
/// fraction; it is rejected up front. Both pools are built (and therefore
/// both specs validated) before either measurement starts, so an invalid
/// comparator cannot waste a completed shared run.
pub fn interference_run_spec(
    base: &LockSpec,
    locks: usize,
    threads: usize,
    duration: Duration,
) -> Result<InterferenceResult, SpecError> {
    if !base.table().is_process_shared() {
        return Err(SpecError::UnsupportedTable {
            kind: base.kind().to_string(),
            table: base.table(),
        });
    }
    let private = base.clone().with_table(TableSpec::Private {
        slots: DEFAULT_TABLE_SIZE,
    });
    let shared_pool = build_pool(base, locks)?;
    let private_pool = build_pool(&private, locks)?;
    Ok(run_pools(&shared_pool, &private_pool, threads, duration))
}

/// Measures both built pools: the shared run, its revocation probe, then
/// the private comparator.
fn run_pools(
    shared_pool: &[LockHandle],
    private_pool: &[LockHandle],
    threads: usize,
    duration: Duration,
) -> InterferenceResult {
    let shared_table_ops = measure(shared_pool, threads, duration);
    revocation_probe(shared_pool);
    let shared = pool_snapshot(shared_pool);

    let private_table_ops = measure(private_pool, threads, duration);

    InterferenceResult {
        locks: shared_pool.len(),
        shared_table_ops,
        private_table_ops,
        shared_collisions: shared.slow_reads_collision,
        revocations: shared.revocations,
        revocation_scan_slots: shared.revocation_scan_slots,
    }
}

/// Runs the interference experiment for one pool size with the paper's
/// arrangement: BRAVO-BA over the shared global table vs. BRAVO-BA with a
/// private 4096-slot table per instance.
pub fn interference_run(locks: usize, threads: usize, duration: Duration) -> InterferenceResult {
    interference_run_spec(&LockKind::BravoBa.spec(), locks, threads, duration)
        .expect("the default BRAVO-BA interference spec is always buildable")
}

/// Convenience wrapper returning only the throughput fraction.
pub fn interference_ratio(locks: usize, threads: usize, duration: Duration) -> f64 {
    interference_run(locks, threads, duration).fraction()
}

/// The pool sizes the paper sweeps (powers of two from 1 to 8192).
pub fn paper_lock_pool_series() -> Vec<usize> {
    (0..=13).map(|p| 1usize << p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bravo::vrt::{global_sectored_table, DEFAULT_ROW_SLOTS};

    #[test]
    fn pool_series_matches_the_paper() {
        let series = paper_lock_pool_series();
        assert_eq!(series.first(), Some(&1));
        assert_eq!(series.last(), Some(&8192));
        assert_eq!(series.len(), 14);
    }

    #[test]
    fn both_arrangements_make_progress() {
        let r = interference_run(8, 4, Duration::from_millis(60));
        assert!(r.shared_table_ops > 0);
        assert!(r.private_table_ops > 0);
        assert!(r.fraction() > 0.0);
    }

    #[test]
    fn fraction_handles_zero_denominator() {
        let r = InterferenceResult {
            locks: 1,
            shared_table_ops: 10,
            private_table_ops: 0,
            ..InterferenceResult::default()
        };
        assert_eq!(r.fraction(), 0.0);
        assert_eq!(r.scan_slots_per_revocation(), 0.0);
    }

    #[test]
    fn revocation_probe_reports_flat_scan_cost() {
        // With the flat global table, every revocation walks all 4096
        // slots; the probe must surface exactly that.
        let r = interference_run(4, 2, Duration::from_millis(40));
        assert!(r.revocations >= 1, "probe performed no revocation");
        assert!(
            r.scan_slots_per_revocation() >= DEFAULT_TABLE_SIZE as f64,
            "flat scan cost {} below table size",
            r.scan_slots_per_revocation()
        );
    }

    #[test]
    fn sectored_base_is_accepted_and_scans_fewer_slots_than_flat() {
        let base = LockKind::Bravo2dBa.spec();
        let accepted =
            interference_run_spec(&base, 4, 2, Duration::from_millis(20)).expect("sectored base");
        assert!(accepted.shared_table_ops > 0);

        // One lock more than a row has columns: a thread holding a fast read
        // on every lock must collide in its own row, whichever row that is.
        let locks = DEFAULT_ROW_SLOTS + 1;
        let shared = build_pool(&base, locks).unwrap();
        let private = build_pool(
            &base.clone().with_table(TableSpec::Private {
                slots: DEFAULT_TABLE_SIZE,
            }),
            locks,
        )
        .unwrap();
        for lock in &shared {
            // The first read enables bias.
            lock.lock_shared();
            lock.unlock_shared();
        }
        shared.iter().for_each(|lock| lock.lock_shared());
        shared.iter().rev().for_each(|lock| lock.unlock_shared());

        let r = run_pools(&shared, &private, 2, Duration::from_millis(40));
        assert!(r.shared_collisions >= 1, "no collision was seeded");
        assert_eq!(
            r.shared_collisions,
            pool_snapshot(&shared).slow_reads_collision,
            "collisions in every row count"
        );
        assert!(r.revocations >= 1);
        // A column scan visits one slot per row, not the flat 4096.
        let rows = global_sectored_table().rows() as f64;
        assert_eq!(r.scan_slots_per_revocation(), rows);
        assert!(rows < DEFAULT_TABLE_SIZE as f64);
    }

    #[test]
    fn read_only_workload_keeps_locks_biased() {
        // After a run with no writers, bias stays enabled on the pool's
        // locks (it is never revoked), which is what makes the fast path the
        // common case in this experiment: the second read of each lock must
        // land on the fast path, visible in the per-lock statistics.
        let pool: Vec<_> = (0..4).map(|_| LockKind::BravoBa.build()).collect();
        for lock in &pool {
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_shared();
            lock.unlock_shared();
            assert!(lock.snapshot().fast_reads >= 1);
        }
    }

    #[test]
    fn spec_driven_run_rejects_non_bravo_bases() {
        let err = interference_run_spec(&LockKind::Ba.spec(), 2, 2, Duration::from_millis(10));
        assert!(err.is_err(), "a plain lock cannot take a private table");
    }

    #[test]
    fn spec_driven_run_rejects_owned_base_tables() {
        // A base whose locks own their tables would make the "shared" run
        // not shared, so the fraction would compare interference-free
        // configurations.
        for table in [
            TableSpec::Private { slots: 64 },
            TableSpec::Sectored {
                sectors: 2,
                slots: 64,
            },
        ] {
            let base = LockKind::BravoBa.spec().with_table(table);
            let err = interference_run_spec(&base, 2, 2, Duration::from_millis(10));
            assert!(err.is_err(), "owned base table {table:?} must be rejected");
        }
    }
}
