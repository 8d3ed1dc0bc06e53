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
//! The experiment accepts any *process-shared* base layout — the flat
//! global table or a `numa:<nodes>x<slots>` sharded table — and, beyond the
//! paper's throughput fraction, reports the table-level interference
//! directly: cross-lock slot collisions (total and per shard) during the
//! shared run, and the average number of slots a revoking writer scans
//! (measured by a revocation probe over the shared pool after the read
//! phase). The NUMA layout's shard-skipping makes that last number
//! collapse: a flat-global writer always walks all 4096 slots, a sharded
//! writer only walks shards that can still hold a reader.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bravo::spec::{LockHandle, LockSpec, SpecError, TableSpec};
use bravo::stats::Snapshot;
use bravo::{DEFAULT_TABLE_SIZE, MAX_TRACKED_SHARDS};
use rwlocks::{build_lock, LockKind};

use crate::harness::{run_for, WorkloadRng};

/// Result of one interference measurement at a given pool size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InterferenceResult {
    /// Number of locks in the pool.
    pub locks: usize,
    /// Shards the shared table distinguishes (1 for the flat global table).
    pub shards: usize,
    /// Read acquisitions completed with the shared table.
    pub shared_table_ops: u64,
    /// Read acquisitions completed with private per-lock tables.
    pub private_table_ops: u64,
    /// Cross-lock slot collisions observed in the shared run (readers that
    /// found their slot occupied and fell back to the slow path), summed
    /// over the pool.
    pub shared_collisions: u64,
    /// The shared run's collisions broken down per tracked shard.
    pub shard_collisions: [u64; MAX_TRACKED_SHARDS],
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
    /// close to the occupied-shard count for a NUMA table. Delegates to
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
/// layout (`global` or `numa:<nodes>x<slots>`) — the experiment measures
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

    let shared_table_ops = measure(&shared_pool, threads, duration);
    revocation_probe(&shared_pool);
    let shared = pool_snapshot(&shared_pool);

    let private_table_ops = measure(&private_pool, threads, duration);

    Ok(InterferenceResult {
        locks,
        shards: base.table().shards(),
        shared_table_ops,
        private_table_ops,
        shared_collisions: shared.slow_reads_collision,
        shard_collisions: shared.shard_collisions,
        revocations: shared.revocations,
        revocation_scan_slots: shared.revocation_scan_slots,
    })
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
        assert_eq!(r.shards, 1);
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
    fn numa_base_is_accepted_and_scans_fewer_slots_than_flat() {
        let base: LockSpec = "BRAVO-BA?table=numa:2x1024".parse().unwrap();
        let numa =
            interference_run_spec(&base, 4, 2, Duration::from_millis(40)).expect("numa base");
        assert_eq!(numa.shards, 2);
        assert!(numa.shared_table_ops > 0);
        assert!(numa.revocations >= 1);
        // The probe runs after readers departed: occupancy-based shard
        // skipping keeps the scan tiny, far below the flat table's 4096.
        let flat = interference_run(4, 2, Duration::from_millis(40));
        assert!(
            numa.scan_slots_per_revocation() < flat.scan_slots_per_revocation(),
            "numa revocations ({}) should scan fewer slots than flat ({})",
            numa.scan_slots_per_revocation(),
            flat.scan_slots_per_revocation()
        );
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
