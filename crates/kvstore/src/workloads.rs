//! Workload drivers for the two RocksDB benchmarks in the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bravo::spec::{LockSpec, SpecError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::db::OpenError;
use crate::hash_cache::{CacheEntry, HashCache};
use crate::memtable::MemTable;

/// Result of one `readwhilewriting` run (Figure 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadWhileWritingResult {
    /// Completed `Get` operations across all reader threads.
    pub reads: u64,
    /// Completed in-place `Put` operations by the writer thread.
    pub writes: u64,
}

impl ReadWhileWritingResult {
    /// Total operations per second over `duration`.
    pub fn ops_per_sec(&self, duration: Duration) -> f64 {
        (self.reads + self.writes) as f64 / duration.as_secs_f64()
    }
}

/// Runs the `readwhilewriting` workload: `readers` threads issuing `Get`s on
/// random keys while one writer performs in-place updates, all contending on
/// the memtable's single GetLock, for `duration`.
///
/// `num_keys` corresponds to `db_bench --num` (the paper uses 10 000).
/// Fails if the spec is rejected or the memtable cannot be allocated.
pub fn run_readwhilewriting(
    spec: impl Into<LockSpec>,
    readers: usize,
    num_keys: u64,
    duration: Duration,
) -> Result<ReadWhileWritingResult, OpenError> {
    let table = Arc::new(MemTable::prepopulated(spec, num_keys)?);
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // The single writer thread (`readwhilewriting` has exactly one).
        {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5eed_0001);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..num_keys);
                    table.update_in_place(key, |v| {
                        v[0] = v[0].wrapping_add(1);
                        v[1] = v[0];
                    });
                    local += 1;
                }
                writes.fetch_add(local, Ordering::Relaxed);
            });
        }
        for t in 0..readers {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..num_keys);
                    let value = table.get(key);
                    debug_assert!(value.is_some());
                    local += 1;
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });

    Ok(ReadWhileWritingResult {
        reads: reads.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
    })
}

/// Result of one `hash_table_bench` run (Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashTableBenchResult {
    /// Completed lookups across all reader threads.
    pub reads: u64,
    /// Completed insertions by the inserter thread.
    pub inserts: u64,
    /// Completed erases by the eraser thread.
    pub erases: u64,
}

impl HashTableBenchResult {
    /// Aggregate operations per millisecond (the unit the benchmark reports).
    pub fn ops_per_msec(&self, duration: Duration) -> f64 {
        (self.reads + self.inserts + self.erases) as f64 / duration.as_millis().max(1) as f64
    }
}

/// Runs `hash_table_bench`: one dedicated inserter, one dedicated eraser and
/// `readers` lookup threads over a shared hash table behind a single
/// reader-writer lock, for `duration`.
pub fn run_hash_table_bench(
    spec: impl Into<LockSpec>,
    readers: usize,
    key_space: u64,
    duration: Duration,
) -> Result<HashTableBenchResult, SpecError> {
    let cache = Arc::new(HashCache::prepopulated(spec, key_space)?);
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let inserts = Arc::new(AtomicU64::new(0));
    let erases = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let inserts = Arc::clone(&inserts);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xadd);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..key_space * 2);
                    cache.insert(
                        key,
                        CacheEntry {
                            offset: key * 4096,
                            size: 4096,
                        },
                    );
                    local += 1;
                }
                inserts.fetch_add(local, Ordering::Relaxed);
            });
        }
        {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let erases = Arc::clone(&erases);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xde1e7e);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..key_space * 2);
                    cache.erase(key);
                    local += 1;
                }
                erases.fetch_add(local, Ordering::Relaxed);
            });
        }
        for t in 0..readers {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x1000 + t as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..key_space * 2);
                    if let Some(entry) = cache.lookup(key) {
                        debug_assert_eq!(entry.offset, key * 4096);
                    }
                    local += 1;
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });

    Ok(HashTableBenchResult {
        reads: reads.load(Ordering::Relaxed),
        inserts: inserts.load(Ordering::Relaxed),
        erases: erases.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwlocks::LockKind;

    #[test]
    fn readwhilewriting_makes_progress_on_bravo_and_ba() {
        for kind in [LockKind::Ba, LockKind::BravoBa] {
            let r = run_readwhilewriting(kind, 2, 1_000, Duration::from_millis(100)).unwrap();
            assert!(r.reads > 0, "{kind}: no reads");
            assert!(r.writes > 0, "{kind}: no writes");
            assert!(r.ops_per_sec(Duration::from_millis(100)) > 0.0);
        }
    }

    #[test]
    fn hash_table_bench_makes_progress() {
        let r = run_hash_table_bench(LockKind::BravoPthread, 2, 512, Duration::from_millis(100))
            .unwrap();
        assert!(r.reads > 0);
        assert!(r.inserts > 0);
        assert!(r.erases > 0);
        assert!(r.ops_per_msec(Duration::from_millis(100)) > 0.0);
    }

    #[test]
    fn read_dominance_holds_with_many_readers() {
        // With several reader threads and one writer, reads dominate the
        // operation mix — the regime Figure 5 targets.
        let r =
            run_readwhilewriting(LockKind::BravoBa, 3, 1_000, Duration::from_millis(150)).unwrap();
        assert!(r.reads > r.writes);
    }
}
