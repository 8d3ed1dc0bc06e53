//! A small `Get`/`Put`/`Delete` façade over one or more memtable shards,
//! used by the server and the runnable examples.

use bravo::hash::key_shard;
use bravo::spec::{LockHandle, LockSpec, SpecError};
use bravo::stats::Snapshot;
use rwlocks::build_lock;

use crate::memtable::{BatchOp, MemTable, Value};
use crate::table;

/// A minimal key-value store: `shards=N` key-hashed memtables (one by
/// default), each guarded by its own GetLock built from the same spec.
///
/// This is deliberately tiny — the point of the reproduction is the lock
/// behaviour, not LSM compaction — but it gives the examples, server and
/// integration tests a realistic read-mostly API surface: point reads,
/// point writes, read-modify-writes, deletes, range scans and the batched
/// forms ([`Db::multi_get`], [`Db::write_batch`]) that amortize lock
/// acquisitions.
///
/// # Sharding
///
/// The spec's `shards=N` knob (see [`LockSpec::shards`]) partitions the key
/// space over N independent [`MemTable`]s; a key's owning shard is
/// [`bravo::hash::key_shard`] — the same hash the [`crate::HashCache`]
/// stripes with, exported from one place so routing and striping cannot
/// diverge. `shards=1` (the default) keeps today's single-memtable,
/// single-GetLock layout. Point operations touch exactly one shard;
/// cross-shard operations ([`Db::scan`], [`Db::multi_get`],
/// [`Db::write_batch`]) take each shard's lock separately — see each
/// method's consistency contract.
pub struct Db {
    shards: Box<[MemTable]>,
}

impl Db {
    /// Opens an empty store using the given lock spec (a
    /// [`rwlocks::LockKind`] or a parsed [`LockSpec`] both work); the
    /// spec's `shards=N` knob selects how many key-hashed memtable shards
    /// to build, each with its own GetLock from the same spec.
    pub fn open(spec: impl Into<LockSpec>) -> Result<Self, OpenError> {
        Self::open_prepopulated(spec, 0)
    }

    /// Opens a store pre-loaded with keys `0..n` (handy for read-mostly
    /// benchmarks and examples), each key routed to its owning shard and
    /// holding [`prepopulated_value`](crate::memtable::prepopulated_value).
    ///
    /// The keys are loaded before the store is shared, so the load takes
    /// no lock and records no lock statistics. Every GetLock is built
    /// first, so a bad spec fails before any key is loaded.
    ///
    /// The load is one pass over `0..n`, split into one range per core
    /// when there is more than one shard (one thread per core, the calling
    /// thread included; with one shard or one core nothing is spawned, and
    /// there is no option for this):
    ///
    /// 1. Each thread counts its range's keys by shard. Each shard's table
    ///    is then sized for exactly its keys, at most 3/4 full (2^21 slots
    ///    per shard for 4,000,000 keys over 4 shards), and mapped.
    /// 2. Each thread hashes each key of its range once and routes it to
    ///    one list per (shard, 320 KiB window of that shard's table), by
    ///    the window its home slot falls in. The lists take about 9 bytes a
    ///    key.
    /// 3. Each thread takes whole shards and places their keys one window
    ///    at a time, in home order: it counting-sorts the window's keys by
    ///    home slot and writes each at the later of its home and the slot
    ///    after the last key written, so no key probes the table. A table
    ///    on huge pages has each window faulted in just before its keys are
    ///    placed, so no write faults.
    ///
    /// No table grows during the load.
    ///
    /// # Errors
    ///
    /// [`OpenError::Spec`] if the catalog rejects the spec, and
    /// [`OpenError::OutOfMemory`] if the shard tables for `n` keys, or the
    /// key lists of the load, cannot be allocated. A bad spec and tables
    /// too large to map are reported before any key is routed. With more
    /// than one shard, the per-shard key counts are taken in one pass over
    /// `0..n` before the tables are mapped, so an impossible `n` is only
    /// reported after that pass: about 3 ns a key on each core in a
    /// release build, or about 25 minutes for `n = 2^40` on two cores.
    /// There is no size cap.
    pub fn open_prepopulated(spec: impl Into<LockSpec>, n: u64) -> Result<Self, OpenError> {
        let spec = spec.into();
        let locks = (0..spec.shards())
            .map(|_| build_lock(&spec))
            .collect::<Result<Vec<_>, _>>()?;
        let shards = locks.len();
        // Only a load worth splitting asks for the core count: the query
        // reads cgroup files, which would cost a small store more than its
        // whole load.
        let threads = if shards > 1 && n > 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            1
        };
        let tables = table::prepopulated(n, shards, threads)
            .map_err(|_| OpenError::OutOfMemory { keys: n })?;
        Ok(Self {
            shards: locks
                .into_iter()
                .zip(tables)
                .map(|(lock, table)| MemTable::from_table(lock, table))
                .collect(),
        })
    }

    /// The shard owning `key`.
    fn shard(&self, key: u64) -> &MemTable {
        &self.shards[key_shard(key, self.shards.len())]
    }

    /// Reads the value stored for `key`.
    pub fn get(&self, key: u64) -> Option<Value> {
        self.shard(key).get(key)
    }

    /// Stores `value` for `key`.
    pub fn put(&self, key: u64, value: Value) {
        self.shard(key).put(key, value);
    }

    /// Atomically applies `f` to the value stored for `key` (zero-initialized
    /// if absent).
    pub fn merge(&self, key: u64, f: impl FnOnce(&mut Value)) {
        self.shard(key).update_in_place(key, f);
    }

    /// Removes `key`; returns whether it was present.
    pub fn delete(&self, key: u64) -> bool {
        self.shard(key).delete(key).is_some()
    }

    /// Ordered range scan: up to `limit` pairs with `key >= start`.
    ///
    /// # Consistency
    ///
    /// Each shard is scanned under its own shared GetLock (collect + sort
    /// under the lock, see [`MemTable::scan`]), then the per-shard results
    /// are merged, re-sorted and truncated *outside* any lock. The result
    /// is therefore a **per-shard snapshot**: atomic within each shard, but
    /// not a point-in-time view across shards — a concurrent writer may
    /// land between two shard scans, so a cross-shard scan can observe
    /// shard A before a batch and shard B after it. With `shards=1` the
    /// scan is a single atomic snapshot, exactly today's behaviour.
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Value)> {
        match &*self.shards {
            [single] => single.scan(start, limit),
            shards => {
                // Each shard contributes at most its own `limit` smallest
                // qualifying keys, which is a superset of the merged top
                // `limit`, so per-shard truncation loses nothing.
                let mut entries = Vec::new();
                for shard in shards {
                    entries.extend(shard.scan(start, limit));
                }
                entries.sort_unstable_by_key(|(k, _)| *k);
                entries.truncate(limit);
                entries
            }
        }
    }

    /// Reads many keys, taking each owning shard's GetLock **once** (the
    /// serving-path payoff of sharding: a `MultiGet` frame costs one lock
    /// acquisition per touched shard, not one per key). Values come back in
    /// input order; duplicate keys are each answered.
    ///
    /// Like [`Db::scan`], the result is atomic per shard but not across
    /// shards.
    pub fn multi_get(&self, keys: &[u64]) -> Vec<Option<Value>> {
        match &*self.shards {
            [single] => single.get_batch(keys),
            shards => {
                let mut out = vec![None; keys.len()];
                // Group positions per shard by sorting one (shard, pos)
                // index — batches are small, so this costs far less than
                // per-shard scratch vectors (this path runs once per
                // MultiGet frame on the serving hot path). Each run then
                // scatters straight into `out` under one acquisition of
                // its shard's GetLock.
                let mut tagged: Vec<(u32, u32)> = keys
                    .iter()
                    .enumerate()
                    .map(|(pos, &key)| (key_shard(key, shards.len()) as u32, pos as u32))
                    .collect();
                tagged.sort_unstable();
                for run in shard_runs(&tagged) {
                    shards[run[0].0 as usize].get_batch_into(
                        run.iter()
                            .map(|&(_, pos)| (pos as usize, keys[pos as usize])),
                        &mut out,
                    );
                }
                out
            }
        }
    }

    /// Applies a batch of writes, taking each owning shard's GetLock
    /// **once**; returns the number of ops applied (always `ops.len()`).
    ///
    /// Ops for the same shard — in particular, ops on the same key — apply
    /// in batch order under one exclusive hold. Ops on different shards
    /// apply under separate locks with no cross-shard atomicity: a
    /// concurrent reader may observe one shard's portion of the batch
    /// before another's.
    pub fn write_batch(&self, ops: &[BatchOp]) -> usize {
        match &*self.shards {
            [single] => single.apply_batch(ops),
            shards => {
                // Same one-sort grouping as `multi_get`; the (shard, pos)
                // pairs are unique, so the unstable sort preserves batch
                // order within each shard.
                let mut tagged: Vec<(u32, u32)> = ops
                    .iter()
                    .enumerate()
                    .map(|(pos, op)| (key_shard(op.key(), shards.len()) as u32, pos as u32))
                    .collect();
                tagged.sort_unstable();
                for run in shard_runs(&tagged) {
                    shards[run[0].0 as usize]
                        .apply_batch_from(run.iter().map(|&(_, pos)| ops[pos as usize]));
                }
            }
        }
        ops.len()
    }

    /// Number of live keys (summed across shards; each shard counted under
    /// its own shared lock).
    pub fn len(&self) -> usize {
        self.shards.iter().map(MemTable::len).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(MemTable::is_empty)
    }

    /// Number of memtable shards (the spec's `shards=N`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The memtable shards, in shard order (for per-shard instrumentation
    /// and the scan-consistency tests).
    pub fn memtables(&self) -> &[MemTable] {
        &self.shards
    }

    /// Display label of the GetLock spec (every shard shares it).
    pub fn lock_label(&self) -> &str {
        self.shards[0].lock_label()
    }

    /// A GetLock handle carrying the spec (shard 0's — all shards are built
    /// from the same spec), for relabelling in per-connection logs.
    pub fn lock(&self) -> &LockHandle {
        self.shards[0].lock()
    }

    /// Aggregate GetLock statistics: the element-wise sum of every shard's
    /// snapshot, so `fast_read_pct` attribution survives sharding (reads
    /// served by any shard's fast path count as fast reads of the store).
    pub fn lock_stats(&self) -> Snapshot {
        self.shards
            .iter()
            .map(MemTable::lock_stats)
            .reduce(|a, b| a.merged(&b))
            .expect("a Db always has at least one shard")
    }
}

/// Why a [`Db`] could not be opened.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenError {
    /// The catalog rejected the lock spec.
    Spec(SpecError),
    /// The tables for this many prepopulated keys could not be
    /// allocated.
    OutOfMemory {
        /// The requested number of prepopulated keys.
        keys: u64,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Spec(e) => write!(f, "cannot build the store's lock: {e}"),
            OpenError::OutOfMemory { keys } => {
                write!(f, "cannot allocate a store of {keys} keys")
            }
        }
    }
}

impl std::error::Error for OpenError {}

impl From<SpecError> for OpenError {
    fn from(e: SpecError) -> Self {
        OpenError::Spec(e)
    }
}

/// Iterates the maximal runs of a shard-sorted `(shard, pos)` index that
/// share one shard tag (a 1.75-compatible `chunk_by`). Every yielded run
/// is non-empty.
fn shard_runs(tagged: &[(u32, u32)]) -> impl Iterator<Item = &[(u32, u32)]> {
    let mut rest = tagged;
    std::iter::from_fn(move || {
        let shard = rest.first()?.0;
        let len = rest.iter().take_while(|t| t.0 == shard).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("lock", &self.lock_label())
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::prepopulated_value;
    use bravo::spec::LockSpec;
    use rwlocks::LockKind;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sharded(shards: usize) -> LockSpec {
        LockKind::BravoBa.spec().with_shards(shards)
    }

    #[test]
    fn crud_round_trip() {
        let db = Db::open(LockKind::BravoBa).unwrap();
        assert!(db.is_empty());
        db.put(10, [1; 4]);
        assert_eq!(db.get(10), Some([1; 4]));
        db.merge(10, |v| v[0] = 99);
        assert_eq!(db.get(10).unwrap()[0], 99);
        assert!(db.delete(10));
        assert!(!db.delete(10));
        assert!(db.get(10).is_none());
    }

    #[test]
    fn crud_round_trip_survives_sharding() {
        let db = Db::open(sharded(7)).unwrap();
        assert_eq!(db.shards(), 7);
        for key in 0..64u64 {
            db.put(key, [key; 4]);
        }
        assert_eq!(db.len(), 64);
        for key in 0..64u64 {
            assert_eq!(db.get(key), Some([key; 4]));
            db.merge(key, |v| v[1] = key + 1);
            assert_eq!(db.get(key).unwrap()[1], key + 1);
        }
        for key in 0..64u64 {
            assert!(db.delete(key));
        }
        assert!(db.is_empty());
    }

    #[test]
    fn prepopulation_routes_keys_to_their_owning_shards() {
        let db = Db::open_prepopulated(sharded(4), 100).unwrap();
        assert_eq!(db.len(), 100);
        assert_eq!(db.get(99).unwrap()[0], 99);
        // Every shard got some of the sequential key range: the router
        // hashes keys rather than splitting by range.
        assert!(db.memtables().iter().all(|t| !t.is_empty()));
        // And each key sits in exactly the shard key_shard names.
        for key in 0..100u64 {
            let owner = bravo::hash::key_shard(key, db.shards());
            assert!(db.memtables()[owner].get(key).is_some());
        }
    }

    #[test]
    fn prepopulation_is_not_lock_traffic() {
        let db = Db::open_prepopulated(sharded(4), 10_000).unwrap();
        let stats = db.lock_stats();
        assert_eq!(stats.writes, 0, "prepopulation took a write lock");
        assert_eq!(stats.total_reads(), 0, "prepopulation took a read lock");
    }

    /// Checks a load at each thread count against a serial fill: the same
    /// contents, each table at the slot count it was sized at.
    fn check_load(n: u64, shards: usize, threads: &[usize]) {
        let mut serial = vec![BTreeMap::new(); shards];
        for key in 0..n {
            serial[key_shard(key, shards)].insert(key, prepopulated_value(key));
        }
        for &threads in threads {
            let tables = table::prepopulated(n, shards, threads).unwrap();
            let loaded: Vec<BTreeMap<u64, Value>> =
                tables.iter().map(|t| t.iter().collect()).collect();
            assert_eq!(loaded, serial, "shards={shards} threads={threads} n={n}");
            for (t, reference) in tables.iter().zip(&serial) {
                assert_eq!(
                    Some(t.slots()),
                    table::slots_for(reference.len()),
                    "shards={shards} threads={threads} n={n}: a table grew"
                );
            }
        }
    }

    #[test]
    fn a_load_matches_a_serial_fill_at_every_thread_count() {
        for shards in [1usize, 2, 3, 4, 8] {
            for n in [0u64, 1, 7, 10_000] {
                check_load(n, shards, &[1, 2, 3, shards + 1]);
            }
        }
        // Tables of several placement windows each.
        check_load(100_000, 4, &[1, 2]);
    }

    #[test]
    fn the_benchmark_stores_are_sized_like_a_std_map() {
        // serve-point's one table and serve-batch-large's four.
        assert_eq!(table::slots_for(10_000), Some(1 << 14));
        let mut counts = [0usize; 4];
        for key in 0..4_000_000u64 {
            counts[key_shard(key, 4)] += 1;
        }
        for count in counts {
            assert_eq!(table::slots_for(count), Some(1 << 21), "{count} keys");
        }
    }

    #[test]
    fn a_store_too_large_to_allocate_is_an_error() {
        for n in [1 << 44, u64::MAX] {
            match Db::open_prepopulated(LockKind::BravoBa, n) {
                Err(OpenError::OutOfMemory { keys }) => assert_eq!(keys, n),
                other => panic!("expected an allocation error for {n} keys, got {other:?}"),
            }
        }
    }

    #[test]
    fn scan_passes_through_to_the_memtable() {
        let db = Db::open_prepopulated(LockKind::BravoBa, 16).unwrap();
        let entries = db.scan(12, 8);
        assert_eq!(
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![12, 13, 14, 15]
        );
    }

    #[test]
    fn sharded_scan_merges_to_the_same_ordered_view() {
        let flat = Db::open_prepopulated(LockKind::BravoBa, 64).unwrap();
        let db = Db::open_prepopulated(sharded(8), 64).unwrap();
        for (start, limit) in [
            (0u64, 64usize),
            (0, 10),
            (12, 8),
            (60, 100),
            (64, 8),
            (0, 0),
        ] {
            assert_eq!(
                db.scan(start, limit),
                flat.scan(start, limit),
                "scan({start}, {limit}) diverged under sharding"
            );
        }
    }

    #[test]
    fn multi_get_answers_in_input_order_across_shards() {
        let db = Db::open_prepopulated(sharded(4), 32).unwrap();
        let keys = [31u64, 0, 500, 7, 7, 16];
        let values = db.multi_get(&keys);
        assert_eq!(values.len(), keys.len());
        for (key, value) in keys.iter().zip(&values) {
            assert_eq!(*value, db.get(*key), "multi_get({key}) diverged from get");
        }
        assert_eq!(values[3], values[4], "duplicate keys both answered");
        assert!(db.multi_get(&[]).is_empty());
    }

    #[test]
    fn write_batch_applies_everything_with_per_key_ordering() {
        let db = Db::open(sharded(4)).unwrap();
        let mut ops = Vec::new();
        for key in 0..32u64 {
            ops.push(BatchOp::Put {
                key,
                value: [key, 0, 0, 0],
            });
            ops.push(BatchOp::Merge {
                key,
                delta: [1, 0, 0, 0],
            });
        }
        ops.push(BatchOp::Delete { key: 0 });
        assert_eq!(db.write_batch(&ops), ops.len());
        assert_eq!(db.get(0), None, "delete must land after the put+merge");
        for key in 1..32u64 {
            assert_eq!(db.get(key).unwrap()[0], key + 1);
        }
    }

    #[test]
    fn lock_stats_aggregate_across_shards() {
        let db = Db::open(sharded(8)).unwrap();
        for key in 0..64u64 {
            db.put(key, [key; 4]);
            db.get(key);
        }
        let stats = db.lock_stats();
        assert_eq!(stats.writes, 64, "all shard writes must aggregate");
        assert_eq!(stats.total_reads(), 64, "all shard reads must aggregate");
        // The aggregate is the sum of the per-shard views.
        let summed: u64 = db.memtables().iter().map(|t| t.lock_stats().writes).sum();
        assert_eq!(stats.writes, summed);
    }

    #[test]
    fn concurrent_readers_with_one_writer() {
        let db = Arc::new(Db::open_prepopulated(LockKind::BravoPthread, 64).unwrap());
        std::thread::scope(|s| {
            let w = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..1_000u64 {
                    w.merge(i % 64, |v| v[3] += 1);
                }
            });
            for _ in 0..3 {
                let r = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        assert!(r.get(i % 64).is_some());
                    }
                });
            }
        });
        assert_eq!(db.len(), 64);
    }
}
