//! The memtable: an in-memory write buffer with a `GetLock` guarding
//! in-place updates.

use std::cell::UnsafeCell;
use std::collections::HashMap;

use bravo::spec::{LockHandle, LockSpec, SpecError};
use bravo::stats::Snapshot;
use bravo::sync::atomic::{AtomicU64, Ordering};
use rwlocks::build_lock;

/// A fixed-size value, standing in for RocksDB's small in-place-updatable
/// values.
pub type Value = [u64; 4];

/// The value prepopulation stores under `key`: `[key, key ^ 0xff, 0, 0]`.
///
/// Every prepopulated store ([`MemTable::prepopulated`],
/// [`crate::Db::open_prepopulated`]) holds exactly this, so a client can
/// check a read of an untouched key without asking the store first.
pub fn prepopulated_value(key: u64) -> Value {
    [key, key ^ 0xff, 0, 0]
}

/// One write in a batch: the serializable subset of the write API
/// (`WriteBatch` frames carry these over the wire).
///
/// Unlike [`MemTable::update_in_place`], whose merge takes an arbitrary
/// closure, a batched merge carries a concrete delta with fixed semantics —
/// per-word wrapping add — because the op has to round-trip through bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// The key to store under.
        key: u64,
        /// The full value to store.
        value: Value,
    },
    /// Add `delta` to the stored value word-by-word (wrapping), creating
    /// the value as zeroes first if absent.
    Merge {
        /// The key to update.
        key: u64,
        /// Per-word wrapping-add delta.
        delta: Value,
    },
    /// Remove `key` if present.
    Delete {
        /// The key to remove.
        key: u64,
    },
}

impl BatchOp {
    /// The key this op touches (what shard routing dispatches on).
    pub fn key(&self) -> u64 {
        match *self {
            BatchOp::Put { key, .. } | BatchOp::Merge { key, .. } | BatchOp::Delete { key } => key,
        }
    }
}

/// The in-memory table: a pre-sized hash map of keys to in-place-updatable
/// values, with reads and in-place writes mediated by the **GetLock** — the
/// reader-writer lock the paper's `readwhilewriting` run contends on
/// (`--inplace_update_num_locks=1` collapses RocksDB's lock striping to a
/// single lock, which is exactly what the figure measures).
pub struct MemTable {
    get_lock: LockHandle,
    /// Key → value map. Guarded by `get_lock` (shared for `get`, exclusive
    /// for mutations), mirroring how RocksDB guards in-place updates.
    data: UnsafeCell<HashMap<u64, Value>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

// SAFETY: `data` is only read while `get_lock` is held shared and only
// mutated while it is held exclusively; the remaining fields are atomics or
// immutable.
unsafe impl Send for MemTable {}
// SAFETY: see above.
unsafe impl Sync for MemTable {}

impl MemTable {
    /// Creates an empty memtable whose GetLock is built from the given
    /// spec (a [`rwlocks::LockKind`] or a parsed [`LockSpec`] both work).
    pub fn new(spec: impl Into<LockSpec>) -> Result<Self, SpecError> {
        Ok(Self::from_map(build_lock(&spec.into())?, HashMap::new()))
    }

    /// Creates a memtable pre-populated with keys `0..n`, each holding
    /// [`prepopulated_value`], as `db_bench` does before the measurement
    /// interval (`--num=10000` in the paper's command line).
    ///
    /// The keys are loaded into a map sized for all `n` before the table
    /// exists, so no other thread can see it yet: the load takes no lock,
    /// records no lock statistics and never rehashes.
    pub fn prepopulated(spec: impl Into<LockSpec>, n: u64) -> Result<Self, SpecError> {
        let get_lock = build_lock(&spec.into())?;
        let mut data = HashMap::with_capacity(n as usize);
        data.extend((0..n).map(|key| (key, prepopulated_value(key))));
        Ok(Self::from_map(get_lock, data))
    }

    /// Wraps a ready, not yet shared map behind `get_lock`.
    pub(crate) fn from_map(get_lock: LockHandle, data: HashMap<u64, Value>) -> Self {
        Self {
            get_lock,
            data: UnsafeCell::new(data),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The GetLock handle (label, spec, per-lock statistics).
    pub fn lock(&self) -> &LockHandle {
        &self.get_lock
    }

    /// Display label of the lock guarding this memtable.
    pub fn lock_label(&self) -> &str {
        self.get_lock.label()
    }

    /// The GetLock's own statistics snapshot.
    pub fn lock_stats(&self) -> Snapshot {
        self.get_lock.snapshot()
    }

    /// Reads the value for `key` (RocksDB `::Get()`), taking the GetLock
    /// shared.
    pub fn get(&self, key: u64) -> Option<Value> {
        self.get_lock.lock_shared();
        // SAFETY: the GetLock is held shared; writers hold it exclusively.
        let value = unsafe { (*self.data.get()).get(&key).copied() };
        self.get_lock.unlock_shared();
        match value {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts or overwrites `key` (RocksDB `::Put()` with in-place update
    /// support), taking the GetLock exclusively.
    pub fn put(&self, key: u64, value: Value) {
        self.get_lock.lock_exclusive();
        // SAFETY: the GetLock is held exclusively.
        unsafe {
            (*self.data.get()).insert(key, value);
        }
        self.get_lock.unlock_exclusive();
    }

    /// Updates `key` in place by applying `f` to the stored value, creating
    /// it as zeroes first if absent. Taking the GetLock exclusively is what
    /// `--inplace_update_support=1` does on the write path.
    pub fn update_in_place(&self, key: u64, f: impl FnOnce(&mut Value)) {
        self.get_lock.lock_exclusive();
        // SAFETY: the GetLock is held exclusively.
        unsafe {
            let entry = (*self.data.get()).entry(key).or_insert([0; 4]);
            f(entry);
        }
        self.get_lock.unlock_exclusive();
    }

    /// Ordered range scan: up to `limit` key/value pairs with `key >=
    /// start`, in ascending key order.
    ///
    /// The GetLock is held **shared for the entire scan** — collection *and*
    /// sorting happen under the lock, like a RocksDB iterator pinning the
    /// memtable — so this is the long reader section the `bravod` Scan
    /// operation uses to stress revocation latency under service traffic.
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Value)> {
        self.get_lock.lock_shared();
        // SAFETY: the GetLock is held shared; writers hold it exclusively.
        let mut entries: Vec<(u64, Value)> = unsafe {
            (*self.data.get())
                .iter()
                .filter(|(k, _)| **k >= start)
                .map(|(k, v)| (*k, *v))
                .collect()
        };
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries.truncate(limit);
        self.get_lock.unlock_shared();
        entries
    }

    /// Reads many keys under **one** shared GetLock acquisition, returning
    /// the values in input order. This is the lock-amortization primitive
    /// behind the wire protocol's `MultiGet`: N point reads cost one
    /// fast-path read instead of N.
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<Value>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let mut values = vec![None; keys.len()];
        self.get_batch_into(keys.iter().copied().enumerate(), &mut values);
        values
    }

    /// Looks up each `(slot, key)` request under **one** shared GetLock
    /// acquisition, storing the answer at `out[slot]`. The allocation-free
    /// core of [`MemTable::get_batch`]; the sharded `Db` uses it to scatter
    /// one `MultiGet` frame's answers straight into the caller's output
    /// without per-shard scratch vectors.
    pub fn get_batch_into(
        &self,
        requests: impl Iterator<Item = (usize, u64)>,
        out: &mut [Option<Value>],
    ) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        self.get_lock.lock_shared();
        // SAFETY: the GetLock is held shared; writers hold it exclusively.
        unsafe {
            let data = &*self.data.get();
            for (slot, key) in requests {
                let value = data.get(&key).copied();
                match value {
                    Some(_) => hits += 1,
                    None => misses += 1,
                }
                out[slot] = value;
            }
        }
        self.get_lock.unlock_shared();
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Applies a batch of writes in order under **one** exclusive GetLock
    /// acquisition (the `WriteBatch` counterpart of [`MemTable::get_batch`]).
    pub fn apply_batch(&self, ops: &[BatchOp]) {
        if ops.is_empty() {
            return;
        }
        self.apply_batch_from(ops.iter().copied());
    }

    /// Applies every op the iterator yields, in order, under **one**
    /// exclusive GetLock acquisition. The iterator is consumed *inside* the
    /// critical section, so callers must hand over ready-made ops (the
    /// sharded `Db` feeds each shard its slice of a `WriteBatch` without
    /// building per-shard vectors). Must not be called with a known-empty
    /// iterator — use [`MemTable::apply_batch`] when emptiness is possible.
    pub fn apply_batch_from(&self, ops: impl Iterator<Item = BatchOp>) {
        self.get_lock.lock_exclusive();
        // SAFETY: the GetLock is held exclusively.
        unsafe {
            let data = &mut *self.data.get();
            for op in ops {
                match op {
                    BatchOp::Put { key, value } => {
                        data.insert(key, value);
                    }
                    BatchOp::Merge { key, delta } => {
                        let entry = data.entry(key).or_insert([0; 4]);
                        for (word, d) in entry.iter_mut().zip(delta) {
                            *word = word.wrapping_add(d);
                        }
                    }
                    BatchOp::Delete { key } => {
                        data.remove(&key);
                    }
                }
            }
        }
        self.get_lock.unlock_exclusive();
    }

    /// Removes `key`, returning the previous value if any.
    pub fn delete(&self, key: u64) -> Option<Value> {
        self.get_lock.lock_exclusive();
        // SAFETY: the GetLock is held exclusively.
        let prev = unsafe { (*self.data.get()).remove(&key) };
        self.get_lock.unlock_exclusive();
        prev
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.get_lock.lock_shared();
        // SAFETY: the GetLock is held shared.
        let n = unsafe { (*self.data.get()).len() };
        self.get_lock.unlock_shared();
        n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters accumulated by `get`.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("lock", &self.get_lock.label())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwlocks::LockKind;
    use std::sync::Arc;

    #[test]
    fn put_get_delete_round_trip() {
        let t = MemTable::new(LockKind::BravoBa).unwrap();
        assert!(t.is_empty());
        t.put(1, [1, 2, 3, 4]);
        assert_eq!(t.get(1), Some([1, 2, 3, 4]));
        assert_eq!(t.get(2), None);
        assert_eq!(t.delete(1), Some([1, 2, 3, 4]));
        assert_eq!(t.get(1), None);
        assert_eq!(t.hit_miss(), (1, 2));
    }

    #[test]
    fn prepopulation_matches_db_bench() {
        let t = MemTable::prepopulated(LockKind::Ba, 100).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(99), Some(prepopulated_value(99)));
    }

    #[test]
    fn prepopulation_is_not_lock_traffic() {
        let t = MemTable::prepopulated(LockKind::BravoBa, 10_000).unwrap();
        let stats = t.lock_stats();
        assert_eq!(stats.writes, 0, "prepopulation took the write lock");
        assert_eq!(stats.total_reads(), 0, "prepopulation took the read lock");
    }

    #[test]
    fn scan_returns_an_ordered_bounded_range() {
        let t = MemTable::prepopulated(LockKind::BravoBa, 32).unwrap();
        let entries = t.scan(10, 5);
        assert_eq!(
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 11, 12, 13, 14]
        );
        assert_eq!(entries[0].1[0], 10);
        assert!(t.scan(32, 8).is_empty());
        assert_eq!(t.scan(30, 100).len(), 2);
        assert!(t.scan(0, 0).is_empty());
    }

    #[test]
    fn in_place_updates_apply_under_the_write_lock() {
        let t = MemTable::new(LockKind::Pthread).unwrap();
        t.update_in_place(7, |v| v[0] += 1);
        t.update_in_place(7, |v| v[0] += 1);
        assert_eq!(t.get(7).unwrap()[0], 2);
    }

    #[test]
    fn readers_never_observe_torn_values() {
        // The writer always keeps value[0] == value[1]; readers check it.
        // Start empty: prepopulated values differ in those words, so a
        // reader that beat the writer to a key would see a false tear.
        for kind in [LockKind::BravoBa, LockKind::Ba, LockKind::BravoPthread] {
            let t = Arc::new(MemTable::new(kind).unwrap());
            std::thread::scope(|s| {
                let writer = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        writer.update_in_place(i % 16, |v| {
                            v[0] = i;
                            v[1] = i;
                        });
                    }
                });
                for _ in 0..3 {
                    let reader = Arc::clone(&t);
                    s.spawn(move || {
                        for i in 0..2_000u64 {
                            if let Some(v) = reader.get(i % 16) {
                                assert_eq!(v[0], v[1], "torn read under {kind}");
                            }
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn get_batch_returns_values_in_input_order_and_counts_hits() {
        let t = MemTable::prepopulated(LockKind::BravoBa, 8).unwrap();
        let before = t.lock_stats();
        let values = t.get_batch(&[3, 100, 0, 3]);
        assert_eq!(values.len(), 4);
        assert_eq!(values[0].unwrap()[0], 3);
        assert_eq!(values[1], None);
        assert_eq!(values[2].unwrap()[0], 0);
        assert_eq!(values[3], values[0]);
        assert_eq!(t.hit_miss(), (3, 1));
        // One batch, one lock acquisition: the whole point.
        let delta = t.lock_stats().since(&before);
        assert_eq!(delta.total_reads(), 1, "get_batch took more than one read");
        assert!(t.get_batch(&[]).is_empty());
    }

    #[test]
    fn apply_batch_applies_in_order_under_one_write_acquisition() {
        let t = MemTable::new(LockKind::BravoBa).unwrap();
        let before = t.lock_stats();
        t.apply_batch(&[
            BatchOp::Put {
                key: 1,
                value: [10, 0, 0, 0],
            },
            BatchOp::Merge {
                key: 1,
                delta: [5, u64::MAX, 0, 0],
            },
            BatchOp::Put {
                key: 2,
                value: [2; 4],
            },
            BatchOp::Delete { key: 2 },
            BatchOp::Merge {
                key: 3,
                delta: [7, 0, 0, 0],
            },
        ]);
        // Merge is a wrapping per-word add over the put value...
        assert_eq!(t.get(1), Some([15, u64::MAX, 0, 0]));
        // ...delete lands after the put in the same batch...
        assert_eq!(t.get(2), None);
        // ...and a merge on an absent key starts from zeroes.
        assert_eq!(t.get(3), Some([7, 0, 0, 0]));
        let delta = t.lock_stats().since(&before);
        assert_eq!(delta.writes, 1, "apply_batch took more than one write");
        t.apply_batch(&[]); // empty batches are free
        assert_eq!(t.lock_stats().since(&before).writes, 1);
    }

    #[test]
    fn works_with_every_lock_in_the_catalog() {
        for &kind in LockKind::all() {
            let t = MemTable::new(kind).unwrap();
            t.put(5, [5; 4]);
            assert_eq!(t.get(5), Some([5; 4]), "broken under {kind}");
        }
    }
}
