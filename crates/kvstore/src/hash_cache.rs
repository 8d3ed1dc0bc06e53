//! The persistent-cache hash table: a hash map behind one reader-writer
//! lock, as stressed by RocksDB's `hash_table_bench`.

use std::cell::UnsafeCell;
use std::collections::HashMap;

use bravo::spec::{LockHandle, LockSpec, SpecError};
use bravo::stats::Snapshot;
use rwlocks::build_lock;

/// A cache entry, standing in for the block-cache metadata RocksDB stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Where the cached block lives in the (simulated) cache file.
    pub offset: u64,
    /// Size of the cached block.
    pub size: u32,
}

/// The cache's key-hash: a [`std::hash::BuildHasher`] driving the bucket
/// striping with [`bravo::hash::key_hash`] — the **same** function the
/// sharded [`crate::Db`] routes keys with (via [`bravo::hash::key_shard`]).
/// The hash is exported from one place (`bravo::hash`) precisely so cache
/// striping and shard routing cannot silently diverge.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHashBuilder;

impl std::hash::BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

/// Streaming adapter over [`bravo::hash::key_hash`]. Cache keys are `u64`,
/// so `write_u64` is the only hot path; the byte fallback folds 8-byte
/// chunks through the same mix so composite keys stay well-dispersed.
#[derive(Debug)]
pub struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = bravo::hash::key_hash(self.0 ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = bravo::hash::key_hash(self.0 ^ key);
    }
}

/// A central hash table protected by a single reader-writer lock — the
/// structure `hash_table_bench` measures (`std::unordered_map` plus a
/// reader-writer lock in RocksDB's persistent cache).
pub struct HashCache {
    lock: LockHandle,
    /// Key → entry map, bucketed by [`KeyHashBuilder`]. Guarded by `lock`.
    map: UnsafeCell<HashMap<u64, CacheEntry, KeyHashBuilder>>,
}

// SAFETY: `map` is only read under shared permission and only mutated under
// exclusive permission on `lock`.
unsafe impl Send for HashCache {}
// SAFETY: see above.
unsafe impl Sync for HashCache {}

impl HashCache {
    /// Creates an empty cache index whose lock is built from the given
    /// spec (a [`rwlocks::LockKind`] or a parsed [`LockSpec`] both work).
    pub fn new(spec: impl Into<LockSpec>) -> Result<Self, SpecError> {
        Ok(Self {
            lock: build_lock(&spec.into())?,
            map: UnsafeCell::new(HashMap::with_hasher(KeyHashBuilder)),
        })
    }

    /// Creates a cache pre-populated with `n` entries, as the benchmark does
    /// before its measurement interval.
    ///
    /// The entries are loaded into a map sized for all `n` before the cache
    /// exists, so no other thread can see it yet: the load takes no lock,
    /// records no lock statistics and never rehashes (the loaded map has
    /// the capacity of a map made `with_capacity(n)`).
    pub fn prepopulated(spec: impl Into<LockSpec>, n: u64) -> Result<Self, SpecError> {
        let lock = build_lock(&spec.into())?;
        let mut map = HashMap::with_capacity_and_hasher(n as usize, KeyHashBuilder);
        map.extend((0..n).map(|key| {
            let entry = CacheEntry {
                offset: key * 4096,
                size: 4096,
            };
            (key, entry)
        }));
        Ok(Self {
            lock,
            map: UnsafeCell::new(map),
        })
    }

    /// The lock handle guarding this cache.
    pub fn lock(&self) -> &LockHandle {
        &self.lock
    }

    /// Display label of the lock guarding this cache.
    pub fn lock_label(&self) -> &str {
        self.lock.label()
    }

    /// The lock's statistics snapshot.
    pub fn lock_stats(&self) -> Snapshot {
        self.lock.snapshot()
    }

    /// Looks up `key` under shared permission.
    pub fn lookup(&self, key: u64) -> Option<CacheEntry> {
        self.lock.lock_shared();
        // SAFETY: shared permission held.
        let entry = unsafe { (*self.map.get()).get(&key).copied() };
        self.lock.unlock_shared();
        entry
    }

    /// Inserts `key` under exclusive permission, returning the previous
    /// entry if any.
    pub fn insert(&self, key: u64, entry: CacheEntry) -> Option<CacheEntry> {
        self.lock.lock_exclusive();
        // SAFETY: exclusive permission held.
        let prev = unsafe { (*self.map.get()).insert(key, entry) };
        self.lock.unlock_exclusive();
        prev
    }

    /// Erases `key` under exclusive permission, returning the removed entry
    /// if it existed.
    pub fn erase(&self, key: u64) -> Option<CacheEntry> {
        self.lock.lock_exclusive();
        // SAFETY: exclusive permission held.
        let prev = unsafe { (*self.map.get()).remove(&key) };
        self.lock.unlock_exclusive();
        prev
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.lock.lock_shared();
        // SAFETY: shared permission held.
        let n = unsafe { (*self.map.get()).len() };
        self.lock.unlock_shared();
        n
    }

    /// Whether the cache index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for HashCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashCache")
            .field("lock", &self.lock.label())
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
    fn insert_lookup_erase_round_trip() {
        let c = HashCache::new(LockKind::BravoBa).unwrap();
        assert!(c.is_empty());
        assert_eq!(
            c.insert(
                1,
                CacheEntry {
                    offset: 0,
                    size: 10
                }
            ),
            None
        );
        assert_eq!(
            c.lookup(1),
            Some(CacheEntry {
                offset: 0,
                size: 10
            })
        );
        assert_eq!(
            c.insert(
                1,
                CacheEntry {
                    offset: 4096,
                    size: 20
                }
            ),
            Some(CacheEntry {
                offset: 0,
                size: 10
            })
        );
        assert_eq!(c.erase(1).unwrap().offset, 4096);
        assert_eq!(c.lookup(1), None);
    }

    #[test]
    fn key_hasher_agrees_with_the_shard_router_hash() {
        use std::hash::{BuildHasher, Hasher};
        // One u64 write must land on exactly bravo::hash::key_hash — the
        // same function Db's shard router reduces — so the two can never
        // disagree about a key's dispersion.
        for key in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            let mut hasher = KeyHashBuilder.build_hasher();
            hasher.write_u64(key);
            assert_eq!(hasher.finish(), bravo::hash::key_hash(key));
        }
        // The byte path folds through the same mix and stays deterministic.
        let mut a = KeyHashBuilder.build_hasher();
        let mut b = KeyHashBuilder.build_hasher();
        a.write(&7u64.to_le_bytes());
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn prepopulation_sizes_correctly() {
        let c = HashCache::prepopulated(LockKind::PerCpu, 256).unwrap();
        assert_eq!(c.len(), 256);
        assert_eq!(c.lookup(255).unwrap().offset, 255 * 4096);
    }

    #[test]
    fn prepopulation_never_rehashes() {
        for n in [0u64, 1, 100, 10_000] {
            let mut c = HashCache::prepopulated(LockKind::BravoBa, n).unwrap();
            let reserved = HashMap::<u64, CacheEntry>::with_capacity(n as usize).capacity();
            assert_eq!(
                c.map.get_mut().capacity(),
                reserved,
                "n={n}: the load rehashed"
            );
        }
    }

    #[test]
    fn prepopulation_is_not_lock_traffic() {
        let c = HashCache::prepopulated(LockKind::BravoBa, 10_000).unwrap();
        let stats = c.lock_stats();
        assert_eq!(stats.writes, 0, "prepopulation took the write lock");
        assert_eq!(stats.total_reads(), 0, "prepopulation took the read lock");
    }

    #[test]
    fn concurrent_insert_erase_lookup_is_consistent() {
        let c = Arc::new(HashCache::prepopulated(LockKind::BravoBa, 128).unwrap());
        std::thread::scope(|s| {
            let inserter = Arc::clone(&c);
            s.spawn(move || {
                for i in 128..1_128 {
                    inserter.insert(
                        i,
                        CacheEntry {
                            offset: i * 4096,
                            size: 4096,
                        },
                    );
                }
            });
            let eraser = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..128 {
                    eraser.erase(i);
                }
            });
            for _ in 0..2 {
                let reader = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..1_128u64 {
                        if let Some(e) = reader.lookup(i) {
                            assert_eq!(e.offset, i * 4096, "entry for {i} is corrupted");
                        }
                    }
                });
            }
        });
        // 128 initial − 128 erased + 1000 inserted.
        assert_eq!(c.len(), 1_000);
    }
}
