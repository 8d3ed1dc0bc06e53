//! The store `bravo_bench`'s `serve-batch-large` workload serves, loaded at
//! full size and checked key by key, then checked again after a strided
//! subset of its keys is deleted and put back: that runs backward-shift
//! deletion across a table on huge pages.
//!
//! Ignored by default because it allocates about 340 MB and is slow in a
//! debug build; run it with `cargo test --release -p kvstore -- --ignored`.

use bravo::spec::LockSpec;
use kvstore::memtable::prepopulated_value;
use kvstore::Db;

const KEYS: u64 = 4_000_000;
const BATCH: u64 = 4_096;

/// Every `STRIDE`th key is deleted and put back.
const STRIDE: u64 = 7;

/// Asserts that `db` holds exactly keys `0..KEYS`, each with its
/// prepopulated value.
fn check_every_key(db: &Db) {
    assert_eq!(db.len() as u64, KEYS);
    for start in (0..KEYS).step_by(BATCH as usize) {
        let keys: Vec<u64> = (start..KEYS.min(start + BATCH)).collect();
        for (key, value) in keys.iter().zip(db.multi_get(&keys)) {
            assert_eq!(value, Some(prepopulated_value(*key)), "key {key}");
        }
    }
}

#[test]
#[ignore = "loads 4,000,000 keys; run in release with --ignored"]
fn a_four_shard_store_of_four_million_keys_holds_every_prepopulated_value() {
    let spec: LockSpec = "BRAVO-BA?shards=4".parse().expect("a valid spec");
    let db = Db::open_prepopulated(spec, KEYS).expect("the store fits in memory");
    assert_eq!(db.shards(), 4);
    check_every_key(&db);
    for key in (0..KEYS).step_by(STRIDE as usize) {
        assert!(db.delete(key), "key {key} was loaded");
    }
    assert_eq!(db.len() as u64, KEYS - KEYS.div_ceil(STRIDE));
    for key in (0..KEYS)
        .filter(|key| key % STRIDE != 0)
        .step_by(BATCH as usize)
    {
        assert_eq!(db.get(key), Some(prepopulated_value(key)), "key {key}");
    }
    for key in (0..KEYS).step_by(STRIDE as usize) {
        assert_eq!(db.get(key), None, "key {key} was deleted");
        db.put(key, prepopulated_value(key));
    }
    check_every_key(&db);
}
