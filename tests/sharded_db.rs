//! Cross-shard consistency of the sharded [`kvstore::Db`].
//!
//! The scan contract (see `Db::scan`) is a **per-shard snapshot**: atomic
//! within each shard, merged-and-truncated across shards outside any lock.
//! These tests pin the two halves of that contract:
//!
//! * quiescent equivalence — with no writers in flight, a cross-shard scan
//!   equals the sorted union of the per-shard contents, and a sharded db
//!   answers every operation exactly like a flat (`shards=1`) one;
//! * concurrent integrity — under live writers a scan may be a per-shard
//!   mosaic, but it never contains duplicated keys, out-of-order keys,
//!   out-of-range keys, or torn (half-written) values.

use std::collections::BTreeMap;

use bravo::hash::key_shard;
use kvstore::memtable::{prepopulated_value, Value};
use kvstore::{BatchOp, Db};
use proptest::prelude::*;
use rwlocks::LockKind;

/// A random op stream as (selector, key, payload-word) triples.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..4, 0u64..512, any::<u64>()), 0..128)
}

fn apply_model(model: &mut BTreeMap<u64, Value>, op: (u8, u64, u64)) {
    let (selector, key, word) = op;
    match selector {
        0 => {
            model.insert(key, [word, key, 0, 0]);
        }
        1 => {
            let entry = model.entry(key).or_insert([0; 4]);
            for (slot, delta) in entry.iter_mut().zip([word, 1, 2, 3]) {
                *slot = slot.wrapping_add(delta);
            }
        }
        2 => {
            model.remove(&key);
        }
        _ => {} // gets mutate nothing
    }
}

fn apply_db(db: &Db, op: (u8, u64, u64)) {
    let (selector, key, word) = op;
    match selector {
        0 => db.put(key, [word, key, 0, 0]),
        1 => db.merge(key, |value| {
            for (slot, delta) in value.iter_mut().zip([word, 1, 2, 3]) {
                *slot = slot.wrapping_add(delta);
            }
        }),
        2 => {
            db.delete(key);
        }
        _ => {
            db.get(key);
        }
    }
}

proptest! {
    /// After prepopulating keys `0..n` and any op sequence, a cross-shard
    /// scan equals the sorted union of the per-shard contents (each shard
    /// read through its own memtable), equals a sequential BTreeMap model
    /// — for 1, 3 and 8 shards alike, at several (start, limit) windows.
    /// Each shard starts with exactly the prepopulated keys routed to it.
    #[test]
    fn scan_is_the_sorted_union_of_shard_contents(ops in ops_strategy(), n in 0u64..600) {
        for shards in [1usize, 3, 8] {
            let spec = LockKind::BravoBa.spec().with_shards(shards);
            let db = Db::open_prepopulated(spec, n).expect("open sharded db");
            for (shard, table) in db.memtables().iter().enumerate() {
                let routed = (0..n).filter(|&k| key_shard(k, shards) == shard).count();
                prop_assert_eq!(table.len(), routed, "shards={} shard={}", shards, shard);
            }
            let mut model: BTreeMap<u64, Value> =
                (0..n).map(|k| (k, prepopulated_value(k))).collect();
            for &op in &ops {
                apply_db(&db, op);
                apply_model(&mut model, op);
            }
            for (start, limit) in [(0u64, 600usize), (0, 7), (100, 32), (400, 600)] {
                // Reference: union of per-shard scans, merged and cut.
                let mut union: Vec<(u64, Value)> = db
                    .memtables()
                    .iter()
                    .flat_map(|shard| shard.scan(start, limit))
                    .collect();
                union.sort_unstable_by_key(|(k, _)| *k);
                union.truncate(limit);
                let scanned = db.scan(start, limit);
                prop_assert_eq!(&scanned, &union, "shards={} window=({},{})", shards, start, limit);
                // And both match the sequential model.
                let expected: Vec<(u64, Value)> = model
                    .range(start..)
                    .take(limit)
                    .map(|(&k, &v)| (k, v))
                    .collect();
                prop_assert_eq!(&scanned, &expected, "shards={} window=({},{})", shards, start, limit);
            }
            prop_assert_eq!(db.len(), model.len());
        }
    }

    /// Batched entry points agree with their one-at-a-time counterparts on
    /// a sharded db: `multi_get` answers like per-key `get`s in input
    /// order, and `write_batch` lands like sequential puts/merges/deletes.
    #[test]
    fn batched_ops_agree_with_pointwise_ops(ops in ops_strategy()) {
        let batched = Db::open(LockKind::BravoBa.spec().with_shards(4)).expect("open");
        let pointwise = Db::open(LockKind::BravoBa.spec().with_shards(4)).expect("open");
        let batch: Vec<BatchOp> = ops
            .iter()
            .filter_map(|&(selector, key, word)| match selector {
                0 => Some(BatchOp::Put { key, value: [word, key, 0, 0] }),
                1 => Some(BatchOp::Merge { key, delta: [word, 1, 2, 3] }),
                2 => Some(BatchOp::Delete { key }),
                _ => None,
            })
            .collect();
        prop_assert_eq!(batched.write_batch(&batch), batch.len());
        for &op in &ops {
            apply_db(&pointwise, op);
        }
        let keys: Vec<u64> = (0..512).collect();
        let lookups = batched.multi_get(&keys);
        for (&key, looked_up) in keys.iter().zip(&lookups) {
            prop_assert_eq!(looked_up, &pointwise.get(key), "key {}", key);
            prop_assert_eq!(looked_up, &batched.get(key), "key {}", key);
        }
        prop_assert_eq!(batched.scan(0, 600), pointwise.scan(0, 600));
    }
}

/// Under concurrent writers a cross-shard scan is a per-shard mosaic, but
/// it must never show duplicated keys, unsorted or out-of-range keys, or a
/// torn value. Writers keep every value in the recognizable shape
/// `[key, g, g, g]` (whole-value puts), so any mix of two writes is
/// detectable.
#[test]
fn concurrent_scans_never_observe_duplicates_or_torn_values() {
    const KEYS: u64 = 256;
    let db = Db::open_prepopulated(LockKind::BravoBa.spec().with_shards(8), KEYS).expect("open");
    // Overwrite the prepopulated [key, key^0xff, 0, 0] shape with the
    // generation shape the checker recognizes.
    for key in 0..KEYS {
        db.put(key, [key, 0, 0, 0]);
    }
    std::thread::scope(|s| {
        for writer in 0..2u64 {
            let db = &db;
            s.spawn(move || {
                for generation in 1..400u64 {
                    for key in (writer..KEYS).step_by(2) {
                        db.put(key, [key, generation, generation, generation]);
                    }
                }
            });
        }
        for _ in 0..2 {
            let db = &db;
            s.spawn(move || {
                for _ in 0..200 {
                    let entries = db.scan(0, KEYS as usize + 16);
                    let mut last_key = None;
                    for &(key, value) in &entries {
                        assert!(
                            last_key < Some(key),
                            "scan keys unsorted or duplicated around {key}"
                        );
                        last_key = Some(key);
                        assert!(key < KEYS, "scan invented key {key}");
                        assert_eq!(value[0], key, "value landed on the wrong key");
                        assert!(
                            value[1] == value[2] && value[2] == value[3],
                            "torn value for {key}: {value:?}"
                        );
                    }
                }
            });
        }
    });
    // Writers never delete, so the final population is intact.
    assert_eq!(db.len(), KEYS as usize);
}
