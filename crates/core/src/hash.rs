//! The hash that disperses `(thread, lock)` pairs over the visible readers
//! table.
//!
//! The paper bases its hash on the `Mix32` finalizer from Steele, Lea &
//! Flood's SplitMix work ("Fast Splittable Pseudorandom Number Generators",
//! OOPSLA 2014). We implement both the 64-bit and 32-bit finalizers; the
//! table index is derived from the 64-bit mix of the lock address XORed with
//! a mixed thread identity, which gives the equidistribution the paper's
//! balls-into-bins collision analysis assumes.

/// SplitMix64 finalizer (Stafford's Mix13 variant, as used by
/// `java.util.SplittableRandom`).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 32-bit murmur3-style finalizer (the paper's `Mix32`).
#[inline]
pub fn mix32(mut z: u32) -> u32 {
    z = (z ^ (z >> 16)).wrapping_mul(0x85eb_ca6b);
    z = (z ^ (z >> 13)).wrapping_mul(0xc2b2_ae35);
    z ^ (z >> 16)
}

/// Hashes a lock address and a thread identity to a slot index in a table of
/// `table_size` entries.
///
/// `table_size` must be a power of two (all BRAVO tables are); the low bits
/// of the mixed value are used as the index.
#[inline]
pub fn slot_index(lock_addr: usize, thread_id: usize, table_size: usize) -> usize {
    debug_assert!(table_size.is_power_of_two());
    // Locks are at least word aligned, so the low address bits carry no
    // entropy; mixing fixes that, but we also fold the thread identity in
    // with its own mix so two threads never collapse to the same stream.
    let h = mix64(lock_addr as u64 ^ mix64(thread_id as u64 ^ 0x9e37_79b9_7f4a_7c15));
    (h as usize) & (table_size - 1)
}

/// Mixes a kvstore key for shard/stripe selection.
///
/// This is the **single** key-hash function shared by everything that
/// partitions the key space — the sharded `kvstore::Db` router and the
/// `HashCache` stripe hasher both call it — so routing and striping can
/// never silently diverge. Sequential keys (the load generators draw keys
/// `0..n`) are dispersed by the full `mix64` finalizer, not their low bits.
#[inline]
pub fn key_hash(key: u64) -> u64 {
    mix64(key)
}

/// Maps a kvstore key to one of `shards` key-hashed shards.
///
/// Shard counts need not be powers of two (the `shards=N` spec knob accepts
/// any N ≥ 1), so this scales the mixed key into `0..shards` with a
/// multiply-high (Lemire, "Fast Random Integer Generation in an Interval",
/// ACM TOMACS 2019) rather than masking: the shard is the high word of
/// `key_hash(key) * shards`, one multiply instead of a 64-bit division.
/// It is taken from the hash's top bits, so the keys of one shard share
/// those bits. With zero or one shard every key maps to shard 0.
#[inline]
pub fn key_shard(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        ((u128::from(key_hash(key)) * shards as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_a_bijection_on_samples() {
        // A finalizer must not collapse distinct inputs we care about.
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn mix32_changes_all_zero_input() {
        assert_eq!(mix32(0), 0); // murmur3 finalizer maps 0 to 0 ...
        assert_ne!(mix32(1), 1); // ... but not other small values to themselves
        assert_ne!(mix32(2), mix32(3));
    }

    #[test]
    fn slot_index_is_in_range() {
        for size in [64usize, 4096, 65536] {
            for t in 0..64 {
                for l in 0..64 {
                    assert!(slot_index(l * 64, t, size) < size);
                }
            }
        }
    }

    #[test]
    fn different_threads_usually_get_different_slots_for_same_lock() {
        // This is the property BRAVO relies on: readers of the same lock
        // should diffuse over the table. With 64 threads and 4096 slots the
        // expected number of pairwise collisions is small (birthday bound
        // ~0.5 per draw set); assert it is nowhere near degenerate.
        let lock_addr = 0xdead_b000usize;
        let slots: HashSet<_> = (0..64).map(|t| slot_index(lock_addr, t, 4096)).collect();
        assert!(
            slots.len() >= 60,
            "only {} distinct slots for 64 threads",
            slots.len()
        );
    }

    #[test]
    fn key_shard_is_in_range_total_and_balanced() {
        for shards in [1usize, 2, 3, 5, 7, 8, 16, 64] {
            let mut counts = vec![0usize; shards];
            for key in 0..8_192u64 {
                let shard = key_shard(key, shards);
                assert!(shard < shards);
                counts[shard] += 1;
            }
            // Sequential keys must spread: no shard may see more than twice
            // its fair share (mix64 disperses far better than this bound).
            let fair = 8_192 / shards;
            assert!(
                counts.iter().all(|&c| c < fair * 2),
                "unbalanced shard counts for {shards} shards: {counts:?}"
            );
        }
    }

    #[test]
    fn key_shard_is_deterministic_and_built_on_key_hash() {
        for key in [0u64, 1, 42, u64::MAX] {
            // Eight shards take the top three bits of the hash.
            assert_eq!(key_shard(key, 8), (key_hash(key) >> 61) as usize);
            assert_eq!(
                key_shard(key, 3),
                ((u128::from(key_hash(key)) * 3) >> 64) as usize
            );
            assert_eq!(key_shard(key, 8), key_shard(key, 8));
            assert_eq!(key_shard(key, 1), 0);
            assert_eq!(key_shard(key, 0), 0);
        }
    }

    #[test]
    fn low_address_bits_do_not_dominate() {
        // Consecutive 128-byte-spaced locks must not map to consecutive slots
        // in lockstep for every thread (that would defeat dispersion when a
        // single thread touches many locks).
        let slots: Vec<_> = (0..64)
            .map(|i| slot_index(0x1000 + i * 128, 7, 4096))
            .collect();
        let strided = slots
            .windows(2)
            .filter(|w| w[1] == (w[0] + 1) % 4096)
            .count();
        assert!(strided < 8, "hash looks like identity on strided addresses");
    }
}
