//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use bravo_repro::bravo::hash::{mix64, slot_index};
use bravo_repro::bravo::policy::BiasPolicy;
use bravo_repro::bravo::spec::{LockSpec, TableSpec};
use bravo_repro::bravo::vrt::{ReaderTable, VisibleReadersTable};
use bravo_repro::bravo::wait::{WaitMode, WaitQueue};
use bravo_repro::bravo::{BravoRwLock, SectoredTable};
use bravo_repro::rwlocks::{LockKind, PhaseFairQueueLock};
use bravo_repro::topology::Machine;

proptest! {
    /// The slot hash must always stay inside the table, for any table size
    /// that is a power of two and any lock address / thread id.
    #[test]
    fn slot_index_is_always_in_range(
        addr in any::<usize>(),
        tid in 0usize..100_000,
        size_log2 in 0u32..20,
    ) {
        let size = 1usize << size_log2;
        prop_assert!(slot_index(addr, tid, size) < size);
    }

    /// mix64 is a bijection, so distinct inputs never collide.
    #[test]
    fn mix64_never_collides_on_distinct_inputs(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(mix64(a), mix64(b));
    }

    /// Dispersion: for a fixed lock, the number of distinct slots across
    /// `threads` thread ids must be close to the balls-into-bins
    /// expectation (at least half of the ideal, a very loose bound that
    /// still catches a broken hash).
    #[test]
    fn readers_of_one_lock_disperse_over_the_table(
        addr in (1usize..usize::MAX / 2).prop_map(|a| a * 2),
        threads in 2usize..128,
    ) {
        let size = 4096;
        let distinct: std::collections::HashSet<_> =
            (0..threads).map(|t| slot_index(addr, t, size)).collect();
        prop_assert!(distinct.len() * 2 >= threads.min(size / 2));
    }

    /// Publish/clear sequences leave the visible readers table empty, and
    /// occupancy never exceeds the number of in-flight publications.
    #[test]
    fn vrt_publish_clear_sequences_balance(ops in proptest::collection::vec((0usize..64, 0usize..16), 1..200)) {
        let table = VisibleReadersTable::new(64);
        // Addresses must be non-null and even (word aligned).
        let mut held: Vec<(usize, usize)> = Vec::new();
        for (slot, owner) in ops {
            let addr = (owner + 1) * 8;
            if table.try_publish(slot, addr) {
                held.push((slot, addr));
            }
            prop_assert!(table.occupancy() <= held.len());
        }
        for (slot, addr) in held.drain(..) {
            prop_assert!(table.clear(slot, addr));
        }
        prop_assert_eq!(table.occupancy(), 0);
    }

    /// The inhibit-until policy never produces a window that ends before
    /// the revocation finished, and larger N never shrinks the window.
    #[test]
    fn inhibit_policy_windows_are_monotone(
        start in 0u64..u64::MAX / 4,
        cost in 0u64..1_000_000_000,
        n_small in 0u64..16,
        extra in 1u64..16,
    ) {
        let now = start + cost;
        let small = BiasPolicy::InhibitUntil { n: n_small };
        let large = BiasPolicy::InhibitUntil { n: n_small + extra };
        let w_small = small.inhibit_until_after_revocation(start, now);
        let w_large = large.inhibit_until_after_revocation(start, now);
        prop_assert!(w_small >= now);
        prop_assert!(w_large >= w_small);
    }

    /// A BRAVO-2D table maps every lock to exactly one column, and the slot
    /// for (cpu, lock) always lands in that cpu's row.
    #[test]
    fn sectored_table_geometry_is_consistent(
        rows in 1usize..64,
        row_slots in 1usize..256,
        addr in any::<usize>(),
        cpu in 0usize..256,
    ) {
        let t = SectoredTable::new(rows, row_slots);
        let col = t.column_for(addr);
        prop_assert!(col < t.row_slots());
        let slot = t.slot_for(cpu, addr);
        prop_assert_eq!(slot % t.row_slots(), col);
        prop_assert_eq!(slot / t.row_slots(), cpu % t.rows());
        prop_assert!(slot < t.len());
    }

    /// The machine topology maps every CPU to a valid node and is exactly
    /// partitioned.
    #[test]
    fn machine_partitions_cpus_into_nodes(nodes in 1usize..16, per_node in 1usize..64) {
        let m = Machine::new(nodes, per_node);
        let mut per_node_count = vec![0usize; nodes];
        for cpu in 0..m.logical_cpus() {
            per_node_count[m.node_of_cpu(cpu)] += 1;
        }
        prop_assert!(per_node_count.iter().all(|&c| c == per_node));
    }
}

/// Every syntactically constructible LockSpec must survive a round trip
/// through its compact string form (`Display` then `FromStr`).
fn arbitrary_spec_strategy() -> impl Strategy<Value = LockSpec> {
    let kind = (0usize..LockKind::all().len()).prop_map(|i| LockKind::all()[i].name().to_string());
    let bias = prop_oneof![
        (0u64..1_000).prop_map(|n| BiasPolicy::InhibitUntil { n }),
        (0u8..1).prop_map(|_| BiasPolicy::Disabled),
    ];
    let table = prop_oneof![
        (0u8..1).prop_map(|_| TableSpec::Global),
        (1usize..100_000).prop_map(|slots| TableSpec::Private { slots }),
        (1usize..512, 1usize..4_096)
            .prop_map(|(sectors, slots)| TableSpec::Sectored { sectors, slots }),
    ];
    let wait = prop_oneof![
        (0u8..1).prop_map(|_| WaitMode::Spin),
        (0u8..1).prop_map(|_| WaitMode::Park),
        (0u8..1).prop_map(|_| WaitMode::Futex),
    ];
    let shards = 1usize..64;
    (kind, bias, table, wait, shards).prop_map(|(kind, bias, table, wait, shards)| {
        LockSpec::new(kind)
            .with_bias(bias)
            .with_table(table)
            .with_wait(wait)
            .with_shards(shards)
    })
}

proptest! {
    #[test]
    fn lock_specs_round_trip_through_display_and_from_str(spec in arbitrary_spec_strategy()) {
        let text = spec.to_string();
        let reparsed: LockSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("'{text}' failed to reparse: {e}"));
        prop_assert_eq!(reparsed, spec);
    }
}

proptest! {
    /// No lost wakeups: for any waiter count and key, every waiter parked on
    /// a condition observes it after the state change + wake, within a
    /// generous deadline. A lost wakeup shows up as a timeout, not a hang.
    #[test]
    fn wait_queue_never_loses_wakeups(
        waiters in 1usize..5,
        key in any::<usize>(),
        delay_us in 0u64..1_500,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let q = Arc::new(WaitQueue::new());
        let ready = Arc::new(AtomicBool::new(false));
        let deadline = bravo_repro::bravo::clock::now_ns() + 10_000_000_000;
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let q = Arc::clone(&q);
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || {
                    q.wait_until_deadline(key, || ready.load(Ordering::Acquire), deadline)
                })
            })
            .collect();
        // A randomized delay makes some cases win the spin grace period and
        // others actually park; both must observe the wake.
        std::thread::sleep(std::time::Duration::from_micros(delay_us));
        ready.store(true, Ordering::Release);
        q.wake_all(key);
        for handle in handles {
            prop_assert!(
                handle.join().expect("waiter panicked"),
                "a waiter timed out: wakeup lost"
            );
        }
        prop_assert!(q.is_empty());
    }

    /// FIFO order: waiters registered under one key in a known order are
    /// woken by `wake_one` in that same order.
    #[test]
    fn wait_queue_wake_one_is_fifo(waiters in 2usize..5, key_seed in any::<usize>()) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};
        use std::time::{Duration, Instant};

        let key = key_seed;
        let q = Arc::new(WaitQueue::new());
        let flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..waiters).map(|_| AtomicBool::new(false)).collect());
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..waiters)
            .map(|i| {
                let q = Arc::clone(&q);
                let flags = Arc::clone(&flags);
                let order = Arc::clone(&order);
                // Stagger registration: waiter i parks only once i earlier
                // waiters are registered, fixing the FIFO order under test.
                let start = Instant::now();
                while q.len() < i {
                    assert!(start.elapsed() < Duration::from_secs(10), "stagger stuck");
                    std::thread::yield_now();
                }
                std::thread::spawn(move || {
                    q.wait_until(key, || flags[i].load(Ordering::Acquire));
                    order.lock().expect("order mutex").push(i);
                })
            })
            .collect();
        let start = Instant::now();
        while q.len() < waiters {
            prop_assert!(start.elapsed() < Duration::from_secs(10), "waiters never parked");
            std::thread::yield_now();
        }
        for i in 0..waiters {
            flags[i].store(true, Ordering::Release);
            prop_assert!(q.wake_one(key), "no waiter to wake for slot {i}");
            let start = Instant::now();
            while order.lock().expect("order mutex").len() < i + 1 {
                prop_assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "woken waiter {i} never returned (FIFO violated?)"
                );
                std::thread::yield_now();
            }
        }
        for handle in handles {
            handle.join().expect("waiter panicked");
        }
        prop_assert_eq!(&*order.lock().expect("order mutex"), &(0..waiters).collect::<Vec<_>>());
    }
}

/// Model-based test: a random sequence of operations applied both to a
/// BRAVO-protected map and to a plain single-threaded model must agree.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        any::<u8>().prop_map(MapOp::Remove),
        any::<u8>().prop_map(MapOp::Get),
    ]
}

proptest! {
    #[test]
    fn bravo_rwlock_matches_a_sequential_model(ops in proptest::collection::vec(map_op_strategy(), 1..300)) {
        let lock: BravoRwLock<std::collections::BTreeMap<u8, u16>, PhaseFairQueueLock> =
            BravoRwLock::new(std::collections::BTreeMap::new());
        let mut model = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    lock.write().insert(k, v);
                    model.insert(k, v);
                }
                MapOp::Remove(k) => {
                    let a = lock.write().remove(&k);
                    let b = model.remove(&k);
                    prop_assert_eq!(a, b);
                }
                MapOp::Get(k) => {
                    let a = lock.read().get(&k).copied();
                    let b = model.get(&k).copied();
                    prop_assert_eq!(a, b);
                }
            }
        }
        prop_assert_eq!(&*lock.read(), &model);
    }
}

/// Balls-into-bins sanity check from the paper's interference analysis: the
/// per-access true collision probability is roughly `threads / (2 × slots)`
/// and, per the paper's claim, independent of the number of locks.
#[test]
fn collision_rate_matches_balls_into_bins_model() {
    let slots = 4096usize;
    let threads = 64usize;
    for locks in [1usize, 16, 1024] {
        let mut collisions = 0u64;
        let mut trials = 0u64;
        // Simulate rounds where every thread grabs a random lock
        // simultaneously; count pairwise slot collisions per access.
        let mut seed = 0x1234_5678u64;
        for _round in 0..2_000 {
            let mut occupied = std::collections::HashSet::new();
            for t in 0..threads {
                seed = mix64(seed.wrapping_add(t as u64 + 1));
                let lock_addr = ((seed as usize % locks) + 1) * 128;
                let slot = slot_index(lock_addr, t, slots);
                trials += 1;
                if !occupied.insert(slot) {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = threads as f64 / (2.0 * slots as f64);
        assert!(
            rate < expected * 4.0 + 0.01,
            "collision rate {rate:.4} far above balls-into-bins expectation {expected:.4} at {locks} locks"
        );
    }
}

/// Footprint invariants from §5, checked across the catalog.
#[test]
fn catalog_locks_construct_and_report_names() {
    for &kind in LockKind::all() {
        assert!(!kind.name().is_empty());
        let lock = kind.build();
        lock.lock_shared();
        lock.unlock_shared();
    }
}
