//! BRAVO lock scenarios shared by the model-checking suites
//! (`schedcheck_locks.rs` runs them clean, `schedcheck_mutation.rs` runs
//! them against seeded bugs).

use std::sync::Arc;

use bravo::sync::atomic::{AtomicU64, Ordering};
use bravo::{BiasPolicy, BravoLock, DefaultRwLock, RawRwLock, TableHandle, WaitMode, WaitStrategy};

/// A BRAVO lock over a one-slot private table, so every reader collides on
/// the same slot, with every wait in `mode` and reader bias primed from the
/// root.
pub fn primed_one_slot_lock(mode: WaitMode) -> Arc<BravoLock<DefaultRwLock>> {
    let lock = Arc::new(
        BravoLock::<DefaultRwLock>::with_parts(
            DefaultRwLock::with_wait(mode),
            TableHandle::private(1),
            BiasPolicy::paper_default(),
        )
        .with_wait_mode(mode),
    );
    lock.read_lock();
    lock.read_unlock();
    lock
}

/// A thread that takes and releases write permission once.
pub fn spawn_writer(lock: &Arc<BravoLock<DefaultRwLock>>) -> schedcheck::JoinHandle<()> {
    let lock = Arc::clone(lock);
    schedcheck::spawn(move || {
        lock.write_lock();
        lock.write_unlock();
    })
}

/// A fast reader and a colliding slow reader (its re-derived slot is the
/// fast reader's) release at once; the writer that follows deadlocks if
/// either release leaked a count on the underlying lock. A peek-then-free
/// release does: both readers see the publication, one frees it, and the
/// other then frees nothing and skips its underlying release.
pub fn colliding_readers_release_together() {
    let lock = primed_one_slot_lock(WaitMode::Park);
    let (turns, key) = (WaitStrategy::park(), 0x70ce_f4eeusize);
    let stage = Arc::new(AtomicU64::new(0));
    let fast = {
        let (lock, stage) = (Arc::clone(&lock), Arc::clone(&stage));
        schedcheck::spawn(move || {
            assert!(lock.read_lock(), "the slot is free");
            stage.store(1, Ordering::SeqCst);
            turns.notify_all(key);
            turns.wait_until(key, || stage.load(Ordering::SeqCst) == 2);
            lock.read_unlock();
        })
    };
    let slow = {
        let (lock, stage) = (Arc::clone(&lock), Arc::clone(&stage));
        schedcheck::spawn(move || {
            turns.wait_until(key, || stage.load(Ordering::SeqCst) == 1);
            assert!(!lock.read_lock(), "the only slot is taken");
            stage.store(2, Ordering::SeqCst);
            turns.notify_all(key);
            lock.read_unlock();
        })
    };
    fast.join();
    slow.join();
    spawn_writer(&lock).join();
}

/// A fast reader holds its slot, and only then does a writer revoke: its
/// scan finds the slot and, in park or futex mode, it may park on it. The
/// reader's release must wake it, or the writer sleeps forever.
pub fn revoker_parked_on_a_fast_reader(mode: WaitMode) {
    let lock = primed_one_slot_lock(mode);
    let (turns, key) = (WaitStrategy::park(), 0x5107_f457usize);
    let held = Arc::new(AtomicU64::new(0));
    let reader = {
        let (lock, held) = (Arc::clone(&lock), Arc::clone(&held));
        schedcheck::spawn(move || {
            assert!(lock.read_lock(), "bias is primed and the slot is free");
            held.store(1, Ordering::SeqCst);
            turns.notify_all(key);
            lock.read_unlock();
        })
    };
    let writer = {
        let (lock, held) = (Arc::clone(&lock), Arc::clone(&held));
        schedcheck::spawn(move || {
            turns.wait_until(key, || held.load(Ordering::SeqCst) == 1);
            lock.write_lock();
            lock.write_unlock();
        })
    };
    reader.join();
    writer.join();
}
