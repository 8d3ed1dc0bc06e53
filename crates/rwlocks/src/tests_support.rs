//! Shared concurrency-test helpers used by every lock module in this crate.

use bravo::{RawRwLock, RawTryRwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Uncontended lock/try-lock state machine checks every lock must pass.
pub fn try_lock_matrix<L: RawTryRwLock>() {
    let l = L::new();
    // read blocks write, allows read
    l.lock_shared();
    assert!(l.try_lock_exclusive().is_err());
    assert!(l.try_lock_shared().is_ok());
    l.unlock_shared();
    l.unlock_shared();
    // write blocks both
    l.lock_exclusive();
    assert!(l.try_lock_shared().is_err());
    assert!(l.try_lock_exclusive().is_err());
    l.unlock_exclusive();
    // free again
    assert!(l.try_lock_exclusive().is_ok());
    l.unlock_exclusive();
    assert!(l.try_lock_shared().is_ok());
    l.unlock_shared();
}

/// Two readers on different threads must both be inside the critical
/// section at the same time.
pub fn read_concurrency_smoke<L: RawTryRwLock + 'static>() {
    let l = Arc::new(L::new());
    l.lock_shared();
    let l2 = Arc::clone(&l);
    let other = std::thread::spawn(move || {
        assert!(
            l2.try_lock_shared().is_ok(),
            "second concurrent reader was refused"
        );
        l2.unlock_shared();
    });
    other.join().unwrap();
    l.unlock_shared();
}

/// Writers increment a counter non-atomically under the write lock; any
/// exclusion failure manifests as lost updates.
pub fn exclusion_torture<L: RawRwLock + 'static>(threads: usize, iters: u64) {
    let l = Arc::new(L::new());
    let counter = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let l = Arc::clone(&l);
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for _ in 0..iters {
                    l.lock_exclusive();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    l.unlock_exclusive();
                }
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), threads as u64 * iters);
}

/// Mixed readers and writers: writers keep two counters equal, readers
/// assert they never observe them out of sync.
pub fn mixed_torture<L: RawRwLock + 'static>(threads: usize, iters: u64) {
    let l = Arc::new(L::new());
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..threads {
            let l = Arc::clone(&l);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            s.spawn(move || {
                for i in 0..iters {
                    if t == 0 || i % 64 == 0 {
                        l.lock_exclusive();
                        a.store(a.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        l.unlock_exclusive();
                    } else {
                        l.lock_shared();
                        let av = a.load(Ordering::Relaxed);
                        let bv = b.load(Ordering::Relaxed);
                        assert_eq!(av, bv, "reader observed a torn update");
                        l.unlock_shared();
                    }
                }
            });
        }
    });
    assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
}
