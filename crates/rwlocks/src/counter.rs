//! The classic centralized-counter reader-writer lock.

use bravo::sync::atomic::{AtomicU64, Ordering};

use bravo::wait::{WaitMode, WaitStrategy};
use bravo::{AnonymousReaders, RawRwLock, RawTryRwLock, TryLockError};

/// A compact reader-writer lock with a single central reader counter.
///
/// This is the family of locks the paper describes as having "a compact
/// memory representation for active readers" that "suffers under high
/// intensity read-dominated workloads": every read acquisition and release
/// performs an atomic read-modify-write on the same word, so concurrent
/// readers on different cores fight over one cache line.
///
/// Writers announce themselves with a pending bit (so a stream of readers
/// cannot starve them indefinitely), wait for active readers to drain, and
/// then hold the word exclusively.
///
/// Layout of the state word:
///
/// ```text
/// | writer active (1) | writer pending (1) | active readers (62) |
/// ```
pub struct CounterRwLock {
    state: AtomicU64,
    wait: WaitStrategy,
}

const WRITER: u64 = 1 << 63;
const PENDING: u64 = 1 << 62;
const READER: u64 = 1;
const READERS: u64 = PENDING - 1;

impl CounterRwLock {
    #[inline]
    fn key(&self) -> usize {
        self as *const Self as usize
    }
}

impl RawRwLock for CounterRwLock {
    fn new() -> Self {
        Self::with_wait(WaitMode::Spin)
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self {
            state: AtomicU64::new(0),
            wait: WaitStrategy::new(mode),
        }
    }

    fn lock_shared(&self) {
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & (WRITER | PENDING) == 0 {
                if self
                    .state
                    .compare_exchange_weak(cur, cur + READER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else {
                self.wait.wait_until(self.key(), || {
                    self.state.load(Ordering::Relaxed) & (WRITER | PENDING) == 0
                });
            }
        }
    }

    fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(READER, Ordering::Release);
        debug_assert_ne!(
            prev & READERS,
            0,
            "unlock_shared on a CounterRwLock with no readers"
        );
        // The departure of the last reader is what a pending writer's
        // phase-2 drain waits on.
        if prev & READERS == READER && prev & PENDING != 0 {
            self.wait.notify_all(self.key());
        }
    }

    fn lock_exclusive(&self) {
        // Phase 1: claim the pending bit (only one writer may own it).
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & (WRITER | PENDING) == 0 {
                if self
                    .state
                    .compare_exchange_weak(cur, cur | PENDING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    break;
                }
            } else {
                self.wait.wait_until(self.key(), || {
                    self.state.load(Ordering::Relaxed) & (WRITER | PENDING) == 0
                });
            }
        }
        // Phase 2: wait for readers to drain, then convert pending → active.
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & READERS == 0 {
                if self
                    .state
                    .compare_exchange_weak(
                        cur,
                        (cur & !PENDING) | WRITER,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
            } else {
                self.wait.wait_until(self.key(), || {
                    self.state.load(Ordering::Relaxed) & READERS == 0
                });
            }
        }
    }

    fn unlock_exclusive(&self) {
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert_ne!(
            prev & WRITER,
            0,
            "unlock_exclusive on a CounterRwLock with no writer"
        );
        self.wait.notify_all(self.key());
    }

    fn name() -> &'static str {
        "counter"
    }
}

impl AnonymousReaders for CounterRwLock {}

impl RawTryRwLock for CounterRwLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        let cur = self.state.load(Ordering::Relaxed);
        if cur & (WRITER | PENDING) == 0
            && self
                .state
                .compare_exchange(cur, cur + READER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .map(|_| ())
            .map_err(|_| TryLockError::WouldBlock)
    }
}

impl Default for CounterRwLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for CounterRwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.load(Ordering::Relaxed);
        f.debug_struct("CounterRwLock")
            .field("writer", &(s & WRITER != 0))
            .field("pending", &(s & PENDING != 0))
            .field("readers", &(s & READERS))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{exclusion_torture, read_concurrency_smoke, try_lock_matrix};

    #[test]
    fn basic_semantics() {
        try_lock_matrix::<CounterRwLock>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<CounterRwLock>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<CounterRwLock>(4, 2_000);
    }

    #[test]
    fn pending_writer_gates_new_readers() {
        let l = CounterRwLock::new();
        l.lock_shared();
        std::thread::scope(|s| {
            s.spawn(|| {
                l.lock_exclusive();
                l.unlock_exclusive();
            });
            // Wait for the writer to set its pending bit.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                l.try_lock_shared().is_err(),
                "reader admitted past a pending writer"
            );
            l.unlock_shared();
        });
        assert!(l.try_lock_shared().is_ok());
        l.unlock_shared();
    }

    #[test]
    fn footprint_is_two_words() {
        // One state word plus the (padded) wait-strategy byte.
        assert_eq!(std::mem::size_of::<CounterRwLock>(), 16);
    }

    #[test]
    fn park_mode_writers_exclude_each_other() {
        let l = std::sync::Arc::new(CounterRwLock::with_wait(WaitMode::Park));
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = std::sync::Arc::clone(&l);
                let counter = std::sync::Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        l.lock_exclusive();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        l.unlock_exclusive();
                        l.lock_shared();
                        let _ = counter.load(Ordering::Relaxed);
                        l.unlock_shared();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
    }
}
