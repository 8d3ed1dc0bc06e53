//! A blocking reader-writer lock mimicking the default glibc
//! `pthread_rwlock_t` behaviour described in §5 of the paper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use bravo::{AnonymousReaders, RawRwLock, RawTryRwLock, TryLockError};

/// A reader-preference, blocking reader-writer lock — the "pthread" baseline.
///
/// The paper characterizes the distribution-default `pthread_rwlock` as
/// having: a centralized reader indicator, *strong reader preference* (a
/// steady stream of readers can starve writers indefinitely), and waiters
/// that "block immediately in the kernel without spinning". This type
/// reproduces those properties with a mutex + two condition variables; the
/// uncontended reader path additionally keeps a lock-free counter so that
/// reader arrival still costs one atomic RMW on a shared line, like glibc's
/// `__readers` futex word.
pub struct PthreadRwLock {
    /// Fast-path word: bit 63 = writer active, low bits = active readers.
    state: AtomicU64,
    /// Slow path for blocking and wakeup.
    inner: Mutex<Waiters>,
    readers_cv: Condvar,
    writers_cv: Condvar,
}

#[derive(Default)]
struct Waiters {
    waiting_readers: u64,
    waiting_writers: u64,
}

const WRITER: u64 = 1 << 63;
const READERS: u64 = WRITER - 1;

impl PthreadRwLock {
    /// Lock-free reader admission; shared by the blocking and try paths.
    fn acquire_shared_fast(&self) -> bool {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur & WRITER != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Lock-free writer admission; shared by the blocking and try paths.
    fn acquire_exclusive_fast(&self) -> bool {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }
}

impl RawRwLock for PthreadRwLock {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
            inner: Mutex::new(Waiters::default()),
            readers_cv: Condvar::new(),
            writers_cv: Condvar::new(),
        }
    }

    fn lock_shared(&self) {
        // Reader preference: a reader is admitted whenever no writer is
        // *active*, regardless of waiting writers.
        if self.acquire_shared_fast() {
            return;
        }
        let mut inner = self.inner.lock().expect("pthread-like lock poisoned");
        loop {
            if self.acquire_shared_fast() {
                return;
            }
            inner.waiting_readers += 1;
            inner = self
                .readers_cv
                .wait(inner)
                .expect("pthread-like lock poisoned");
            inner.waiting_readers -= 1;
        }
    }

    fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert_ne!(prev & READERS, 0, "unlock_shared with no readers");
        if prev & READERS == 1 {
            // Last reader out: wake one waiting writer, if any.
            let inner = self.inner.lock().expect("pthread-like lock poisoned");
            if inner.waiting_writers > 0 {
                self.writers_cv.notify_one();
            }
        }
    }

    fn lock_exclusive(&self) {
        if self.acquire_exclusive_fast() {
            return;
        }
        let mut inner = self.inner.lock().expect("pthread-like lock poisoned");
        loop {
            if self.acquire_exclusive_fast() {
                return;
            }
            inner.waiting_writers += 1;
            inner = self
                .writers_cv
                .wait(inner)
                .expect("pthread-like lock poisoned");
            inner.waiting_writers -= 1;
        }
    }

    fn unlock_exclusive(&self) {
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert_ne!(prev & WRITER, 0, "unlock_exclusive with no writer");
        // Reader preference on wakeup as well: wake all readers first; only
        // if none are waiting, hand the lock to a writer.
        let inner = self.inner.lock().expect("pthread-like lock poisoned");
        if inner.waiting_readers > 0 {
            self.readers_cv.notify_all();
        } else if inner.waiting_writers > 0 {
            self.writers_cv.notify_one();
        }
    }

    fn name() -> &'static str {
        "pthread"
    }
}

impl AnonymousReaders for PthreadRwLock {}

impl RawTryRwLock for PthreadRwLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        if self.acquire_shared_fast() {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        if self.acquire_exclusive_fast() {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }
}

impl Default for PthreadRwLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for PthreadRwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.load(Ordering::Relaxed);
        f.debug_struct("PthreadRwLock")
            .field("writer", &(s & WRITER != 0))
            .field("readers", &(s & READERS))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{
        exclusion_torture, mixed_torture, read_concurrency_smoke, try_lock_matrix,
    };
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn basic_semantics() {
        try_lock_matrix::<PthreadRwLock>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<PthreadRwLock>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<PthreadRwLock>(4, 2_000);
    }

    #[test]
    fn mixed_readers_and_writers() {
        mixed_torture::<PthreadRwLock>(4, 1_000);
    }

    #[test]
    fn reader_preference_admits_readers_past_waiting_writers() {
        // Unlike the phase-fair locks, a *new* reader is admitted even while
        // a writer is blocked waiting — the glibc default the paper calls
        // out as admitting writer starvation.
        let l = Arc::new(PthreadRwLock::new());
        l.lock_shared();
        let writer_in = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let l2 = Arc::clone(&l);
            let wi = Arc::clone(&writer_in);
            s.spawn(move || {
                l2.lock_exclusive();
                wi.store(true, Ordering::SeqCst);
                l2.unlock_exclusive();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!writer_in.load(Ordering::SeqCst));
            assert!(
                l.try_lock_shared().is_ok(),
                "reader-preference lock refused a reader while only a writer waits"
            );
            l.unlock_shared();
            l.unlock_shared();
        });
        assert!(writer_in.load(Ordering::SeqCst));
    }

    #[test]
    fn blocked_writer_eventually_runs() {
        let l = Arc::new(PthreadRwLock::new());
        l.lock_shared();
        let writer_in = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let l2 = Arc::clone(&l);
            let wi = Arc::clone(&writer_in);
            s.spawn(move || {
                l2.lock_exclusive();
                wi.store(true, Ordering::SeqCst);
                l2.unlock_exclusive();
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            l.unlock_shared();
        });
        assert!(writer_in.load(Ordering::SeqCst));
    }
}
