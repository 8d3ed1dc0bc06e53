//! The interface BRAVO expects from an underlying reader-writer lock, plus a
//! minimal default implementation.

use crate::sync::atomic::{AtomicUsize, Ordering};

use crate::wait::{WaitMode, WaitStrategy};

/// Why a non-blocking acquisition did not grant permission.
///
/// Capability lives in the types: only a [`RawTryRwLock`] has try
/// operations, so the one reason left for a refusal is contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryLockError {
    /// The permission is held incompatibly right now; retrying can succeed.
    WouldBlock,
}

impl std::fmt::Display for TryLockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryLockError::WouldBlock => f.write_str("lock is held; acquisition would block"),
        }
    }
}

impl std::error::Error for TryLockError {}

/// A raw reader-writer lock, the "underlying lock `A`" of the paper.
///
/// The trait is deliberately minimal: the four blocking acquire / release
/// entry points. Locks that additionally offer non-blocking acquisition
/// implement [`RawTryRwLock`] on top. Implementations must provide the
/// usual reader-writer semantics — any number of concurrent shared holders
/// *or* a single exclusive holder — and must be usable from any thread
/// (`Send + Sync`).
///
/// Calling a release function without holding the corresponding permission is
/// a logic error. Implementations are encouraged to panic (at least in debug
/// builds) rather than silently corrupt their state, but callers must not
/// rely on any particular behaviour. The data-carrying wrapper
/// [`crate::BravoRwLock`] makes misuse impossible by tying releases to RAII
/// guards.
pub trait RawRwLock: Send + Sync {
    /// Creates a new, unlocked lock.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates a new, unlocked lock that waits in the given mode (the
    /// `wait=spin|park` spec knob).
    ///
    /// The default ignores the mode and returns [`new`](RawRwLock::new):
    /// correct for locks whose waiting is already blocking (a
    /// condvar-based lock) or delegated elsewhere. Spinning locks override
    /// this to route their wait loops through a [`WaitStrategy`].
    fn with_wait(mode: WaitMode) -> Self
    where
        Self: Sized,
    {
        let _ = mode;
        Self::new()
    }

    /// Acquires shared (read) permission, blocking until it is granted.
    fn lock_shared(&self);

    /// Releases shared permission previously obtained by [`lock_shared`] or
    /// a successful [`RawTryRwLock::try_lock_shared`].
    ///
    /// Two rules hold for every lock, because a [`crate::BravoLock`] relies
    /// on them:
    ///
    /// * the thread that acquired a read releases it;
    /// * a BRAVO table slot is a pure function of (lock, thread id), so a
    ///   thread id must never be reused while its thread holds a read.
    ///
    /// [`lock_shared`]: RawRwLock::lock_shared
    fn unlock_shared(&self);

    /// Acquires exclusive (write) permission, blocking until it is granted.
    fn lock_exclusive(&self);

    /// Releases exclusive permission previously obtained by
    /// [`lock_exclusive`] or a successful
    /// [`RawTryRwLock::try_lock_exclusive`].
    ///
    /// [`lock_exclusive`]: RawRwLock::lock_exclusive
    fn unlock_exclusive(&self);

    /// A short human-readable name used by the benchmark harness when
    /// labelling result series (e.g. `"BA"`, `"pthread"`).
    fn name() -> &'static str
    where
        Self: Sized,
    {
        std::any::type_name::<Self>()
    }
}

/// The non-blocking half of a reader-writer lock.
///
/// Separated from [`RawRwLock`] so that harness code which *needs* try
/// operations says so in its bounds, and locks without a usable try path
/// simply do not implement the trait instead of lying at run time.
pub trait RawTryRwLock: RawRwLock {
    /// Attempts to acquire shared permission without blocking indefinitely.
    fn try_lock_shared(&self) -> Result<(), TryLockError>;

    /// Attempts to acquire exclusive permission without blocking
    /// indefinitely.
    ///
    /// Implementations may perform a short bounded wait (e.g. a revocation
    /// with a deadline) but must not block without bound.
    fn try_lock_exclusive(&self) -> Result<(), TryLockError>;
}

/// A [`RawRwLock`] whose read holds are anonymous: whichever thread calls
/// [`unlock_shared`](RawRwLock::unlock_shared), the same reader count goes
/// down.
///
/// [`BravoLock`](crate::BravoLock) requires this of its underlying lock.
/// Its read release re-derives the calling thread's table slot, and a slow
/// reader whose slot collides with a fast reader of the same lock may free
/// that reader's publication and keep its own count, which the fast reader
/// then releases. Locks whose read release depends on the calling thread
/// (Cohort-RW's per-node indicators, the Per-CPU lock's sub-locks, BRAVO
/// itself) do not implement it, so BRAVO cannot be built over them.
pub trait AnonymousReaders: RawRwLock {}

/// A minimal centralized spin reader-writer lock.
///
/// This is the "simple compact lock that suffers under high levels of reader
/// concurrency" the paper keeps referring to: a single word holding the
/// number of active readers, with the high bit doubling as the writer flag.
/// Arriving writers set a pending bit so that a stream of readers cannot
/// starve them forever, then wait for the reader count to drain.
///
/// It is the default underlying lock of [`crate::BravoRwLock`] so that the
/// core crate is usable on its own; the richer lock zoo lives in the
/// `rwlocks` crate.
pub struct DefaultRwLock {
    /// Top bit: writer active. Next bit: writer pending. Low bits: reader count.
    state: AtomicUsize,
    wait: WaitStrategy,
}

impl DefaultRwLock {
    /// Wait-queue key: readers and writers of this lock share one bucket.
    #[inline]
    fn key(&self) -> usize {
        self as *const Self as usize
    }
}

const WRITER: usize = 1 << (usize::BITS - 1);
const WRITER_PENDING: usize = 1 << (usize::BITS - 2);
const READER: usize = 1;
const READER_MASK: usize = WRITER_PENDING - 1;

impl RawRwLock for DefaultRwLock {
    fn new() -> Self {
        Self::with_wait(WaitMode::Spin)
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self {
            state: AtomicUsize::new(0),
            wait: WaitStrategy::new(mode),
        }
    }

    fn lock_shared(&self) {
        loop {
            if self.try_lock_shared().is_ok() {
                return;
            }
            self.wait.wait_until(self.key(), || {
                self.state.load(Ordering::Relaxed) & (WRITER | WRITER_PENDING) == 0
            });
        }
    }

    fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(READER, Ordering::Release);
        debug_assert!(
            prev & READER_MASK != 0,
            "unlock_shared without a shared holder"
        );
        // The departure of the last reader is what a draining writer waits
        // for (it holds WRITER_PENDING throughout its drain).
        if prev & READER_MASK == READER && prev & WRITER_PENDING != 0 {
            self.wait.notify_all(self.key());
        }
    }

    fn lock_exclusive(&self) {
        // Announce intent so readers stop streaming in, then wait for the
        // reader count to drain and grab the writer bit.
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & (WRITER | WRITER_PENDING) == 0 {
                if self
                    .state
                    .compare_exchange_weak(
                        cur,
                        cur | WRITER_PENDING,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    break;
                }
            } else {
                self.wait.wait_until(self.key(), || {
                    self.state.load(Ordering::Relaxed) & (WRITER | WRITER_PENDING) == 0
                });
            }
        }
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & READER_MASK == 0 {
                if self
                    .state
                    .compare_exchange_weak(
                        cur,
                        (cur & !WRITER_PENDING) | WRITER,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
            } else {
                self.wait.wait_until(self.key(), || {
                    self.state.load(Ordering::Relaxed) & READER_MASK == 0
                });
            }
        }
    }

    fn unlock_exclusive(&self) {
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert!(
            prev & WRITER != 0,
            "unlock_exclusive without the exclusive holder"
        );
        // Wakes both readers and phase-one writers waiting for the word to
        // clear.
        self.wait.notify_all(self.key());
    }

    fn name() -> &'static str {
        "default-spin"
    }
}

impl AnonymousReaders for DefaultRwLock {}

impl RawTryRwLock for DefaultRwLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur & (WRITER | WRITER_PENDING) != 0 {
                return Err(TryLockError::WouldBlock);
            }
            debug_assert!(cur & READER_MASK < READER_MASK, "reader count overflow");
            match self.state.compare_exchange_weak(
                cur,
                cur + READER,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .map(|_| ())
            .map_err(|_| TryLockError::WouldBlock)
    }
}

impl Default for DefaultRwLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for DefaultRwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.load(Ordering::Relaxed);
        f.debug_struct("DefaultRwLock")
            .field("writer", &(s & WRITER != 0))
            .field("writer_pending", &(s & WRITER_PENDING != 0))
            .field("readers", &(s & READER_MASK))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn shared_then_exclusive_round_trip() {
        let l = DefaultRwLock::new();
        l.lock_shared();
        l.lock_shared();
        l.unlock_shared();
        l.unlock_shared();
        l.lock_exclusive();
        l.unlock_exclusive();
    }

    #[test]
    fn try_lock_respects_exclusivity() {
        let l = DefaultRwLock::new();
        l.lock_exclusive();
        assert_eq!(l.try_lock_shared(), Err(TryLockError::WouldBlock));
        assert_eq!(l.try_lock_exclusive(), Err(TryLockError::WouldBlock));
        l.unlock_exclusive();
        assert!(l.try_lock_shared().is_ok());
        assert_eq!(l.try_lock_exclusive(), Err(TryLockError::WouldBlock));
        l.unlock_shared();
        assert!(l.try_lock_exclusive().is_ok());
        l.unlock_exclusive();
    }

    #[test]
    fn readers_are_admitted_concurrently() {
        let l = DefaultRwLock::new();
        l.lock_shared();
        assert!(
            l.try_lock_shared().is_ok(),
            "second reader must be admitted"
        );
        l.unlock_shared();
        l.unlock_shared();
    }

    #[test]
    fn writers_are_mutually_exclusive_under_contention() {
        let lock = Arc::new(DefaultRwLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    lock.lock_exclusive();
                    // Non-atomic-looking increment under the lock: any
                    // exclusion violation shows up as a lost update.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.unlock_exclusive();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn park_mode_round_trips_and_excludes() {
        let lock = Arc::new(DefaultRwLock::with_wait(WaitMode::Park));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..500 {
                        lock.lock_exclusive();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.unlock_exclusive();
                        lock.lock_shared();
                        lock.unlock_shared();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn pending_writer_blocks_new_readers() {
        let l = Arc::new(DefaultRwLock::new());
        l.lock_shared();
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            l2.lock_exclusive();
            l2.unlock_exclusive();
        });
        // Give the writer time to set its pending bit, then confirm a new
        // reader is refused until the writer completes.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            l.try_lock_shared().is_err(),
            "reader admitted past a pending writer"
        );
        l.unlock_shared();
        writer.join().unwrap();
        assert!(l.try_lock_shared().is_ok());
        l.unlock_shared();
    }
}
