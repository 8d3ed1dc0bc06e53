//! A task-fair (FIFO) reader-writer lock in the Mellor-Crummey–Scott style.

use std::sync::atomic::{AtomicU64, Ordering};

use bravo::wait::{WaitMode, WaitStrategy};
use bravo::{AnonymousReaders, RawRwLock, RawTryRwLock, TryLockError};

use crate::mutex::{RawMutex, TicketMutex};

/// A task-fair reader-writer lock: requests are honoured strictly in arrival
/// order, with consecutive readers admitted concurrently.
///
/// The paper mentions evaluating the "fair lock with local only spinning" of
/// Mellor-Crummey and Scott and finding it comparable to (or slower than)
/// PF-Q; it is included here both for completeness of the baseline set and
/// because task-fair admission is a useful property test target.
///
/// The construction is the classic entry-lock formulation: every arrival
/// (reader or writer) passes through a FIFO ticket lock; readers release the
/// entry lock immediately after registering in the central reader counter
/// (so a batch of consecutive readers overlaps), while a writer holds the
/// entry lock for its whole critical section and first drains active
/// readers. Arrival order is therefore preserved exactly. Waiting uses the
/// entry lock's global-spinning discipline rather than MCS-local spinning;
/// see the note on [`PhaseFairQueueLock`](crate::PhaseFairQueueLock) for why
/// this simplification does not affect the BRAVO experiments.
pub struct FairRwLock {
    entry: TicketMutex,
    active_readers: AtomicU64,
    wait: WaitStrategy,
}

impl FairRwLock {
    #[inline]
    fn key(&self) -> usize {
        self as *const Self as usize
    }
}

impl RawRwLock for FairRwLock {
    fn new() -> Self {
        Self::with_wait(WaitMode::Spin)
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self {
            entry: TicketMutex::with_wait(mode),
            active_readers: AtomicU64::new(0),
            wait: WaitStrategy::new(mode),
        }
    }

    fn lock_shared(&self) {
        self.entry.lock();
        self.active_readers.fetch_add(1, Ordering::Acquire);
        self.entry.unlock();
    }

    fn unlock_shared(&self) {
        let prev = self.active_readers.fetch_sub(1, Ordering::Release);
        debug_assert_ne!(prev, 0, "unlock_shared with no active readers");
        // The writer holds the entry lock while draining, so no new readers
        // can register: the last departure is the event it waits on.
        if prev == 1 {
            self.wait.notify_all(self.key());
        }
    }

    fn lock_exclusive(&self) {
        self.entry.lock();
        self.wait.wait_until(self.key(), || {
            self.active_readers.load(Ordering::Acquire) == 0
        });
    }

    fn unlock_exclusive(&self) {
        self.entry.unlock();
    }

    fn name() -> &'static str {
        "MCS-fair"
    }
}

impl AnonymousReaders for FairRwLock {}

impl RawTryRwLock for FairRwLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        if !self.entry.try_lock() {
            return Err(TryLockError::WouldBlock);
        }
        self.active_readers.fetch_add(1, Ordering::Acquire);
        self.entry.unlock();
        Ok(())
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        if !self.entry.try_lock() {
            return Err(TryLockError::WouldBlock);
        }
        if self.active_readers.load(Ordering::Acquire) != 0 {
            self.entry.unlock();
            return Err(TryLockError::WouldBlock);
        }
        Ok(())
    }
}

impl Default for FairRwLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for FairRwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairRwLock")
            .field(
                "active_readers",
                &self.active_readers.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{
        exclusion_torture, mixed_torture, read_concurrency_smoke, try_lock_matrix,
    };

    #[test]
    fn basic_semantics() {
        try_lock_matrix::<FairRwLock>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<FairRwLock>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<FairRwLock>(4, 2_000);
    }

    #[test]
    fn mixed_readers_and_writers() {
        mixed_torture::<FairRwLock>(4, 1_000);
    }

    #[test]
    fn writer_blocks_until_readers_drain() {
        let l = FairRwLock::new();
        l.lock_shared();
        assert!(l.try_lock_exclusive().is_err());
        l.unlock_shared();
        assert!(l.try_lock_exclusive().is_ok());
        // A reader arriving behind an active writer is refused.
        assert!(l.try_lock_shared().is_err());
        l.unlock_exclusive();
    }
}
