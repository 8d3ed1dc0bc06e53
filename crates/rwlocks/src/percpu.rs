//! The Per-CPU ("big-reader" / brlock-style) reader-writer lock.

use bravo::wait::WaitMode;
use bravo::{RawRwLock, RawTryRwLock, TryLockError};
use topology::CachePadded;

use crate::pf_q::PhaseFairQueueLock;

/// An array-of-locks reader-writer lock, one sub-lock per logical CPU.
///
/// This reproduces the "Per-CPU" baseline of the paper: "a lock that
/// consists of an array of BA locks, one for each CPU, where readers acquire
/// read-permission on the sub-lock associated with their CPU, and writers
/// acquire write-permission on all the sub-locks", inspired by the Linux
/// kernel brlock. Readers on different CPUs never touch the same cache line,
/// so read scalability is essentially perfect — but each lock instance costs
/// `128 bytes × logical CPUs` (9216 bytes on the paper's 72-way box) and
/// writers pay a full sweep of the array.
///
/// The sub-lock type defaults to [`PhaseFairQueueLock`] ("BA"), matching the
/// paper's construction, but any [`RawRwLock`] works.
///
/// A read is released on the calling thread's CPU, so the lock is not
/// [`AnonymousReaders`](bravo::AnonymousReaders) and BRAVO cannot wrap it:
///
/// ```compile_fail,E0277
/// let _ = bravo::BravoLock::<rwlocks::PerCpuRwLock>::new();
/// ```
pub struct PerCpuRwLock<R: RawRwLock = PhaseFairQueueLock> {
    sublocks: Box<[CachePadded<R>]>,
}

impl<R: RawRwLock> PerCpuRwLock<R> {
    /// Creates a per-CPU lock sized for the simulated machine.
    pub fn for_machine() -> Self {
        Self::with_cpus(topology::logical_cpus())
    }

    /// Creates a per-CPU lock with an explicit number of sub-locks.
    pub fn with_cpus(cpus: usize) -> Self {
        Self::with_cpus_and_wait(cpus, WaitMode::Spin)
    }

    /// Creates a per-CPU lock whose sub-locks use the given wait mode.
    pub fn with_cpus_and_wait(cpus: usize, mode: WaitMode) -> Self {
        let cpus = cpus.max(1);
        Self {
            sublocks: (0..cpus)
                .map(|_| CachePadded::new(R::with_wait(mode)))
                .collect(),
        }
    }

    /// Number of sub-locks (one per logical CPU).
    pub fn cpus(&self) -> usize {
        self.sublocks.len()
    }

    fn my_sublock(&self) -> &R {
        &self.sublocks[topology::current_cpu() % self.sublocks.len()]
    }
}

impl<R: RawRwLock> RawRwLock for PerCpuRwLock<R> {
    fn new() -> Self {
        Self::for_machine()
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self::with_cpus_and_wait(topology::logical_cpus(), mode)
    }

    fn lock_shared(&self) {
        self.my_sublock().lock_shared();
    }

    fn unlock_shared(&self) {
        // The simulated topology pins a thread to one CPU for its lifetime,
        // so the sub-lock addressed here is the one `lock_shared` used.
        self.my_sublock().unlock_shared();
    }

    fn lock_exclusive(&self) {
        // Writers sweep the whole array in index order. Consistent ordering
        // across writers prevents deadlock among concurrent writers.
        for sub in self.sublocks.iter() {
            sub.lock_exclusive();
        }
    }

    fn unlock_exclusive(&self) {
        for sub in self.sublocks.iter().rev() {
            sub.unlock_exclusive();
        }
    }

    fn name() -> &'static str {
        "Per-CPU"
    }
}

impl<R: RawTryRwLock> RawTryRwLock for PerCpuRwLock<R> {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        self.my_sublock().try_lock_shared()
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        for (i, sub) in self.sublocks.iter().enumerate() {
            if sub.try_lock_exclusive().is_err() {
                // Roll back the prefix we already own.
                for owned in self.sublocks[..i].iter() {
                    owned.unlock_exclusive();
                }
                return Err(TryLockError::WouldBlock);
            }
        }
        Ok(())
    }
}

impl<R: RawRwLock> Default for PerCpuRwLock<R> {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl<R: RawRwLock> std::fmt::Debug for PerCpuRwLock<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerCpuRwLock")
            .field("cpus", &self.cpus())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{
        exclusion_torture, mixed_torture, read_concurrency_smoke, try_lock_matrix,
    };

    type PerCpu = PerCpuRwLock<PhaseFairQueueLock>;

    #[test]
    fn basic_semantics() {
        try_lock_matrix::<PerCpu>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<PerCpu>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<PerCpu>(4, 500);
    }

    #[test]
    fn mixed_readers_and_writers() {
        mixed_torture::<PerCpu>(4, 500);
    }

    #[test]
    fn writer_excludes_reader_on_every_cpu() {
        let l = PerCpu::with_cpus(4);
        l.lock_exclusive();
        // No reader may enter on any sub-lock while the writer holds all of
        // them; this thread's try maps to one sub-lock, which is locked.
        assert!(l.try_lock_shared().is_err());
        l.unlock_exclusive();
        assert!(l.try_lock_shared().is_ok());
        l.unlock_shared();
    }

    #[test]
    fn try_write_rolls_back_cleanly() {
        let l = PerCpu::with_cpus(4);
        l.lock_shared();
        assert!(l.try_lock_exclusive().is_err());
        l.unlock_shared();
        // All sub-locks must have been released by the rollback.
        assert!(l.try_lock_exclusive().is_ok());
        l.unlock_exclusive();
    }

    #[test]
    fn footprint_grows_with_cpu_count() {
        let small = PerCpu::with_cpus(2);
        let large = PerCpu::with_cpus(64);
        assert_eq!(small.cpus(), 2);
        assert_eq!(large.cpus(), 64);
        assert!(
            crate::footprint::dynamic_footprint(&large)
                > crate::footprint::dynamic_footprint(&small)
        );
    }
}
