//! The BRAVO patch applied to the simulated rwsem (§4 of the paper).
//!
//! The patch is the user-space transformation itself: [`BravoRwSemaphore`]
//! is [`BravoLock`] over [`RwSemaphore`], so the kernel simulation and the
//! user-space locks run one BRAVO engine. Kernel `up_read` receives no
//! token, and neither does [`BravoLock::read_unlock`]: the slot is
//! re-derived from `(current task, semaphore)` and freed by a
//! compare-exchange from the semaphore's address, or else the underlying
//! `up_read` runs. That is sound here because the task that acquired for
//! read also releases (true of every simulated kernel workload), and the
//! semaphore's reader count is anonymous ([`AnonymousReaders`]), so a
//! colliding slow reader may free a fast reader's slot and leave its own
//! count for that reader to release.

use bravo::{
    AnonymousReaders, BiasPolicy, BravoLock, RawRwLock, RawTryRwLock, TableHandle, TryLockError,
};

use crate::sem::{RwSemaphore, RwsemConfig};

/// The simulated rwsem with the BRAVO read fast path.
///
/// The integration mirrors the kernel patch the paper describes:
///
/// * Readers whose `RBias` check succeeds hash `(current task, semaphore
///   address)` into the process-global visible readers table and CAS the
///   semaphore's address into the slot; on success they skip the shared
///   count word entirely.
/// * `up_read` re-derives the slot and frees it if it still holds this
///   semaphore's address, falling back to the underlying `up_read`
///   otherwise (see the module docs for why that is sound).
/// * Writers always take the underlying `down_write`, then take the bias
///   away and scan the table if it was set; the inhibit-until policy
///   (`N = 9`) bounds the writer slow-down exactly as in user space.
/// * `down_read_trylock` tries the BRAVO fast path first and then the
///   underlying trylock, the option §3 describes and the kernel patch uses.
///   `down_write_trylock` waits at most
///   [`TRY_WRITE_BUDGET`](bravo::TRY_WRITE_BUDGET) for fast readers
///   to leave.
/// * The underlying semaphore runs with the owner-field fix (readers only
///   set the reader-owned bits when not already set).
///
/// Statistics go to the process totals. The address published in the
/// table is the semaphore's own.
#[derive(Debug)]
#[repr(transparent)]
pub struct BravoRwSemaphore(BravoLock<RwSemaphore>);

impl Default for BravoRwSemaphore {
    fn default() -> Self {
        Self::new()
    }
}

impl BravoRwSemaphore {
    /// Creates a BRAVO-patched semaphore with the paper's default policy.
    pub fn new() -> Self {
        Self::with_policy(BiasPolicy::paper_default())
    }

    /// Creates the control variant used in §6.1: the patch is present but
    /// `RBias` is never set, so the fast path and the table scan never run.
    pub fn with_bias_disabled() -> Self {
        Self::with_policy(BiasPolicy::Disabled)
    }

    /// Creates a BRAVO-patched semaphore with an explicit bias policy.
    pub fn with_policy(policy: BiasPolicy) -> Self {
        Self(BravoLock::with_parts(
            RwSemaphore::with_config(RwsemConfig::bravo_patched()),
            TableHandle::global(),
            policy,
        ))
    }

    /// The underlying (patched-configuration) rwsem.
    pub fn inner(&self) -> &RwSemaphore {
        self.0.underlying()
    }

    /// Whether reader bias is currently enabled (racy snapshot).
    pub fn is_reader_biased(&self) -> bool {
        self.0.is_reader_biased()
    }

    /// Kernel `down_read` with the BRAVO fast path.
    pub fn down_read(&self) {
        self.0.read_lock();
    }

    /// Kernel `down_read_trylock`: BRAVO fast path first, then the
    /// underlying trylock.
    pub fn down_read_trylock(&self) -> bool {
        self.0.try_read_lock().is_some()
    }

    /// Kernel `up_read`: frees the published slot when the acquisition used
    /// the fast path, otherwise releases the underlying semaphore.
    pub fn up_read(&self) {
        self.0.read_unlock();
    }

    /// Kernel `down_write`; takes the read bias away if it was set.
    pub fn down_write(&self) {
        self.0.write_lock();
    }

    /// Kernel `down_write_trylock`, with a bounded wait for fast readers.
    pub fn down_write_trylock(&self) -> bool {
        self.0.try_write_lock()
    }

    /// Kernel `up_write`.
    pub fn up_write(&self) {
        self.0.write_unlock();
    }
}

/// The rwsem as BRAVO's underlying lock `A`.
impl RawRwLock for RwSemaphore {
    fn new() -> Self {
        RwSemaphore::new()
    }

    fn lock_shared(&self) {
        self.down_read();
    }

    fn unlock_shared(&self) {
        self.up_read();
    }

    fn lock_exclusive(&self) {
        self.down_write();
    }

    fn unlock_exclusive(&self) {
        self.up_write();
    }
}

/// Any task's `up_read` decrements the one count word.
impl AnonymousReaders for RwSemaphore {}

impl RawTryRwLock for RwSemaphore {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        if self.down_read_trylock() {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        if self.down_write_trylock() {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as TestCounter, Ordering};
    use std::sync::Arc;

    #[test]
    fn fast_path_engages_after_first_slow_read() {
        let sem = BravoRwSemaphore::new();
        sem.down_read();
        sem.up_read();
        assert!(sem.is_reader_biased());
        // Second read goes through the table: the underlying reader count
        // must stay zero while it is held.
        sem.down_read();
        assert_eq!(sem.inner().active_readers(), 0);
        sem.up_read();
    }

    #[test]
    fn bias_disabled_variant_never_uses_the_table() {
        let sem = BravoRwSemaphore::with_bias_disabled();
        for _ in 0..5 {
            sem.down_read();
            assert_eq!(sem.inner().active_readers(), 1);
            sem.up_read();
        }
        assert!(!sem.is_reader_biased());
    }

    #[test]
    fn trylock_paths_work_in_both_modes() {
        let sem = BravoRwSemaphore::new();
        assert!(sem.down_read_trylock()); // slow, enables bias
        sem.up_read();
        assert!(sem.down_read_trylock()); // fast
        sem.up_read();
        assert!(sem.down_write_trylock());
        assert!(!sem.down_read_trylock());
        sem.up_write();
    }

    #[test]
    fn exclusion_with_mixed_fast_and_slow_readers() {
        let sem = Arc::new(BravoRwSemaphore::new());
        let value = Arc::new(TestCounter::new(0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let sem = Arc::clone(&sem);
                let value = Arc::clone(&value);
                s.spawn(move || {
                    let mut last = 0;
                    for i in 0..1_000 {
                        if t == 0 && i % 10 == 0 {
                            sem.down_write();
                            let v = value.load(Ordering::Relaxed);
                            value.store(v + 1, Ordering::Relaxed);
                            sem.up_write();
                        } else {
                            sem.down_read();
                            let v = value.load(Ordering::Relaxed);
                            assert!(v >= last, "reader observed time going backwards");
                            last = v;
                            sem.up_read();
                        }
                    }
                });
            }
        });
        assert_eq!(value.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn underlying_config_uses_owner_write_minimization() {
        let sem = BravoRwSemaphore::new();
        assert!(sem.inner().config().minimize_reader_owner_writes);
    }
}
