//! The BRAVO patch applied to the simulated rwsem (§4 of the paper).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bravo::clock::now_ns;
use bravo::policy::BiasPolicy;
use bravo::stats::{SlowReadReason, StatsSink};
use bravo::vrt::{global_table, ReaderTable};

use crate::sem::{RwSemaphore, RwsemConfig};

/// The simulated rwsem with the BRAVO read fast path.
///
/// The integration mirrors the kernel patch the paper describes:
///
/// * Readers whose `RBias` check succeeds hash `(current task, semaphore
///   address)` into the process-global visible readers table and CAS the
///   semaphore's address into the slot; on success they skip the shared
///   count word entirely.
/// * The release side re-derives the slot from the same hash and clears it
///   if it holds this semaphore's address, falling back to the underlying
///   `up_read` otherwise. This relies on the same simplifying assumption the
///   kernel patch makes — the task that acquired for read also releases —
///   which all the simulated kernel workloads satisfy.
/// * Writers always take the underlying `down_write`; if `RBias` was set
///   they revoke it and scan the table, and the inhibit-until policy
///   (`N = 9`) bounds the writer slow-down exactly as in user space.
/// * `down_read_trylock` tries the BRAVO fast path first and then the
///   underlying trylock, the option §3 describes and the kernel patch uses.
/// * The underlying semaphore runs with the owner-field fix (readers only
///   set the reader-owned bits when not already set).
pub struct BravoRwSemaphore {
    rbias: AtomicBool,
    inhibit_until: AtomicU64,
    inner: RwSemaphore,
    policy: BiasPolicy,
}

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
    /// `RBias` is never set, so the fast path and revocation never run.
    pub fn with_bias_disabled() -> Self {
        Self::with_policy(BiasPolicy::Disabled)
    }

    /// Creates a BRAVO-patched semaphore with an explicit bias policy.
    pub fn with_policy(policy: BiasPolicy) -> Self {
        Self {
            rbias: AtomicBool::new(false),
            inhibit_until: AtomicU64::new(0),
            inner: RwSemaphore::with_config(RwsemConfig::bravo_patched()),
            policy,
        }
    }

    /// The underlying (patched-configuration) rwsem.
    pub fn inner(&self) -> &RwSemaphore {
        &self.inner
    }

    /// Whether reader bias is currently enabled (racy snapshot).
    pub fn is_reader_biased(&self) -> bool {
        self.rbias.load(Ordering::Relaxed)
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    fn slot(&self) -> usize {
        // The kernel patch hashes the `current` task pointer with the
        // semaphore address; our task identity is the registered thread id.
        global_table().slot_for(self.addr(), topology::current_thread_id().as_usize())
    }

    /// Kernel `down_read` with the BRAVO fast path.
    pub fn down_read(&self) {
        if let Err(reason) = self.try_fast_read() {
            self.inner.down_read();
            self.slow_read_acquired(reason);
        }
    }

    /// Kernel `down_read_trylock`: BRAVO fast path first, then the
    /// underlying trylock.
    pub fn down_read_trylock(&self) -> bool {
        match self.try_fast_read() {
            Ok(()) => true,
            Err(reason) => {
                let acquired = self.inner.down_read_trylock();
                if acquired {
                    self.slow_read_acquired(reason);
                }
                acquired
            }
        }
    }

    /// The BRAVO fast path. On failure nothing is held, and the error says
    /// why the reader must take the slow path. The flat global table is one
    /// shard, so every event is attributed to shard 0.
    fn try_fast_read(&self) -> Result<(), SlowReadReason> {
        if !self.rbias.load(Ordering::Acquire) {
            return Err(SlowReadReason::BiasDisabled);
        }
        let table = global_table();
        let slot = self.slot();
        if !table.try_publish(slot, self.addr()) {
            return Err(SlowReadReason::Collision { shard: 0 });
        }
        // SeqCst CAS + SeqCst re-check form the store-load fence against the
        // writer's clear-then-scan.
        if self.rbias.load(Ordering::SeqCst) {
            StatsSink::Global.record_fast_read_in(0);
            return Ok(());
        }
        table.clear(slot, self.addr());
        Err(SlowReadReason::Raced)
    }

    fn slow_read_acquired(&self, reason: SlowReadReason) {
        self.maybe_enable_bias();
        StatsSink::Global.record_slow_read(reason);
    }

    fn maybe_enable_bias(&self) {
        if !self.rbias.load(Ordering::Relaxed)
            && self
                .policy
                .should_enable(now_ns(), self.inhibit_until.load(Ordering::Relaxed))
        {
            self.rbias.store(true, Ordering::Release);
            StatsSink::Global.record_bias_enabled();
        }
    }

    /// Kernel `up_read`: clears the published slot when the acquisition used
    /// the fast path, otherwise releases the underlying semaphore.
    pub fn up_read(&self) {
        let table = global_table();
        let slot = self.slot();
        if table.peek(slot) == self.addr() {
            table.clear(slot, self.addr());
        } else {
            self.inner.up_read();
        }
    }

    /// Kernel `down_write` with bias revocation.
    pub fn down_write(&self) {
        self.inner.down_write();
        self.revoke_if_biased();
    }

    /// Kernel `down_write_trylock` with bias revocation on success.
    pub fn down_write_trylock(&self) -> bool {
        if self.inner.down_write_trylock() {
            self.revoke_if_biased();
            true
        } else {
            false
        }
    }

    fn revoke_if_biased(&self) {
        if self.rbias.load(Ordering::Relaxed) {
            self.rbias.store(false, Ordering::SeqCst);
            let start = now_ns();
            let rev = global_table().revoke(self.addr());
            let now = now_ns();
            self.inhibit_until.store(
                self.policy.inhibit_until_after_revocation(start, now),
                Ordering::Relaxed,
            );
            StatsSink::Global.record_write(Some(&rev));
        } else {
            StatsSink::Global.record_write(None);
        }
    }

    /// Kernel `up_write`.
    pub fn up_write(&self) {
        self.inner.up_write();
    }
}

impl std::fmt::Debug for BravoRwSemaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BravoRwSemaphore")
            .field("rbias", &self.is_reader_biased())
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
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
    fn writer_revokes_and_waits_for_fast_readers() {
        let sem = Arc::new(BravoRwSemaphore::new());
        sem.down_read();
        sem.up_read();
        sem.down_read(); // fast read, held across the writer's arrival
        let entered = Arc::new(TestCounter::new(0));
        std::thread::scope(|s| {
            let sem2 = Arc::clone(&sem);
            let entered2 = Arc::clone(&entered);
            s.spawn(move || {
                sem2.down_write();
                entered2.store(1, Ordering::SeqCst);
                sem2.up_write();
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(
                entered.load(Ordering::SeqCst),
                0,
                "writer entered past a fast reader"
            );
            sem.up_read();
        });
        assert_eq!(entered.load(Ordering::SeqCst), 1);
        assert!(!sem.is_reader_biased());
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
