//! Brandenburg–Anderson Phase-Fair Ticket lock (PF-T).

use std::sync::atomic::{AtomicU64, Ordering};

use bravo::wait::{WaitMode, WaitStrategy};
use bravo::{AnonymousReaders, RawRwLock, RawTryRwLock, TryLockError};

/// The Brandenburg–Anderson *phase-fair ticket* reader-writer lock.
///
/// Phase-fairness means reader and writer *phases* alternate whenever both
/// are present: an arriving writer blocks later readers behind it, but the
/// readers that arrive while it waits are admitted as a batch as soon as the
/// writer finishes, so neither side can starve. The reader indicator is a
/// central pair of counters (`rin` incremented by arriving readers, `rout`
/// by departing ones), which is exactly the compact-but-contended layout
/// BRAVO is designed to relieve.
///
/// The implementation follows the published algorithm: the low bits of `rin`
/// carry a writer-present flag and a phase id, and readers spin until those
/// bits change; writers take tickets on `win`/`wout` for mutual exclusion
/// and then wait for the readers that preceded them to drain.
pub struct PhaseFairTicketLock {
    /// Reader ingress counter; low bits hold the writer-present/phase flags.
    rin: AtomicU64,
    /// Reader egress counter.
    rout: AtomicU64,
    /// Writer ticket dispenser.
    win: AtomicU64,
    /// Writer grant counter.
    wout: AtomicU64,
    wait: WaitStrategy,
}

impl PhaseFairTicketLock {
    #[inline]
    fn key(&self) -> usize {
        self as *const Self as usize
    }
}

/// Increment applied by each reader, leaving the low byte for writer flags.
const RINC: u64 = 0x100;
/// Writer-present bit.
const PRES: u64 = 0x2;
/// Phase id bit (lowest bit of the writer's ticket).
const PHID: u64 = 0x1;
/// Both writer bits.
const WBITS: u64 = PRES | PHID;

impl RawRwLock for PhaseFairTicketLock {
    fn new() -> Self {
        Self::with_wait(WaitMode::Spin)
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self {
            rin: AtomicU64::new(0),
            rout: AtomicU64::new(0),
            win: AtomicU64::new(0),
            wout: AtomicU64::new(0),
            wait: WaitStrategy::new(mode),
        }
    }

    fn lock_shared(&self) {
        let w = self.rin.fetch_add(RINC, Ordering::Acquire) & WBITS;
        // If a writer is present, wait until the writer bits change (either
        // the writer leaves or the phase advances past it).
        if w != 0 {
            self.wait
                .wait_until(self.key(), || self.rin.load(Ordering::Acquire) & WBITS != w);
        }
    }

    fn unlock_shared(&self) {
        let prev = self.rout.fetch_add(RINC, Ordering::Release);
        debug_assert_ne!(
            self.rin.load(Ordering::Relaxed) & !WBITS,
            prev,
            "unlock_shared with no readers"
        );
        // A draining writer waits on the egress count; wake on every
        // departure (no-op in spin mode or with no parked waiters).
        self.wait.notify_all(self.key());
    }

    fn lock_exclusive(&self) {
        // Writer-writer mutual exclusion via tickets.
        let ticket = self.win.fetch_add(1, Ordering::Acquire);
        self.wait
            .wait_until(self.key(), || self.wout.load(Ordering::Acquire) == ticket);
        // Announce presence to readers and snapshot the reader ingress count.
        let w = PRES | (ticket & PHID);
        let rticket = self.rin.fetch_add(w, Ordering::Acquire);
        // Wait for all readers that arrived before the announcement to leave.
        let target = rticket & !WBITS;
        self.wait.wait_until(self.key(), || {
            self.rout.load(Ordering::Acquire) & !WBITS == target
        });
    }

    fn unlock_exclusive(&self) {
        // Clear the writer bits so the next reader phase may begin, then
        // grant the next writer ticket.
        self.rin.fetch_and(!WBITS, Ordering::Release);
        self.wout.fetch_add(1, Ordering::Release);
        self.wait.notify_all(self.key());
    }

    fn name() -> &'static str {
        "PF-T"
    }
}

impl AnonymousReaders for PhaseFairTicketLock {}

impl RawTryRwLock for PhaseFairTicketLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        // Admit only when no writer is present or pending; otherwise do not
        // register at all (registering would oblige us to wait).
        let cur = self.rin.load(Ordering::Relaxed);
        if cur & WBITS != 0 {
            return Err(TryLockError::WouldBlock);
        }
        // Also refuse if a writer holds or waits for the lock without having
        // yet set the entry bits (between its ticket grab and its rin update).
        if self.win.load(Ordering::Relaxed) != self.wout.load(Ordering::Relaxed) {
            return Err(TryLockError::WouldBlock);
        }
        self.rin
            .compare_exchange(cur, cur + RINC, Ordering::Acquire, Ordering::Relaxed)
            .map(|_| ())
            .map_err(|_| TryLockError::WouldBlock)
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        // Succeed only when there are no writers and no active readers.
        let ticket = self.wout.load(Ordering::Relaxed);
        if self.win.load(Ordering::Relaxed) != ticket {
            return Err(TryLockError::WouldBlock);
        }
        let rin = self.rin.load(Ordering::Relaxed);
        let rout = self.rout.load(Ordering::Relaxed);
        if rin & WBITS != 0 || rin & !WBITS != rout & !WBITS {
            return Err(TryLockError::WouldBlock);
        }
        // Claim the writer ticket; if someone beat us to it, give up.
        if self
            .win
            .compare_exchange(ticket, ticket + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Err(TryLockError::WouldBlock);
        }
        // We now hold the writer slot; perform the same announcement as the
        // blocking path and verify no reader slipped in before it.
        let w = PRES | (ticket & PHID);
        let rticket = self.rin.fetch_add(w, Ordering::Acquire);
        let target = rticket & !WBITS;
        if self.rout.load(Ordering::Acquire) & !WBITS == target {
            return Ok(());
        }
        // A reader raced in: we cannot back out of a ticket lock cheaply, so
        // wait for the (bounded, already-admitted) readers to drain. This
        // keeps try_lock linearizable at the cost of a short wait, mirroring
        // the "writer claims then waits" structure of the blocking path.
        self.wait.wait_until(self.key(), || {
            self.rout.load(Ordering::Acquire) & !WBITS == target
        });
        Ok(())
    }
}

impl Default for PhaseFairTicketLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for PhaseFairTicketLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rin = self.rin.load(Ordering::Relaxed);
        f.debug_struct("PhaseFairTicketLock")
            .field("readers_in", &(rin >> 8))
            .field("readers_out", &(self.rout.load(Ordering::Relaxed) >> 8))
            .field("writer_present", &(rin & PRES != 0))
            .field("writers_in", &self.win.load(Ordering::Relaxed))
            .field("writers_out", &self.wout.load(Ordering::Relaxed))
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
        try_lock_matrix::<PhaseFairTicketLock>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<PhaseFairTicketLock>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<PhaseFairTicketLock>(4, 2_000);
    }

    #[test]
    fn mixed_readers_and_writers() {
        mixed_torture::<PhaseFairTicketLock>(4, 1_000);
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        // Phase-fairness: once a writer is waiting, a newly arriving reader
        // must not be admitted ahead of it.
        let l = Arc::new(PhaseFairTicketLock::new());
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
            assert!(
                !writer_in.load(Ordering::SeqCst),
                "writer entered past an active reader"
            );
            assert!(
                l.try_lock_shared().is_err(),
                "reader admitted while a writer is waiting (not phase-fair)"
            );
            l.unlock_shared();
        });
        assert!(writer_in.load(Ordering::SeqCst));
    }

    #[test]
    fn footprint_is_four_words_plus_wait_strategy() {
        // The paper: "PF-T is slightly more compact having just 4 integer
        // fields". The wait-strategy byte pads to one more word.
        assert_eq!(std::mem::size_of::<PhaseFairTicketLock>(), 40);
    }
}
