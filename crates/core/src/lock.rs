//! The raw BRAVO lock: Listing 1 of the paper, generic over the underlying
//! reader-writer lock.
//!
//! [`BravoLock`] is the only BRAVO engine. Its read release takes no token:
//! like the `up_read` of the paper's kernel patch, [`BravoLock::read_unlock`]
//! re-derives the calling thread's table slot, frees it if it still holds
//! this lock, and otherwise releases the underlying lock. `BravoLock`
//! implements [`RawRwLock`] itself, so the catalog's handles, the kernel
//! rwsem and the guard-based, data-carrying form in [`crate::rwlock`] all
//! release one way.

use std::time::Duration;

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::clock::now_ns;
use crate::policy::BiasPolicy;
use crate::raw::{AnonymousReaders, DefaultRwLock, RawRwLock, RawTryRwLock, TryLockError};
use crate::stats::{SlowReadReason, StatsSink};
use crate::vrt::TableHandle;
use crate::wait::{WaitMode, WaitStrategy};

/// How long [`BravoLock::try_write_lock`] may wait for published fast-path
/// readers to depart before giving up.
///
/// The paper's revocation scans complete in single-digit microseconds; 200 µs
/// covers even a heavily preempted reader on an oversubscribed host while
/// remaining far below any blocking acquisition a caller could confuse it
/// with.
pub const TRY_WRITE_BUDGET: Duration = Duration::from_micros(200);

/// Fault injection for the model checker's self-test.
///
/// `schedcheck`'s value rests on actually finding the bugs this codebase has
/// already had. This module can re-introduce two of them, and the checker
/// must drive each to its deadlock within its schedule budget (see
/// `tests/schedcheck_mutation.rs`): the missing wakeup fixed in the
/// parking-waiter PR, where a fast-path reader that lost the race with a
/// revoking writer backs out *without* waking the writer parked on its
/// slot; a read release that trusts a peek at its slot, so it skips the
/// underlying lock when a colliding release frees the slot first; and a
/// fast read release that frees its slot without waking the revoker
/// parked on it.
///
/// Compiled only under the `schedcheck` feature, so release builds carry no
/// trace of it. Enabled programmatically via [`mutation::set_lost_wakeup`]
/// (or the `BRAVO_MUTATE_LOST_WAKEUP` environment variable),
/// [`mutation::set_peek_then_free`] and
/// [`mutation::set_silent_release`].
#[cfg(feature = "schedcheck")]
pub mod mutation {
    use crate::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static LOST_WAKEUP: AtomicBool = AtomicBool::new(false);
    static PEEK_THEN_FREE: AtomicBool = AtomicBool::new(false);
    static SILENT_RELEASE: AtomicBool = AtomicBool::new(false);
    static ENV: OnceLock<bool> = OnceLock::new();

    /// Enables or disables the lost-wakeup mutation process-wide.
    pub fn set_lost_wakeup(enabled: bool) {
        LOST_WAKEUP.store(enabled, Ordering::SeqCst);
    }

    /// Whether the back-out path should skip its wakeup.
    pub(crate) fn lost_wakeup() -> bool {
        LOST_WAKEUP.load(Ordering::SeqCst)
            || *ENV.get_or_init(|| std::env::var_os("BRAVO_MUTATE_LOST_WAKEUP").is_some())
    }

    /// Enables or disables the peek-then-free release mutation process-wide.
    pub fn set_peek_then_free(enabled: bool) {
        PEEK_THEN_FREE.store(enabled, Ordering::SeqCst);
    }

    /// Whether a read release should trust a peek at its slot.
    pub(crate) fn peek_then_free() -> bool {
        PEEK_THEN_FREE.load(Ordering::SeqCst)
    }

    /// Enables or disables the silent-release mutation process-wide.
    pub fn set_silent_release(enabled: bool) {
        SILENT_RELEASE.store(enabled, Ordering::SeqCst);
    }

    /// Whether a read release that freed its slot should skip its notify.
    pub(crate) fn silent_release() -> bool {
        SILENT_RELEASE.load(Ordering::SeqCst)
    }
}

/// A reader-writer lock `A` transformed into `BRAVO-A`.
///
/// The structure adds the two fields the paper describes — the reader-bias
/// flag and the inhibit-until timestamp — plus the handle to the visible
/// readers table (globally shared by default, hence zero bytes of per-lock
/// state in the paper's C embodiment), the bias policy, the statistics sink
/// and the revocation's wait strategy. The policy alone decides when a slow
/// reader may re-enable bias. Either table layout — flat or sectored — can
/// stand behind the handle; BRAVO-2D is this lock over
/// [`TableHandle::global_sectored`].
///
/// The underlying lock's read holds must be [`AnonymousReaders`]. Those of
/// a `BravoLock` are not, so BRAVO does not nest:
///
/// ```compile_fail,E0277
/// let _ = bravo::BravoLock::<bravo::BravoLock>::new();
/// ```
pub struct BravoLock<L: AnonymousReaders = DefaultRwLock> {
    rbias: AtomicBool,
    inhibit_until: AtomicU64,
    underlying: L,
    table: TableHandle,
    policy: BiasPolicy,
    stats: StatsSink,
    wait: WaitStrategy,
}

impl<L: AnonymousReaders> Default for BravoLock<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: AnonymousReaders> BravoLock<L> {
    /// Creates a BRAVO lock over a fresh underlying lock, publishing fast
    /// readers in the process-global table and using the paper's default
    /// policy (`N = 9`).
    pub fn new() -> Self {
        Self::with_parts(L::new(), TableHandle::global(), BiasPolicy::paper_default())
    }

    /// Creates a BRAVO lock with an explicit underlying lock, table handle
    /// and bias policy, recording statistics into the process-global
    /// counters.
    ///
    /// Private tables ([`TableHandle::private`]) reproduce the idealized
    /// per-instance-table comparator of the paper's Figure 1;
    /// [`BiasPolicy::Disabled`] turns the wrapper into a pass-through.
    pub fn with_parts(underlying: L, table: TableHandle, policy: BiasPolicy) -> Self {
        Self::with_instrumented(underlying, table, policy, StatsSink::Global)
    }

    /// Creates a BRAVO lock with every part explicit, including the
    /// statistics sink. This is the constructor the catalog's spec-driven
    /// builder uses: a [`crate::spec::LockSpec`] resolves to exactly these
    /// four arguments.
    pub fn with_instrumented(
        underlying: L,
        table: TableHandle,
        policy: BiasPolicy,
        stats: StatsSink,
    ) -> Self {
        Self {
            rbias: AtomicBool::new(false),
            inhibit_until: AtomicU64::new(0),
            underlying,
            table,
            policy,
            stats,
            wait: WaitStrategy::spin(),
        }
    }

    /// Sets how this lock's *revocation* waits behave (its own only wait
    /// site; readers' waits live in the underlying lock, which the catalog
    /// constructs with the same mode). In park and futex modes, fast-path
    /// readers also notify the lock address as they clear their slots while
    /// bias is off.
    pub fn with_wait_mode(mut self, mode: WaitMode) -> Self {
        self.wait = WaitStrategy::new(mode);
        self
    }

    /// The statistics sink this lock records into.
    pub fn stats(&self) -> &StatsSink {
        &self.stats
    }

    /// The wait mode this lock's revocation scans use.
    pub fn wait_mode(&self) -> WaitMode {
        self.wait.mode()
    }

    /// Creates a BRAVO lock with a given policy over the global table.
    pub fn with_policy(policy: BiasPolicy) -> Self {
        Self::with_parts(L::new(), TableHandle::global(), policy)
    }

    /// Creates a BRAVO lock that publishes into a private table of
    /// `table_size` slots (the "BRAVO-BA-Prime" idealized form of Figure 1).
    pub fn with_private_table(table_size: usize) -> Self {
        Self::with_parts(
            L::new(),
            TableHandle::private(table_size),
            BiasPolicy::paper_default(),
        )
    }

    /// The address used to identify this lock in the visible readers table.
    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Whether reader bias is currently enabled (racy snapshot; primarily for
    /// tests and statistics).
    pub fn is_reader_biased(&self) -> bool {
        self.rbias.load(Ordering::Relaxed)
    }

    /// The bias policy this lock was constructed with.
    pub fn policy(&self) -> BiasPolicy {
        self.policy
    }

    /// A reference to the underlying lock. Exposed for tests and for
    /// benchmarks that want to inspect or label the underlying algorithm;
    /// acquiring the underlying lock directly bypasses BRAVO and defeats the
    /// fast-path bookkeeping, so don't.
    pub fn underlying(&self) -> &L {
        &self.underlying
    }

    /// Acquires read (shared) permission, using the fast path when possible.
    /// Returns whether the fast path granted it; the release does not need
    /// to know.
    pub fn read_lock(&self) -> bool {
        self.try_fast_read().unwrap_or_else(|reason| {
            self.underlying.lock_shared();
            self.slow_read_acquired(reason);
            false
        })
    }

    /// The fast-path attempt: constant time (one flag check, one hash, one
    /// CAS, one re-check). `Ok` says whether the read was granted by the
    /// fast path; on `Err` nothing is held, and the error says why the
    /// reader must take the slow path.
    #[inline]
    fn try_fast_read(&self) -> Result<bool, SlowReadReason> {
        if !self.rbias.load(Ordering::Acquire) {
            return Err(SlowReadReason::BiasDisabled);
        }
        let thread = topology::current_thread_id();
        let addr = self.addr();
        let slot = self.table.slot_for(addr, thread);
        let table = self.table.slots();
        if !table.try_publish(slot, addr) {
            // Slot occupied: a collision with another (lock, thread) pair.
            return Err(SlowReadReason::Collision);
        }
        // The successful CAS is SeqCst and doubles as the store-load fence
        // between publishing our slot and re-checking RBias (Dekker-style
        // with the writer's clear-then-scan sequence).
        if self.rbias.load(Ordering::SeqCst) {
            self.stats.record_fast_read(thread);
            return Ok(true);
        }
        // A writer revoked bias between our publication and the re-check;
        // undo the publication and take the slow path. The racing revoker
        // may already have seen our slot and parked on it, so the clear
        // needs the same wakeup as a fast-path release (no-op in spin mode).
        if !table.clear(slot, addr) {
            // A colliding slow reader of this lock released by freeing our
            // publication instead of its count on the underlying lock, and
            // woke any revoker itself. That count now grants our read.
            self.slow_read_acquired(SlowReadReason::Raced);
            return Ok(false);
        }
        #[cfg(feature = "schedcheck")]
        if mutation::lost_wakeup() {
            // Seeded bug: back out silently. The parked revoker never
            // learns the slot emptied.
            return Err(SlowReadReason::Raced);
        }
        self.wait.notify_all(addr);
        Err(SlowReadReason::Raced)
    }

    /// Bookkeeping once the underlying lock has granted a slow read.
    fn slow_read_acquired(&self, reason: SlowReadReason) {
        self.maybe_enable_bias();
        self.stats.record_slow_read(reason);
    }

    /// Re-enables bias if the policy allows. Must only be called while the
    /// caller holds read permission on the underlying lock: that is what
    /// makes the store race-free against writers (they hold the underlying
    /// lock exclusively while revoking).
    fn maybe_enable_bias(&self) {
        if !self.rbias.load(Ordering::Relaxed)
            && self
                .policy
                .should_enable(now_ns(), self.inhibit_until.load(Ordering::Relaxed))
        {
            self.rbias.store(true, Ordering::Release);
            self.stats.record_bias_enabled();
        }
    }

    /// Releases read permission obtained from [`read_lock`] or
    /// [`try_read_lock`], without a token, as the `up_read` of the paper's
    /// kernel patch (§4) does.
    ///
    /// The calling thread's slot is re-derived and freed if it still holds
    /// this lock's address; otherwise the underlying lock is released. A
    /// slow reader whose slot collides with a fast reader of the same lock
    /// may thus free that reader's publication and keep its own count; the
    /// fast reader then releases that count, which [`AnonymousReaders`]
    /// makes sound. Two rules make the re-derived slot the one the
    /// acquisition published into:
    ///
    /// * the thread that acquired a read releases it;
    /// * a slot is a pure function of (lock, thread id), so a thread id must
    ///   never be reused while its thread holds a read.
    ///
    /// A release that frees a slot wakes parked revokers only when RBias is
    /// clear, so a fast release under bias writes nothing shared beyond its
    /// slot. Only a revoker waits on a published slot, and it clears RBias
    /// (SeqCst) before its scan (SeqCst loads). The slot clear is a SeqCst
    /// RMW and the RBias load after it is SeqCst, so these accesses lie in
    /// one total order:
    ///
    /// * if the revoker's RBias clear comes before the load, the load sees
    ///   bias off and the release notifies;
    /// * otherwise the slot clear precedes the revoker's RBias clear, which
    ///   precedes its scan, so the scan finds the slot empty and the revoker
    ///   never waits on it.
    ///
    /// A slow reader's re-enable of RBias (a Release store) happens before
    /// the next revoker's RBias clear, because that revoker first takes the
    /// underlying lock exclusively; so a load ordered after the clear cannot
    /// read the re-enable instead. A revoker that times out restores RBias
    /// only after it has stopped waiting, and revokers are serialized by the
    /// underlying lock, so a load that reads the restored `true` leaves no
    /// waiter behind; the next revoker clears RBias again before it scans.
    /// In spin mode nobody parks, and the release skips the load.
    ///
    /// [`read_lock`]: BravoLock::read_lock
    /// [`try_read_lock`]: BravoLock::try_read_lock
    pub fn read_unlock(&self) {
        let addr = self.addr();
        let slot = self.table.slot_for(addr, topology::current_thread_id());
        let table = self.table.slots();
        #[cfg(feature = "schedcheck")]
        if mutation::peek_then_free() && table.peek(slot) == addr {
            // Seeded bug: trust the peek. A colliding release may free the
            // slot first, and then this one leaks its underlying count.
            table.clear(slot, addr);
            self.wait.notify_all(addr);
            return;
        }
        if !table.clear(slot, addr) {
            self.underlying.unlock_shared();
            return;
        }
        // A parked revoking writer waits keyed on the lock address, and
        // only after clearing RBias (see above).
        if self.wait.mode() == WaitMode::Spin {
            return;
        }
        #[cfg(feature = "schedcheck")]
        if mutation::silent_release() {
            // Seeded bug: the revoker parked on this slot never learns it
            // emptied.
            return;
        }
        if !self.rbias.load(Ordering::SeqCst) {
            self.wait.notify_all(addr);
        }
    }

    /// Acquires write (exclusive) permission, revoking reader bias if it was
    /// enabled.
    pub fn write_lock(&self) {
        self.underlying.lock_exclusive();
        let revoked = self.revoke_if_biased(u64::MAX);
        debug_assert!(revoked, "an unbounded revocation cannot time out");
    }

    /// Revocation: runs with the underlying lock held exclusively. Returns
    /// `false` if published fast readers outlived `deadline_ns`; bias is then
    /// restored and the caller must release the underlying lock.
    fn revoke_if_biased(&self, deadline_ns: u64) -> bool {
        if !self.rbias.load(Ordering::Relaxed) {
            self.stats.record_write(None);
            return true;
        }
        // Clearing RBias must be ordered before the table scan (store-load);
        // the SeqCst store pairs with the fast-path reader's SeqCst publish +
        // re-check.
        self.rbias.store(false, Ordering::SeqCst);
        let start = now_ns();
        let outcome = self
            .table
            .table()
            .revoke_until_with(self.addr(), deadline_ns, self.wait);
        let now = now_ns();
        // Primum non nocere: inhibit re-enabling bias long enough to amortize
        // this revocation's cost down to the configured bound. A timed-out
        // scan is charged too: the window only gates *re-enabling* by slow
        // readers, not the correctness restore below.
        self.inhibit_until.store(
            self.policy.inhibit_until_after_revocation(start, now),
            Ordering::Relaxed,
        );
        let Some(rev) = outcome else {
            // The conflicting fast readers are still published, and every
            // write path gates its scan on RBias: leaving it clear would let
            // the next writer skip the scan and run concurrently with them.
            // The underlying lock is still held exclusively, so that writer
            // is guaranteed to observe the restore.
            self.rbias.store(true, Ordering::SeqCst);
            return false;
        };
        self.stats.record_write(Some(&rev));
        true
    }

    /// Releases write permission previously obtained from
    /// [`write_lock`](BravoLock::write_lock) or a successful
    /// [`try_write_lock`](BravoLock::try_write_lock).
    pub fn write_unlock(&self) {
        self.underlying.unlock_exclusive();
    }
}

impl<L: AnonymousReaders + RawTryRwLock> BravoLock<L> {
    /// Attempts to acquire read permission without blocking.
    ///
    /// Only available when the underlying lock offers a non-blocking read
    /// path ([`RawTryRwLock`]); the fast path itself is always
    /// non-blocking, but the fallback needs the underlying try operation,
    /// as described in §3.
    ///
    /// Returns `None` if the read would block, and otherwise whether the
    /// fast path granted it.
    pub fn try_read_lock(&self) -> Option<bool> {
        match self.try_fast_read() {
            Ok(fast) => Some(fast),
            Err(reason) => {
                self.underlying.try_lock_shared().ok()?;
                self.slow_read_acquired(reason);
                Some(false)
            }
        }
    }

    /// Attempts to acquire write permission with a bounded wait.
    ///
    /// The underlying lock is taken with its try path; revocation then waits
    /// at most [`TRY_WRITE_BUDGET`] for published fast readers to depart. On
    /// timeout the bias flag is restored, the underlying lock is released
    /// and the acquisition fails cleanly, so a long-lived fast reader cannot
    /// turn a try into a blocking acquisition.
    pub fn try_write_lock(&self) -> bool {
        if self.underlying.try_lock_exclusive().is_err() {
            return false;
        }
        let budget = TRY_WRITE_BUDGET.as_nanos() as u64;
        if self.revoke_if_biased(now_ns().saturating_add(budget)) {
            true
        } else {
            self.underlying.unlock_exclusive();
            false
        }
    }
}

/// BRAVO through the tokenless raw-lock interface, as the catalog's handles
/// drive it.
impl<L: AnonymousReaders> RawRwLock for BravoLock<L> {
    fn new() -> Self {
        BravoLock::new()
    }

    fn lock_shared(&self) {
        self.read_lock();
    }

    fn unlock_shared(&self) {
        self.read_unlock();
    }

    fn lock_exclusive(&self) {
        self.write_lock();
    }

    fn unlock_exclusive(&self) {
        self.write_unlock();
    }
}

impl<L: AnonymousReaders + RawTryRwLock> RawTryRwLock for BravoLock<L> {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        self.try_read_lock()
            .map(drop)
            .ok_or(TryLockError::WouldBlock)
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        if self.try_write_lock() {
            Ok(())
        } else {
            Err(TryLockError::WouldBlock)
        }
    }
}

impl<L: AnonymousReaders> std::fmt::Debug for BravoLock<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BravoLock")
            .field("rbias", &self.is_reader_biased())
            .field("inhibit_until", &self.inhibit_until.load(Ordering::Relaxed))
            .field("policy", &self.policy)
            .field("table", &self.table)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicU64;
    use std::sync::Arc;

    type Bravo = BravoLock<DefaultRwLock>;

    #[test]
    fn first_read_is_slow_then_bias_enables() {
        let l = Bravo::new();
        assert!(!l.is_reader_biased());
        // The very first reader finds bias disabled, goes slow, and enables
        // bias for subsequent readers.
        assert!(!l.read_lock());
        assert!(l.is_reader_biased());
        l.read_unlock();

        assert!(l.read_lock(), "second read should take the fast path");
        l.read_unlock();
    }

    #[test]
    fn writer_revokes_bias() {
        let l = Bravo::new();
        l.read_lock();
        l.read_unlock();
        assert!(l.is_reader_biased());
        l.write_lock();
        assert!(!l.is_reader_biased(), "write_lock must revoke bias");
        l.write_unlock();
    }

    #[test]
    fn writer_waits_for_fast_reader() {
        let l = Arc::new(Bravo::new());
        // Prime the bias.
        l.read_lock();
        l.read_unlock();
        // Hold a fast read, then start a writer; the writer must not get in
        // until the reader departs.
        assert!(l.read_lock());

        let l2 = Arc::clone(&l);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            entered2.store(now_ns(), Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "writer entered while fast reader held"
        );
        let released_at = now_ns();
        l.read_unlock();
        writer.join().unwrap();
        assert!(entered.load(Ordering::SeqCst) >= released_at);
    }

    #[test]
    fn reads_after_revocation_are_inhibited() {
        let l = Bravo::new();
        // Enable bias, then have a writer revoke it. Because a fast reader
        // was held during part of the revocation scan, the revocation takes
        // measurable time and the inhibit window is non-zero.
        l.read_lock();
        l.read_unlock();
        // The reader's thread releases it: a read release re-derives the
        // releasing thread's slot.
        let (taken, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(l.read_lock(), "the held read must be fast");
                taken.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                l.read_unlock();
            });
            rx.recv().unwrap();
            l.write_lock();
            l.write_unlock();
        });
        assert!(!l.is_reader_biased());
        // Immediately after a costly revocation the next slow reader must NOT
        // re-enable bias.
        assert!(!l.read_lock());
        l.read_unlock();
        assert!(
            !l.is_reader_biased(),
            "bias re-enabled inside the inhibition window"
        );
    }

    #[test]
    fn disabled_policy_never_uses_fast_path() {
        let l = Bravo::with_policy(BiasPolicy::Disabled);
        for _ in 0..10 {
            assert!(!l.read_lock());
            l.read_unlock();
        }
        assert!(!l.is_reader_biased());
    }

    #[test]
    fn try_write_succeeds_and_revokes() {
        let l = Bravo::new();
        l.read_lock();
        l.read_unlock();
        assert!(l.is_reader_biased());
        assert!(l.try_write_lock());
        assert!(!l.is_reader_biased());
        l.write_unlock();
    }

    #[test]
    fn try_write_fails_under_a_slow_reader() {
        let l = Bravo::with_policy(BiasPolicy::Disabled);
        l.read_lock();
        assert!(!l.try_write_lock());
        l.read_unlock();
        assert!(l.try_write_lock());
        l.write_unlock();
    }

    #[test]
    fn try_read_fails_while_write_held() {
        let l = Bravo::new();
        l.write_lock();
        assert!(l.try_read_lock().is_none());
        l.write_unlock();
        l.try_read_lock()
            .expect("uncontended try_read must succeed");
        l.read_unlock();
    }

    #[test]
    fn try_read_blames_a_slot_collision_not_disabled_bias() {
        let l = Bravo::with_instrumented(
            DefaultRwLock::new(),
            TableHandle::private(64),
            BiasPolicy::paper_default(),
            StatsSink::per_lock(),
        );
        l.read_lock();
        l.read_unlock();
        assert!(l.is_reader_biased());
        // Another address occupies this thread's slot.
        let table = l.table.slots();
        let slot = l.table.slot_for(l.addr(), topology::current_thread_id());
        let squatter = l.addr() ^ 0x40;
        assert!(table.try_publish(slot, squatter));
        let before = l.stats().snapshot();
        let fast = l.try_read_lock().expect("the underlying lock is free");
        assert!(!fast);
        let delta = l.stats().snapshot().since(&before);
        assert_eq!(delta.slow_reads_collision, 1);
        assert_eq!(delta.slow_reads_disabled, 0);
        l.read_unlock();
        assert!(table.clear(slot, squatter));
    }

    #[test]
    fn same_thread_can_hold_multiple_locks() {
        // §3: BRAVO fully supports a thread holding several locks at once;
        // each occupies its own table slot.
        let a = Bravo::new();
        let b = Bravo::new();
        // Prime both.
        a.read_lock();
        a.read_unlock();
        b.read_lock();
        b.read_unlock();
        assert!(a.read_lock() && b.read_lock());
        a.read_unlock();
        b.read_unlock();
    }

    #[test]
    fn private_table_isolation() {
        let l = Bravo::with_private_table(64);
        l.read_lock();
        l.read_unlock();
        assert!(l.read_lock());
        // The global table must not contain this lock's address.
        assert_eq!(TableHandle::global().table().count_for(l.addr()), 0);
        l.read_unlock();
    }

    #[test]
    fn concurrent_readers_and_writers_preserve_exclusion() {
        // The classic lost-update check: writers increment a plain counter
        // under write permission; readers verify they never observe a torn
        // intermediate (here: that the counter only grows).
        let l = Arc::new(Bravo::new());
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..6 {
            let l = Arc::clone(&l);
            let value = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                if i % 3 == 0 {
                    for _ in 0..2_000 {
                        l.write_lock();
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        l.write_unlock();
                    }
                } else {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        l.read_lock();
                        let v = value.load(Ordering::Relaxed);
                        assert!(v >= last);
                        last = v;
                        l.read_unlock();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2 * 2_000);
    }

    #[test]
    fn park_mode_writer_waits_for_fast_reader() {
        let l = Arc::new(
            BravoLock::with_instrumented(
                DefaultRwLock::with_wait(WaitMode::Park),
                TableHandle::private(64),
                BiasPolicy::paper_default(),
                StatsSink::per_lock(),
            )
            .with_wait_mode(WaitMode::Park),
        );
        assert_eq!(l.wait_mode(), WaitMode::Park);
        // Prime the bias, then hold a fast read while a writer revokes: the
        // parked revocation must be woken by the reader's departure.
        l.read_lock();
        l.read_unlock();
        assert!(l.read_lock());
        let l2 = Arc::clone(&l);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            entered2.store(now_ns(), Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "writer entered while fast reader held"
        );
        let released_at = now_ns();
        l.read_unlock();
        writer.join().unwrap();
        assert!(entered.load(Ordering::SeqCst) >= released_at);
    }

    /// BRAVO-2D: the same lock over a private sectored table.
    fn sectored() -> Bravo {
        Bravo::with_parts(
            DefaultRwLock::new(),
            TableHandle::sectored(4, 16),
            BiasPolicy::paper_default(),
        )
    }

    #[test]
    fn sectored_read_write_cycle() {
        let l = sectored();
        assert!(!l.read_lock());
        l.read_unlock();
        assert!(l.read_lock());
        l.read_unlock();
        l.write_lock();
        assert!(!l.is_reader_biased());
        l.write_unlock();
    }

    #[test]
    fn sectored_writer_waits_for_fast_reader_via_column_scan() {
        let l = Arc::new(sectored());
        l.read_lock();
        l.read_unlock();
        assert!(l.read_lock());
        let l2 = Arc::clone(&l);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            done2.store(true, Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!done.load(Ordering::SeqCst));
        l.read_unlock();
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn bounded_try_write_times_out_under_a_fast_reader_then_recovers() {
        let l = sectored();
        l.read_lock();
        l.read_unlock();
        assert!(l.read_lock());
        // The fast reader never departs within the budget: the try must fail
        // and release the underlying lock.
        assert!(!l.try_write_lock());
        // The reader's permission is intact and the lock is not wedged.
        l.read_unlock();
        assert!(l.try_write_lock());
        assert!(!l.is_reader_biased(), "try-write must revoke bias");
        l.write_unlock();
        l.read_lock();
        l.read_unlock();
    }

    #[test]
    fn timed_out_try_write_does_not_disarm_later_writers() {
        // A timed-out revocation must restore RBias: the conflicting fast
        // reader is still published, and with RBias clear the *next* write
        // acquisition would skip the scan and run concurrently with it. With
        // the reader still held, every subsequent try must keep failing.
        let l = sectored();
        l.read_lock();
        l.read_unlock();
        assert!(l.read_lock());
        assert!(!l.try_write_lock());
        assert!(
            !l.try_write_lock(),
            "second try-write was granted while a fast reader is still published"
        );
        assert!(l.is_reader_biased(), "bias flag not restored after timeout");
        l.read_unlock();
        assert!(l.try_write_lock());
        l.write_unlock();
    }

    #[test]
    fn sectored_exclusion_under_mixed_load() {
        let l = sectored();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for i in 0..4 {
                let (l, counter) = (&l, &counter);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        if i == 0 {
                            l.write_lock();
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                            l.write_unlock();
                        } else {
                            l.read_lock();
                            let _ = counter.load(Ordering::Relaxed);
                            l.read_unlock();
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn raw_interface_round_trip() {
        let l = Bravo::new();
        l.lock_shared();
        l.unlock_shared();
        l.lock_exclusive();
        l.unlock_exclusive();
        assert!(l.try_lock_shared().is_ok());
        l.unlock_shared();
        assert!(l.try_lock_exclusive().is_ok());
        l.unlock_exclusive();
    }

    #[test]
    fn nested_reads_of_distinct_locks_release_in_any_order() {
        let a = Bravo::new();
        let b = Bravo::new();
        a.lock_shared();
        b.lock_shared();
        // Release in acquisition order, not LIFO.
        a.unlock_shared();
        b.unlock_shared();
        // Both locks are free again.
        assert!(a.try_lock_exclusive().is_ok());
        assert!(b.try_lock_exclusive().is_ok());
        a.unlock_exclusive();
        b.unlock_exclusive();
    }

    #[test]
    fn recursive_reads_of_the_same_lock_are_supported() {
        // Two fast reads by the same thread hash to the same slot, so the
        // second one collides with the first and takes the slow path. The
        // first release then frees the slot and the second releases the
        // underlying count: the collision exchange of `read_unlock`.
        let l = Bravo::with_private_table(64);
        l.lock_shared();
        l.unlock_shared();
        assert!(l.read_lock());
        assert!(!l.read_lock());
        l.unlock_shared();
        l.unlock_shared();
        assert!(l.try_lock_exclusive().is_ok());
        l.unlock_exclusive();
    }

    #[test]
    fn exclusion_is_preserved_through_the_raw_interface() {
        let l = Bravo::new();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (l, counter) = (&l, &counter);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        l.lock_exclusive();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        l.unlock_exclusive();
                        l.lock_shared();
                        l.unlock_shared();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
    }
}
