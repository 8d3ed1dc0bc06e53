//! Process-wide BRAVO statistics.
//!
//! The paper's discussion (and its TODO list) calls for reporting the
//! fast-read fraction `NFast / (NFast + NSlow)` and a breakdown of why slow
//! reads happened (bias disabled vs. collision vs. losing the race with a
//! writer), plus how often writers had to revoke. The reproduction
//! experiments use these numbers to show *why* BRAVO wins even when absolute
//! scalability is limited by the host.
//!
//! Every event is recorded once, into a counter block its writer owns: the
//! calling thread's private block for [`StatsSink::Global`] events and the
//! wait layer, or one stripe of the lock's own [`LockStats`] for
//! [`StatsSink::PerLock`] events. A fast read or a collision is one write to
//! one counter word. Process totals ([`snapshot`]) are summed at read time
//! from the thread blocks, the live per-lock blocks and the final counts of
//! dropped ones. The instrumentation thus does not introduce the
//! write-sharing BRAVO is designed to remove — the same reason the paper
//! keeps `lockstat` disabled while measuring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use topology::{CachePadded, ThreadId};

use crate::vrt::Revocation;

/// One thread's (or stripe's) private counter block: one word per
/// [`Snapshot`] field, so a block fits one cache sector.
#[derive(Default)]
struct ThreadCounters {
    fast_reads: AtomicU64,
    slow_reads_disabled: AtomicU64,
    slow_reads_collision: AtomicU64,
    slow_reads_raced: AtomicU64,
    writes: AtomicU64,
    revocations: AtomicU64,
    revocation_wait_conflicts: AtomicU64,
    revocation_scan_slots: AtomicU64,
    bias_enabled: AtomicU64,
    parked_waits: AtomicU64,
    futex_waits: AtomicU64,
    futex_wakes: AtomicU64,
    futex_eagain: AtomicU64,
}

impl ThreadCounters {
    fn accumulate_into(&self, out: &mut Snapshot) {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        out.fast_reads += load(&self.fast_reads);
        out.slow_reads_disabled += load(&self.slow_reads_disabled);
        out.slow_reads_collision += load(&self.slow_reads_collision);
        out.slow_reads_raced += load(&self.slow_reads_raced);
        out.writes += load(&self.writes);
        out.revocations += load(&self.revocations);
        out.revocation_wait_conflicts += load(&self.revocation_wait_conflicts);
        out.revocation_scan_slots += load(&self.revocation_scan_slots);
        out.bias_enabled += load(&self.bias_enabled);
        out.parked_waits += load(&self.parked_waits);
        out.futex_waits += load(&self.futex_waits);
        out.futex_wakes += load(&self.futex_wakes);
        out.futex_eagain += load(&self.futex_eagain);
    }
}

#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Why a reader ended up on the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowReadReason {
    /// The lock's bias flag was not set when the reader arrived.
    BiasDisabled,
    /// The hashed slot in the visible readers table was already occupied.
    Collision,
    /// The CAS succeeded but a writer cleared the bias flag concurrently and
    /// the reader lost the race on the re-check.
    Raced,
}

/// Immutable snapshot of the aggregated counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Reads that completed on the BRAVO fast path.
    pub fast_reads: u64,
    /// Slow reads because bias was disabled.
    pub slow_reads_disabled: u64,
    /// Slow reads because of a slot collision — the cross-lock conflicts
    /// the interference experiment reports.
    pub slow_reads_collision: u64,
    /// Slow reads because the reader lost the race with a revoking writer.
    pub slow_reads_raced: u64,
    /// Write acquisitions.
    pub writes: u64,
    /// Write acquisitions that performed revocation.
    pub revocations: u64,
    /// Fast-path readers that revoking writers had to wait for.
    pub revocation_wait_conflicts: u64,
    /// Total slots visited by revocation scans.
    pub revocation_scan_slots: u64,
    /// Times a slow-path reader re-enabled bias.
    pub bias_enabled: u64,
    /// Wait episodes that actually slept the thread (a `wait=park` or
    /// `wait=futex` lock whose spin grace period expired), on either of the
    /// futex eventcount's sleeps. Zero under `wait=spin`.
    pub parked_waits: u64,
    /// `FUTEX_WAIT` syscalls issued by `wait=futex` locks (each one is a
    /// kernel transition the spin grace period failed to avoid). Sleeps that
    /// actually blocked are *also* counted in [`parked_waits`](Self::parked_waits)
    /// so wait modes stay comparable on one column.
    pub futex_waits: u64,
    /// `FUTEX_WAKE` syscalls issued on `wait=futex` notify paths (skipped
    /// entirely when no waiter was registered — the uncontended fast path).
    pub futex_wakes: u64,
    /// `FUTEX_WAIT` calls that returned `EAGAIN`: the wake generation moved
    /// between the user-space check and the kernel's atomic re-check, i.e. a
    /// wake raced ahead of the sleep and the syscall never blocked.
    pub futex_eagain: u64,
}

impl Snapshot {
    /// Total read acquisitions, fast and slow.
    pub fn total_reads(&self) -> u64 {
        self.fast_reads + self.slow_reads()
    }

    /// Total slow-path read acquisitions.
    pub fn slow_reads(&self) -> u64 {
        self.slow_reads_disabled + self.slow_reads_collision + self.slow_reads_raced
    }

    /// Fraction of reads that used the fast path (0 when there were no
    /// reads).
    pub fn fast_read_fraction(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            0.0
        } else {
            self.fast_reads as f64 / total as f64
        }
    }

    /// Fraction of writes that had to revoke bias (0 when there were no
    /// writes).
    pub fn revocation_fraction(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.revocations as f64 / self.writes as f64
        }
    }

    /// Average slots visited per revocation scan (0 when there were none).
    pub fn scan_slots_per_revocation(&self) -> f64 {
        if self.revocations == 0 {
            0.0
        } else {
            self.revocation_scan_slots as f64 / self.revocations as f64
        }
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            fast_reads: self.fast_reads - earlier.fast_reads,
            slow_reads_disabled: self.slow_reads_disabled - earlier.slow_reads_disabled,
            slow_reads_collision: self.slow_reads_collision - earlier.slow_reads_collision,
            slow_reads_raced: self.slow_reads_raced - earlier.slow_reads_raced,
            writes: self.writes - earlier.writes,
            revocations: self.revocations - earlier.revocations,
            revocation_wait_conflicts: self.revocation_wait_conflicts
                - earlier.revocation_wait_conflicts,
            revocation_scan_slots: self.revocation_scan_slots - earlier.revocation_scan_slots,
            bias_enabled: self.bias_enabled - earlier.bias_enabled,
            parked_waits: self.parked_waits - earlier.parked_waits,
            futex_waits: self.futex_waits - earlier.futex_waits,
            futex_wakes: self.futex_wakes - earlier.futex_wakes,
            futex_eagain: self.futex_eagain - earlier.futex_eagain,
        }
    }

    /// Elementwise sum of two snapshots (used to aggregate a pool of
    /// per-lock sinks into one view).
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            fast_reads: self.fast_reads + other.fast_reads,
            slow_reads_disabled: self.slow_reads_disabled + other.slow_reads_disabled,
            slow_reads_collision: self.slow_reads_collision + other.slow_reads_collision,
            slow_reads_raced: self.slow_reads_raced + other.slow_reads_raced,
            writes: self.writes + other.writes,
            revocations: self.revocations + other.revocations,
            revocation_wait_conflicts: self.revocation_wait_conflicts
                + other.revocation_wait_conflicts,
            revocation_scan_slots: self.revocation_scan_slots + other.revocation_scan_slots,
            bias_enabled: self.bias_enabled + other.bias_enabled,
            parked_waits: self.parked_waits + other.parked_waits,
            futex_waits: self.futex_waits + other.futex_waits,
            futex_wakes: self.futex_wakes + other.futex_wakes,
            futex_eagain: self.futex_eagain + other.futex_eagain,
        }
    }
}

/// Number of counter stripes in a [`LockStats`] block. Threads hash over the
/// stripes by id, so up to this many recording threads proceed without
/// write-sharing a counter line.
const LOCK_STAT_STRIPES: usize = 8;

type Stripes = Arc<[CachePadded<ThreadCounters>; LOCK_STAT_STRIPES]>;

/// Everything [`snapshot`] sums, behind one mutex.
#[derive(Default)]
struct Registry {
    /// Every thread's block. Blocks are leaked deliberately: a thread may
    /// exit while an aggregator still wants to read its totals, and a block
    /// is one cache sector.
    threads: Vec<&'static CachePadded<ThreadCounters>>,
    /// The stripes of every live [`LockStats`].
    locks: Vec<Stripes>,
    /// The final counts of every dropped [`LockStats`].
    retired: Snapshot,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        // Every update under the lock is a push, a removal or a sum, so a
        // panic elsewhere cannot leave the registry half-written.
        .unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LOCAL: &'static CachePadded<ThreadCounters> = {
        let block: &'static CachePadded<ThreadCounters> =
            Box::leak(Box::new(CachePadded::new(ThreadCounters::default())));
        registry().threads.push(block);
        block
    };
}

/// Records one wait episode that slept the calling thread (recorded by the
/// [`crate::wait`] eventcounts, which are keyed by address and have no
/// per-lock sink, so waits count in the calling thread's block only).
#[inline]
pub fn record_parked_wait() {
    LOCAL.with(|c| bump(&c.parked_waits, 1));
}

/// Records one `FUTEX_WAIT` syscall issued by the futex wait backend (same
/// per-thread attribution as [`record_parked_wait`]).
#[inline]
pub fn record_futex_wait() {
    LOCAL.with(|c| bump(&c.futex_waits, 1));
}

/// Records one `FUTEX_WAKE` syscall issued by the futex notify path.
#[inline]
pub fn record_futex_wake() {
    LOCAL.with(|c| bump(&c.futex_wakes, 1));
}

/// Records one `FUTEX_WAIT` that returned `EAGAIN` (wake raced the sleep).
#[inline]
pub fn record_futex_eagain() {
    LOCAL.with(|c| bump(&c.futex_eagain, 1));
}

/// Process totals: every thread's block, every live [`LockStats`] and the
/// final counts of every dropped one. Each counter only grows from one call
/// to the next, so [`Snapshot::since`] on two calls never underflows.
pub fn snapshot() -> Snapshot {
    let registry = registry();
    let mut out = registry.retired;
    for block in &registry.threads {
        block.accumulate_into(&mut out);
    }
    for stripe in registry.locks.iter().flat_map(|stripes| stripes.iter()) {
        stripe.accumulate_into(&mut out);
    }
    out
}

/// Per-lock statistics: a small striped set of counter blocks owned by one
/// lock instance.
///
/// A `LockStats` block is owned by a single lock (via
/// [`StatsSink::PerLock`]) and counts only that lock's events, so two locks
/// measured in one run do not smear each other's fast-read fractions.
/// Recording threads are striped over `LOCK_STAT_STRIPES` cache-padded
/// blocks by thread id — coarser than a block per thread, in exchange for a
/// bounded per-lock footprint. The process totals of [`snapshot`] include
/// the block while it lives and its final counts once it is dropped.
pub struct LockStats {
    stripes: Stripes,
}

impl LockStats {
    /// Creates a zeroed per-lock counter block, counted in the process
    /// totals.
    pub fn new() -> Self {
        let stripes: Stripes = Arc::new(Default::default());
        registry().locks.push(Arc::clone(&stripes));
        Self { stripes }
    }

    #[inline]
    fn stripe(&self, thread: ThreadId) -> &ThreadCounters {
        &self.stripes[thread.as_usize() % LOCK_STAT_STRIPES]
    }

    /// Aggregates this lock's counters into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for stripe in self.stripes.iter() {
            stripe.accumulate_into(&mut out);
        }
        out
    }
}

impl Default for LockStats {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LockStats {
    /// Moves this lock's counts from the live set to the retired block in
    /// one step under the registry mutex, so no [`snapshot`] sees them
    /// twice or not at all.
    fn drop(&mut self) {
        let mut registry = registry();
        registry
            .locks
            .retain(|stripes| !Arc::ptr_eq(stripes, &self.stripes));
        registry.retired = registry.retired.merged(&self.snapshot());
    }
}

impl std::fmt::Debug for LockStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Where a lock's instrumentation events go. Each event is recorded in
/// exactly one place; the process totals of [`snapshot`] cover both
/// variants.
#[derive(Clone, Default)]
pub enum StatsSink {
    /// Record into the calling thread's block of the process totals.
    #[default]
    Global,
    /// Record into a per-lock counter block.
    PerLock(Arc<LockStats>),
}

impl StatsSink {
    /// Creates a sink with a fresh per-lock counter block.
    pub fn per_lock() -> Self {
        StatsSink::PerLock(Arc::new(LockStats::new()))
    }

    /// The counters this sink resolves to: the per-lock block for
    /// [`StatsSink::PerLock`], the process totals for [`StatsSink::Global`].
    pub fn snapshot(&self) -> Snapshot {
        match self {
            StatsSink::Global => snapshot(),
            StatsSink::PerLock(stats) => stats.snapshot(),
        }
    }

    /// Runs `record` on the counter block this sink writes from the calling
    /// thread.
    #[inline]
    fn counters(&self, record: impl FnOnce(&ThreadCounters)) {
        match self {
            StatsSink::Global => LOCAL.with(|c| record(c)),
            StatsSink::PerLock(stats) => record(stats.stripe(topology::current_thread_id())),
        }
    }

    /// Records a fast-path read acquisition by the calling thread, whose id
    /// the caller passes in (the BRAVO fast path reads it once per read).
    #[inline]
    pub fn record_fast_read(&self, thread: ThreadId) {
        match self {
            StatsSink::Global => LOCAL.with(|c| bump(&c.fast_reads, 1)),
            StatsSink::PerLock(stats) => bump(&stats.stripe(thread).fast_reads, 1),
        }
    }

    /// Records a slow-path read acquisition and why it was slow.
    #[inline]
    pub fn record_slow_read(&self, reason: SlowReadReason) {
        self.counters(|c| {
            let counter = match reason {
                SlowReadReason::BiasDisabled => &c.slow_reads_disabled,
                SlowReadReason::Collision => &c.slow_reads_collision,
                SlowReadReason::Raced => &c.slow_reads_raced,
            };
            bump(counter, 1);
        });
    }

    /// Records a write acquisition, with the revocation scan it performed
    /// if reader bias had to be revoked.
    #[inline]
    pub fn record_write(&self, revocation: Option<&Revocation>) {
        self.counters(|c| {
            bump(&c.writes, 1);
            if let Some(rev) = revocation {
                bump(&c.revocations, 1);
                bump(&c.revocation_scan_slots, rev.scanned_slots as u64);
                bump(&c.revocation_wait_conflicts, rev.conflicts);
            }
        });
    }

    /// Records that a slow-path reader re-enabled bias.
    #[inline]
    pub fn record_bias_enabled(&self) {
        self.counters(|c| bump(&c.bias_enabled, 1));
    }
}

impl std::fmt::Debug for StatsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsSink::Global => write!(f, "StatsSink::Global"),
            StatsSink::PerLock(_) => write!(f, "StatsSink::PerLock"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::current_thread_id;

    /// A revocation that waited for `conflicts` readers.
    fn revocation(conflicts: u64, scanned_slots: usize) -> Revocation {
        Revocation {
            scanned_slots,
            conflicts,
        }
    }

    /// Sum of every counter word in a block: how many increments it took.
    fn words(c: &ThreadCounters) -> u64 {
        let ThreadCounters {
            fast_reads,
            slow_reads_disabled,
            slow_reads_collision,
            slow_reads_raced,
            writes,
            revocations,
            revocation_wait_conflicts,
            revocation_scan_slots,
            bias_enabled,
            parked_waits,
            futex_waits,
            futex_wakes,
            futex_eagain,
        } = c;
        [
            fast_reads,
            slow_reads_disabled,
            slow_reads_collision,
            slow_reads_raced,
            writes,
            revocations,
            revocation_wait_conflicts,
            revocation_scan_slots,
            bias_enabled,
            parked_waits,
            futex_waits,
            futex_wakes,
            futex_eagain,
        ]
        .into_iter()
        .map(|w| w.load(Ordering::Relaxed))
        .sum()
    }

    fn stripe_words(sink: &StatsSink) -> u64 {
        match sink {
            StatsSink::PerLock(stats) => stats.stripes.iter().map(|s| words(s)).sum(),
            StatsSink::Global => unreachable!("a per-lock sink was expected"),
        }
    }

    fn local_words() -> u64 {
        LOCAL.with(|c| words(c))
    }

    fn local_snapshot() -> Snapshot {
        let mut out = Snapshot::default();
        LOCAL.with(|c| c.accumulate_into(&mut out));
        out
    }

    /// Every field of a snapshot, in declaration order.
    fn fields(s: &Snapshot) -> Vec<u64> {
        let Snapshot {
            fast_reads,
            slow_reads_disabled,
            slow_reads_collision,
            slow_reads_raced,
            writes,
            revocations,
            revocation_wait_conflicts,
            revocation_scan_slots,
            bias_enabled,
            parked_waits,
            futex_waits,
            futex_wakes,
            futex_eagain,
        } = *s;
        [
            fast_reads,
            slow_reads_disabled,
            slow_reads_collision,
            slow_reads_raced,
            writes,
            revocations,
            revocation_wait_conflicts,
            revocation_scan_slots,
            bias_enabled,
            parked_waits,
            futex_waits,
            futex_wakes,
            futex_eagain,
        ]
        .into()
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let sink = StatsSink::Global;
        let before = snapshot();
        sink.record_fast_read(current_thread_id());
        sink.record_fast_read(current_thread_id());
        sink.record_slow_read(SlowReadReason::Collision);
        sink.record_write(Some(&revocation(3, 0)));
        sink.record_write(None);
        sink.record_bias_enabled();
        let delta = snapshot().since(&before);
        // Other tests in this crate may record counters concurrently, so the
        // assertions are lower bounds rather than exact equalities.
        assert!(delta.fast_reads >= 2);
        assert!(delta.slow_reads_collision >= 1);
        assert!(delta.slow_reads() >= 1);
        assert!(delta.total_reads() >= 3);
        assert!(delta.writes >= 2);
        assert!(delta.revocations >= 1);
        assert!(delta.revocation_wait_conflicts >= 3);
        assert!(delta.bias_enabled >= 1);
    }

    #[test]
    fn fractions_handle_zero_denominators() {
        let s = Snapshot::default();
        assert_eq!(s.fast_read_fraction(), 0.0);
        assert_eq!(s.revocation_fraction(), 0.0);
    }

    #[test]
    fn counts_from_other_threads_are_visible() {
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        StatsSink::Global.record_fast_read(current_thread_id());
                    }
                });
            }
        });
        let delta = snapshot().since(&before);
        assert!(delta.fast_reads >= 400);
    }

    #[test]
    fn per_lock_sinks_do_not_bleed_into_each_other() {
        let a = StatsSink::per_lock();
        let b = StatsSink::per_lock();
        a.record_fast_read(current_thread_id());
        a.record_fast_read(current_thread_id());
        b.record_write(Some(&revocation(1, 64)));
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.fast_reads, 2);
        assert_eq!(sa.writes, 0);
        assert_eq!(sb.writes, 1);
        assert_eq!(sb.revocations, 1);
        assert_eq!(sb.revocation_wait_conflicts, 1);
        assert_eq!(sb.total_reads(), 0);
    }

    #[test]
    fn per_lock_sink_tees_into_the_global_registry() {
        // Per-lock events are recorded once, in the lock's own block, and
        // summed into the process totals at snapshot time.
        let before = snapshot();
        let sink = StatsSink::per_lock();
        sink.record_slow_read(SlowReadReason::Collision);
        sink.record_bias_enabled();
        let delta = snapshot().since(&before);
        assert!(delta.slow_reads_collision >= 1);
        assert!(delta.bias_enabled >= 1);
    }

    #[test]
    fn per_lock_counts_from_other_threads_aggregate() {
        let sink = StatsSink::per_lock();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        sink.record_fast_read(current_thread_id());
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().fast_reads, 200);
    }

    #[test]
    fn global_sink_snapshot_matches_process_totals() {
        let sink = StatsSink::default();
        sink.record_fast_read(current_thread_id());
        // A Global sink resolves to the process aggregate.
        assert!(sink.snapshot().fast_reads >= 1);
    }

    #[test]
    fn per_lock_events_write_one_counter_word() {
        let sink = StatsSink::per_lock();
        let local = local_words();
        sink.record_fast_read(current_thread_id());
        assert_eq!(stripe_words(&sink), 1, "a fast read is one increment");
        sink.record_slow_read(SlowReadReason::Collision);
        assert_eq!(stripe_words(&sink), 2, "a collision is one increment");
        assert_eq!(local_words(), local, "the thread's block is untouched");
        let s = sink.snapshot();
        assert_eq!((s.fast_reads, s.slow_reads_collision), (1, 1));
    }

    #[test]
    fn global_events_write_one_word_of_the_callers_block() {
        let before = local_words();
        let snap = local_snapshot();
        StatsSink::Global.record_fast_read(current_thread_id());
        assert_eq!(local_words(), before + 1);
        StatsSink::Global.record_slow_read(SlowReadReason::Collision);
        assert_eq!(local_words(), before + 2);
        let delta = local_snapshot().since(&snap);
        assert_eq!((delta.fast_reads, delta.slow_reads_collision), (1, 1));
    }

    #[test]
    fn process_totals_stay_monotone_and_keep_dropped_locks() {
        const LOCKS: u64 = 200;
        let before = snapshot();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..LOCKS {
                    let sink = StatsSink::per_lock();
                    sink.record_fast_read(current_thread_id());
                    sink.record_slow_read(SlowReadReason::Collision);
                    sink.record_write(Some(&revocation(2, 16)));
                }
                done.store(true, Ordering::Relaxed);
            });
            s.spawn(|| {
                let mut prev = snapshot();
                while !done.load(Ordering::Relaxed) {
                    let now = snapshot();
                    for (i, (a, b)) in fields(&now).into_iter().zip(fields(&prev)).enumerate() {
                        assert!(a >= b, "snapshot field {i} went down: {b} -> {a}");
                    }
                    prev = now;
                }
            });
        });
        let delta = snapshot().since(&before);
        assert!(delta.fast_reads >= LOCKS);
        assert!(delta.slow_reads_collision >= LOCKS);
        assert!(delta.revocations >= LOCKS);
        assert!(delta.revocation_wait_conflicts >= 2 * LOCKS);
        assert!(delta.revocation_scan_slots >= 16 * LOCKS);
    }

    #[test]
    fn counters_attribute_diff_and_merge() {
        let sink = StatsSink::per_lock();
        sink.record_fast_read(current_thread_id());
        sink.record_fast_read(current_thread_id());
        sink.record_slow_read(SlowReadReason::Collision);
        sink.record_write(Some(&revocation(4, 128)));
        let s = sink.snapshot();
        assert_eq!(s.fast_reads, 2);
        assert_eq!(s.slow_reads_collision, 1);
        assert_eq!(s.revocation_wait_conflicts, 4);
        assert_eq!(s.revocation_scan_slots, 128);
        // Diff and merge stay fieldwise.
        assert_eq!(s.since(&Snapshot::default()), s);
        let m = s.merged(&s);
        assert_eq!(m.revocation_wait_conflicts, 8);
        assert_eq!(m.fast_reads, 4);
        assert_eq!(m.since(&s), s);
    }

    #[test]
    fn a_counter_block_fills_one_sector() {
        // Every lock carries `LOCK_STAT_STRIPES` of these blocks: a per-shard
        // or per-node array here would multiply every lock's stats footprint.
        assert_eq!(
            std::mem::size_of::<CachePadded<ThreadCounters>>(),
            topology::SECTOR
        );
    }

    #[test]
    fn scan_slots_per_revocation_handles_zero() {
        assert_eq!(Snapshot::default().scan_slots_per_revocation(), 0.0);
        let s = Snapshot {
            revocations: 2,
            revocation_scan_slots: 100,
            ..Snapshot::default()
        };
        assert_eq!(s.scan_slots_per_revocation(), 50.0);
    }

    #[test]
    fn fast_read_fraction_is_bounded() {
        let before = snapshot();
        StatsSink::Global.record_fast_read(current_thread_id());
        StatsSink::Global.record_slow_read(SlowReadReason::BiasDisabled);
        let delta = snapshot().since(&before);
        let f = delta.fast_read_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
}
