//! The blocking layer: one futex eventcount over two raw sleeps.
//!
//! Every lock in the catalog originally waited by spinning (with the
//! yield-escalating [`Backoff`]). That is the right call when the host has
//! spare cores, but under oversubscription — more runnable threads than
//! logical CPUs, exactly the regime the `fig10_server` sweep provokes —
//! spinning readers steal the quanta the lock holder needs to finish its
//! critical section. This module provides the alternative: a
//! [`FutexEventCount`] that blocks a waiter until a notifier moves its wake
//! generation, and a [`WaitStrategy`] that lets every spin site in the repo
//! choose between spinning and blocking from one `wait=spin|park|futex`
//! knob in the lock spec grammar.
//!
//! # The eventcount
//!
//! The eventcount packs a per-bucket *wake generation* into a `u32` futex
//! word: waiters register in a counter, snapshot the generation, re-check
//! their condition, and sleep on the snapshot; notifiers bump the
//! generation and wake sleepers only if the waiter counter is non-zero.
//! There is one protocol and two raw sleeps under it ([`Sleep`]):
//!
//! * the kernel futex ([`crate::sys::futex`]), whose atomic compare of the
//!   word closes the window between the snapshot and the sleep. Under
//!   `--features schedcheck` it is the checker's virtual futex, which makes
//!   wait and wake schedulable yield points;
//! * a portable in-process sleep in the manner of Drepper's "Futexes Are
//!   Tricky": a mutex-guarded list of sleeping threads per eventcount,
//!   where the word is re-read under the mutex the waker also takes.
//!
//! `wait=futex` runs the kernel futex where [`crate::sys::futex::NATIVE`]
//! is true (and always under the checker); `wait=park` is the futex
//! eventcount over the portable sleep, which is what `wait=futex` runs off
//! Linux.
//!
//! Waiters are keyed by an address (normally the lock's address; MCS queue
//! nodes use the node address) and hashed over a small global array of
//! eventcounts, the same bucket-table shape `parking_lot` and the Linux
//! futex hash use, so a blocking-capable lock costs one byte of
//! configuration rather than an embedded queue.

use std::sync::OnceLock;
use std::time::Duration;

use crate::clock::{now_ns, Backoff};
use crate::hash::mix64;
use crate::stats;
use crate::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use crate::sync::thread::{self, Thread};
use crate::sync::{Mutex, MutexGuard};

/// How a lock waits when it cannot make progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Spin with the yield-escalating [`Backoff`] (the original behaviour).
    #[default]
    Spin,
    /// Spin briefly, then sleep in the futex eventcount over the portable
    /// in-process sleep.
    Park,
    /// Spin briefly, then sleep in the futex eventcount on the kernel futex
    /// (Linux); the portable sleep where the syscall is unavailable.
    Futex,
}

impl WaitMode {
    /// The spec-grammar token for this mode (`spin` / `park` / `futex`).
    pub fn as_str(self) -> &'static str {
        match self {
            WaitMode::Spin => "spin",
            WaitMode::Park => "park",
            WaitMode::Futex => "futex",
        }
    }
}

impl std::fmt::Display for WaitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for WaitMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spin" => Ok(WaitMode::Spin),
            "park" => Ok(WaitMode::Park),
            "futex" => Ok(WaitMode::Futex),
            _ => Err(()),
        }
    }
}

/// How many [`Backoff`] steps a waiter spins before it first announces
/// itself. `Backoff` starts yielding after 64 snoozes, so this covers a
/// short pure spin phase plus a few yields before the thread commits to
/// sleeping.
const SPIN_GRACE: u32 = 96;

/// The effective spin grace. Under the model checker, bounded spins are
/// pure schedule noise (each `ready()` poll is a yield point), so managed
/// threads commit to sleeping almost immediately — this keeps explored
/// schedules short without changing the protocol.
#[inline]
fn spin_grace() -> u32 {
    #[cfg(feature = "schedcheck")]
    if schedcheck::is_managed() {
        return 2;
    }
    SPIN_GRACE
}

/// The raw sleep a [`FutexEventCount`] blocks in. A waiter and the
/// notifiers that wake it must name the same sleep.
///
/// [`Sleep::Portable`] cannot lose a wakeup. The waiter takes the
/// eventcount's list lock, re-reads the word, and lists itself only if the
/// word still holds its snapshot. The notifier bumps the word, then takes
/// the same lock and drains the list. The two lock sections are ordered:
///
/// * if the notifier's comes first, its bump happens before the waiter's
///   re-read, which sees the word moved and returns without sleeping;
/// * otherwise the waiter is listed when the notifier drains, and the
///   notifier unparks it. An unpark that lands before the park is banked,
///   so the park returns at once.
///
/// A waiter lists itself afresh for every sleep and parks once. Any
/// return, even one an unpark banked by an earlier wait caused, goes back
/// to the eventcount, which re-checks the condition and takes a new
/// snapshot; so a stale entry or a stale unpark can end a sleep early but
/// never strand a waiter. Before it returns, the waiter takes the lock once
/// more and removes its entry if no drain took it, so a thread that timed
/// out does not stay listed until the next notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sleep {
    /// `FUTEX_WAIT`/`FUTEX_WAKE` on the word: the kernel's on Linux, the
    /// checker's virtual futex under `--features schedcheck`. Panics where
    /// neither exists ([`crate::sys::futex::NATIVE`] false, no checker).
    Futex,
    /// The in-process sleeper list, built from [`crate::sync`]'s mutex and
    /// thread parking; available on every target.
    Portable,
}

/// Whether `wait=futex` sleeps on the futex word itself: where the syscall
/// is bound, and always under the checker, whose virtual futex exists on
/// every target.
const KERNEL_FUTEX: bool = cfg!(feature = "schedcheck") || crate::sys::futex::NATIVE;

/// Outcome of one raw sleep, unified across the native syscall, the
/// schedcheck emulation and the portable sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FutexWait {
    /// Slept and was woken (or returned spuriously); re-check the condition.
    Woken,
    /// The word moved before the sleep (`EAGAIN`): a wake raced ahead.
    Stale,
    /// The relative timeout expired.
    TimedOut,
}

#[cfg(feature = "schedcheck")]
fn futex_wait_raw(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> FutexWait {
    use schedcheck::sync::futex as vf;
    match vf::wait(word, expected, timeout) {
        vf::WaitOutcome::Woken => FutexWait::Woken,
        vf::WaitOutcome::Stale => FutexWait::Stale,
        vf::WaitOutcome::TimedOut => FutexWait::TimedOut,
    }
}

#[cfg(not(feature = "schedcheck"))]
fn futex_wait_raw(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> FutexWait {
    use crate::sys::futex as sf;
    match sf::wait(word, expected, timeout) {
        sf::WaitOutcome::Woken | sf::WaitOutcome::Interrupted => FutexWait::Woken,
        sf::WaitOutcome::Stale => FutexWait::Stale,
        sf::WaitOutcome::TimedOut => FutexWait::TimedOut,
    }
}

#[cfg(feature = "schedcheck")]
fn futex_wake_raw(word: &AtomicU32, n: u32) -> usize {
    schedcheck::sync::futex::wake(word, n as usize)
}

#[cfg(not(feature = "schedcheck"))]
fn futex_wake_raw(word: &AtomicU32, n: u32) -> usize {
    crate::sys::futex::wake(word, n)
}

/// Seeded-bug hooks for the checker's self-tests, compiled only under the
/// `schedcheck` feature. Mirrors `crate::lock::mutation`: process-wide
/// flags that re-introduce specific, already-understood bug classes.
#[cfg(feature = "schedcheck")]
pub mod mutation {
    use crate::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static DROP_FUTEX_WAKE: AtomicBool = AtomicBool::new(false);
    static UNLOCKED_RECHECK: AtomicBool = AtomicBool::new(false);
    static ENV: OnceLock<bool> = OnceLock::new();

    /// Drops the wake from [`FutexEventCount::notify_all`] when a waiter is
    /// registered, on either sleep: the generation still advances but
    /// nobody is roused — a lost wakeup on the eventcount. Also enabled by setting `BRAVO_MUTATE_DROP_FUTEX_WAKE`
    /// in the environment.
    ///
    /// [`FutexEventCount::notify_all`]: super::FutexEventCount::notify_all
    pub fn set_drop_futex_wake(enabled: bool) {
        DROP_FUTEX_WAKE.store(enabled, Ordering::SeqCst);
    }

    pub(crate) fn drop_futex_wake() -> bool {
        DROP_FUTEX_WAKE.load(Ordering::SeqCst)
            || *ENV.get_or_init(|| std::env::var_os("BRAVO_MUTATE_DROP_FUTEX_WAKE").is_some())
    }

    /// Makes the portable sleep read the word *before* it takes the list
    /// lock: a notifier that bumps the word and drains the list in between
    /// leaves the waiter listed after the drain, asleep with no waker.
    pub fn set_unlocked_recheck(enabled: bool) {
        UNLOCKED_RECHECK.store(enabled, Ordering::SeqCst);
    }

    pub(crate) fn unlocked_recheck() -> bool {
        UNLOCKED_RECHECK.load(Ordering::SeqCst)
    }
}

/// A futex eventcount: the blocking primitive behind `wait=park` and
/// `wait=futex`.
///
/// The protocol state is one `u32` *wake generation* (the futex word) plus
/// a waiter counter. Waiters announce themselves in `waiters`, snapshot the
/// generation, re-check their condition, and sleep on the snapshot;
/// notifiers bump the generation unconditionally and wake only when
/// `waiters` is non-zero. `SeqCst` on both sides puts the four accesses in
/// one total order, so either the notifier sees the waiter (and wakes) or
/// the waiter sees the bumped generation / new state (and never sleeps);
/// the raw [`Sleep`]'s check of the word against the snapshot closes the
/// remaining window between the snapshot and the sleep.
///
/// Generation wraparound is benign: the comparison is equality-only, so a
/// waiter confuses `g` with `g + 2³²` only if exactly 2³² notifications
/// land inside its single check-to-sleep window.
pub struct FutexEventCount {
    /// The futex word: bumped by every notify.
    gen: AtomicU32,
    /// How many threads are between announce and sleep-return. Lets
    /// notifiers skip the wake when nobody can be sleeping.
    waiters: AtomicUsize,
    /// The threads asleep in [`Sleep::Portable`]; the kernel futex keeps
    /// its own list.
    sleepers: Mutex<Vec<Thread>>,
}

impl FutexEventCount {
    /// An eventcount starting at generation 0.
    pub const fn new() -> Self {
        Self::with_generation(0)
    }

    /// An eventcount starting at an arbitrary generation — lets tests place
    /// the counter next to `u32::MAX` and prove wraparound is benign.
    pub const fn with_generation(gen: u32) -> Self {
        Self {
            gen: AtomicU32::new(gen),
            waiters: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
        }
    }

    /// The current wake generation (racy; for tests/diagnostics).
    pub fn generation(&self) -> u32 {
        self.gen.load(Ordering::SeqCst)
    }

    /// How many threads are currently announced as waiting (racy snapshot).
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Blocks the current thread in `sleep` until `ready()` returns true.
    /// Notifiers that make the condition true must call
    /// [`notify_all`](Self::notify_all) with the same sleep after changing
    /// state.
    pub fn wait_until(&self, sleep: Sleep, ready: impl FnMut() -> bool) {
        self.wait(sleep, ready, None);
    }

    /// Like [`wait_until`](Self::wait_until), but gives up at `deadline_ns`
    /// (on the [`now_ns`] clock). Returns `true` if the condition was
    /// observed true, `false` on timeout.
    pub fn wait_until_deadline(
        &self,
        sleep: Sleep,
        ready: impl FnMut() -> bool,
        deadline_ns: u64,
    ) -> bool {
        self.wait(sleep, ready, Some(deadline_ns))
    }

    #[inline]
    fn wait(
        &self,
        sleep: Sleep,
        mut ready: impl FnMut() -> bool,
        deadline_ns: Option<u64>,
    ) -> bool {
        let expired = || deadline_ns.is_some_and(|d| now_ns() >= d);
        let mut backoff = Backoff::new();
        for _ in 0..spin_grace() {
            if ready() {
                return true;
            }
            if expired() {
                return ready();
            }
            backoff.snooze();
        }
        loop {
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let observed = self.gen.load(Ordering::SeqCst);
            if ready() {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return true;
            }
            let timeout = match deadline_ns {
                None => None,
                Some(deadline) => {
                    let now = now_ns();
                    if now >= deadline {
                        self.waiters.fetch_sub(1, Ordering::SeqCst);
                        return ready();
                    }
                    Some(Duration::from_nanos(deadline - now))
                }
            };
            let outcome = match sleep {
                Sleep::Futex => {
                    stats::record_futex_wait();
                    futex_wait_raw(&self.gen, observed, timeout)
                }
                Sleep::Portable => self.portable_wait(observed, timeout),
            };
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                FutexWait::Stale if sleep == Sleep::Futex => stats::record_futex_eagain(),
                FutexWait::Stale => {}
                // The thread actually slept: count it on the column both
                // sleeps share so wait modes stay comparable.
                FutexWait::Woken | FutexWait::TimedOut => stats::record_parked_wait(),
            }
            if outcome == FutexWait::TimedOut {
                return ready();
            }
        }
    }

    /// Publishes a wakeup: bumps the generation (always — a concurrent
    /// waiter between snapshot and sleep must see the word move) and wakes
    /// the sleepers of `sleep` only when the waiter counter says there may
    /// be any. Call *after* the state change that makes waiters ready.
    pub fn notify_all(&self, sleep: Sleep) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        #[cfg(feature = "schedcheck")]
        if mutation::drop_futex_wake() {
            return;
        }
        match sleep {
            Sleep::Futex => {
                stats::record_futex_wake();
                futex_wake_raw(&self.gen, u32::MAX);
            }
            Sleep::Portable => {
                let sleepers = std::mem::take(&mut *self.sleepers());
                for sleeper in sleepers {
                    sleeper.unpark();
                }
            }
        }
    }

    fn sleepers(&self) -> MutexGuard<'_, Vec<Thread>> {
        self.sleepers.lock().expect("sleeper list poisoned")
    }

    /// The portable `FUTEX_WAIT`: if the word still holds `expected` under
    /// the list lock, lists this thread and parks once, until a
    /// [`notify_all`] drains it, the timeout expires or a banked unpark
    /// ends the park (see [`Sleep`] for why that cannot lose a wakeup).
    ///
    /// [`notify_all`]: Self::notify_all
    fn portable_wait(&self, expected: u32, timeout: Option<Duration>) -> FutexWait {
        let deadline = timeout.map(|t| now_ns().saturating_add(t.as_nanos() as u64));
        let me = thread::current();
        // Seeded bug (checker builds only): trust a read taken before the
        // lock.
        #[cfg(feature = "schedcheck")]
        let unlocked = mutation::unlocked_recheck() && self.gen.load(Ordering::SeqCst) == expected;
        #[cfg(not(feature = "schedcheck"))]
        let unlocked = false;
        {
            let mut sleepers = self.sleepers();
            if !unlocked && self.gen.load(Ordering::SeqCst) != expected {
                return FutexWait::Stale;
            }
            sleepers.push(me.clone());
        }
        match timeout {
            None => thread::park(),
            Some(timeout) => thread::park_timeout(timeout),
        }
        {
            let mut sleepers = self.sleepers();
            if let Some(pos) = sleepers.iter().position(|t| t.id() == me.id()) {
                sleepers.swap_remove(pos);
            }
        }
        match deadline {
            Some(deadline) if now_ns() >= deadline => FutexWait::TimedOut,
            _ => FutexWait::Woken,
        }
    }
}

impl Default for FutexEventCount {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FutexEventCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FutexEventCount")
            .field("generation", &self.generation())
            .field("waiters", &self.waiters())
            .finish()
    }
}

/// Number of global eventcount buckets addresses hash over. Keys sharing a
/// bucket cost spurious re-checks (every sleeper of the bucket wakes),
/// never lost wakeups; 64 buckets keep unrelated locks from serializing on
/// one list.
const WAIT_BUCKETS: usize = 64;

static FUTEX_BUCKETS: OnceLock<Box<[FutexEventCount]>> = OnceLock::new();

/// The global eventcount bucket for an address key.
fn futex_bucket_for(key: usize) -> &'static FutexEventCount {
    let buckets =
        FUTEX_BUCKETS.get_or_init(|| (0..WAIT_BUCKETS).map(|_| FutexEventCount::new()).collect());
    &buckets[(mix64(key as u64) as usize) & (WAIT_BUCKETS - 1)]
}

/// A one-byte dispatcher between spinning and sleeping, resolved once from
/// the lock spec's `wait=` knob and stored inside each lock.
///
/// In [`WaitMode::Spin`] every wait is the original [`Backoff`] loop and
/// every notification is a no-op, so spin-configured locks keep their old
/// behaviour (and cost) exactly. The other two modes sleep in the global
/// [`FutexEventCount`] buckets, keyed by the lock's address:
/// [`WaitMode::Park`] is the eventcount over the portable in-process sleep,
/// which is what [`WaitMode::Futex`] runs off Linux; `wait=futex` sleeps on
/// the kernel futex where [`crate::sys::futex::NATIVE`] is true, so a
/// `wait=futex` spec is valid on every target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStrategy {
    mode: WaitMode,
}

impl WaitStrategy {
    /// A strategy for the given mode.
    pub const fn new(mode: WaitMode) -> Self {
        Self { mode }
    }

    /// The always-spin strategy (the historical behaviour).
    pub const fn spin() -> Self {
        Self::new(WaitMode::Spin)
    }

    /// The spin-then-sleep strategy on the portable sleep.
    pub const fn park() -> Self {
        Self::new(WaitMode::Park)
    }

    /// The spin-then-sleep strategy on the kernel futex (the portable sleep
    /// off Linux).
    pub const fn futex() -> Self {
        Self::new(WaitMode::Futex)
    }

    /// The configured mode.
    pub fn mode(&self) -> WaitMode {
        self.mode
    }

    /// The raw sleep this strategy blocks in; `None` when it spins.
    #[inline]
    fn sleep(&self) -> Option<Sleep> {
        match self.mode {
            WaitMode::Spin => None,
            WaitMode::Futex if KERNEL_FUTEX => Some(Sleep::Futex),
            WaitMode::Park | WaitMode::Futex => Some(Sleep::Portable),
        }
    }

    /// Waits until `ready()` is true: by spinning, or by sleeping under
    /// `key` after the spin grace period.
    #[inline]
    pub fn wait_until(&self, key: usize, mut ready: impl FnMut() -> bool) {
        match self.sleep() {
            None => {
                let mut backoff = Backoff::new();
                while !ready() {
                    backoff.snooze();
                }
            }
            Some(sleep) => futex_bucket_for(key).wait_until(sleep, ready),
        }
    }

    /// Bounded wait: gives up at `deadline_ns` on the [`now_ns`] clock.
    /// Returns whether the condition was observed true.
    #[inline]
    pub fn wait_until_deadline(
        &self,
        key: usize,
        mut ready: impl FnMut() -> bool,
        deadline_ns: u64,
    ) -> bool {
        match self.sleep() {
            None => {
                let mut backoff = Backoff::new();
                loop {
                    if ready() {
                        return true;
                    }
                    if now_ns() >= deadline_ns {
                        return ready();
                    }
                    backoff.snooze();
                }
            }
            Some(sleep) => futex_bucket_for(key).wait_until_deadline(sleep, ready, deadline_ns),
        }
    }

    /// Publishes a wakeup to every thread blocked under `key`. No-op when
    /// spinning; call it *after* the state change that makes waiters ready.
    #[inline]
    pub fn notify_all(&self, key: usize) {
        if let Some(sleep) = self.sleep() {
            futex_bucket_for(key).notify_all(sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    const SLEEPS: [Sleep; 2] = [Sleep::Futex, Sleep::Portable];

    /// Threads currently listed in `ec`'s portable sleep.
    fn listed(ec: &FutexEventCount) -> usize {
        ec.sleepers().len()
    }

    #[test]
    fn wait_mode_round_trips_through_strings() {
        for mode in [WaitMode::Spin, WaitMode::Park, WaitMode::Futex] {
            assert_eq!(mode.as_str().parse::<WaitMode>(), Ok(mode));
        }
        assert!("busy".parse::<WaitMode>().is_err());
        assert_eq!(WaitMode::default(), WaitMode::Spin);
    }

    /// An already-true condition is satisfied inside the spin grace: the
    /// waiter never announces itself, so a notifier observing
    /// waiters() == 0 skips the wake. (The process-wide zero-syscall pin
    /// lives in tests/perf_floor.rs, where the whole binary is uncontended;
    /// global counters race with the storm tests here.)
    fn ready_condition_returns_without_sleeping(sleep: Sleep) {
        let ec = FutexEventCount::new();
        ec.wait_until(sleep, || true);
        assert!(ec.wait_until_deadline(sleep, || true, now_ns() + 1_000_000));
        assert_eq!(ec.waiters(), 0);
        assert_eq!(listed(&ec), 0);
        assert_eq!(ec.generation(), 0, "a pure wait must not move the word");
    }

    #[test]
    fn futex_event_count_ready_condition_returns_without_sleeping() {
        ready_condition_returns_without_sleeping(Sleep::Futex);
    }

    #[test]
    fn ready_condition_returns_without_parking() {
        ready_condition_returns_without_sleeping(Sleep::Portable);
    }

    #[test]
    fn futex_notify_without_waiters_bumps_only_the_word() {
        for sleep in SLEEPS {
            let ec = FutexEventCount::new();
            for _ in 0..100 {
                ec.notify_all(sleep);
            }
            assert_eq!(ec.generation(), 100, "every notify must bump the word");
            assert_eq!(ec.waiters(), 0);
        }
    }

    fn deadline_expires_when_never_ready_on(sleep: Sleep) {
        let ec = FutexEventCount::new();
        let deadline = now_ns() + 5_000_000; // 5 ms
        assert!(!ec.wait_until_deadline(sleep, || false, deadline));
        assert!(now_ns() >= deadline);
        assert_eq!(ec.waiters(), 0);
        assert_eq!(listed(&ec), 0, "a timed-out sleeper stayed listed");
    }

    #[test]
    fn futex_event_count_deadline_expires_when_never_ready() {
        deadline_expires_when_never_ready_on(Sleep::Futex);
    }

    #[test]
    fn deadline_expires_when_never_ready() {
        deadline_expires_when_never_ready_on(Sleep::Portable);
    }

    #[test]
    fn deadline_already_past_returns_immediately() {
        // A deadline at-or-before "now" must not announce, must not sleep,
        // and must report the condition's value at that instant.
        for sleep in SLEEPS {
            let ec = FutexEventCount::new();
            assert!(!ec.wait_until_deadline(sleep, || false, 0));
            assert!(!ec.wait_until_deadline(sleep, || false, now_ns().saturating_sub(1)));
            // If the condition is already true the expired deadline is moot.
            assert!(ec.wait_until_deadline(sleep, || true, 0));
            assert_eq!(ec.waiters(), 0);
            assert_eq!(listed(&ec), 0);
        }
    }

    /// Many threads ping-ponging one counter through one eventcount, `n`
    /// rounds each, must never lose a wakeup.
    fn handoff_storm(ec: &FutexEventCount, sleep: Sleep, threads: u64, rounds: u64) {
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let counter = &counter;
                s.spawn(move || {
                    for round in 0..rounds {
                        let target = round * threads + t + 1;
                        ec.wait_until(sleep, || counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        ec.notify_all(sleep);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), threads * rounds);
        assert_eq!(ec.waiters(), 0);
        assert_eq!(listed(ec), 0);
    }

    #[test]
    fn futex_event_count_survives_a_contended_handoff_storm() {
        for sleep in SLEEPS {
            handoff_storm(&FutexEventCount::new(), sleep, 8, 200);
        }
    }

    #[test]
    fn generation_wraparound_is_benign() {
        // Start the word just under u32::MAX and drive handoffs across the
        // wrap: equality-only comparison means nothing special happens.
        for sleep in SLEEPS {
            let ec = FutexEventCount::with_generation(u32::MAX - 8);
            handoff_storm(&ec, sleep, 4, 8);
            // 32 notifies from u32::MAX - 8 lands past the wrap.
            assert_eq!(ec.generation(), (u32::MAX - 8).wrapping_add(32));
        }
    }

    #[test]
    fn wake_all_releases_every_matching_waiter() {
        for sleep in SLEEPS {
            let ec = FutexEventCount::new();
            let flag = AtomicBool::new(false);
            let released = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        ec.wait_until(sleep, || flag.load(Ordering::SeqCst));
                        released.fetch_add(1, Ordering::SeqCst);
                    });
                }
                // Wait for all four to announce, then release them with one
                // notify.
                let mut backoff = Backoff::new();
                while ec.waiters() < 4 {
                    backoff.snooze();
                }
                flag.store(true, Ordering::SeqCst);
                ec.notify_all(sleep);
            });
            assert_eq!(released.load(Ordering::SeqCst), 4, "{sleep:?}");
            assert_eq!(listed(&ec), 0);
        }
    }

    /// A waiter that genuinely sleeps must be counted: on `parked_waits`
    /// for both sleeps, and on `futex_waits` for the kernel one. A waiter
    /// that announces but sees the flag set during its re-check returns
    /// without sleeping, so retry a few episodes until one sleeps (in
    /// practice the first one does).
    fn sleeps_are_counted(sleep: Sleep) {
        for _ in 0..20 {
            let before = crate::stats::snapshot();
            let ec = FutexEventCount::new();
            let flag = AtomicBool::new(false);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| ec.wait_until(sleep, || flag.load(Ordering::SeqCst)));
                let mut backoff = Backoff::new();
                while ec.waiters() == 0 {
                    backoff.snooze();
                }
                // Give the waiter time to pass its re-check and sleep.
                std::thread::sleep(Duration::from_millis(10));
                flag.store(true, Ordering::SeqCst);
                ec.notify_all(sleep);
                waiter.join().unwrap();
            });
            let delta = crate::stats::snapshot().since(&before);
            if delta.parked_waits >= 1 && (sleep == Sleep::Portable || delta.futex_waits >= 1) {
                return;
            }
        }
        panic!("no {sleep:?} sleep was recorded in 20 episodes");
    }

    #[test]
    fn futex_waits_are_counted_when_a_sleeper_blocks() {
        sleeps_are_counted(Sleep::Futex);
    }

    #[test]
    fn parked_waits_are_counted() {
        sleeps_are_counted(Sleep::Portable);
    }

    #[test]
    fn futex_strategy_handles_contended_handoffs() {
        // The full wait=futex dispatch path (bucket lookup included), on
        // whichever sleep this target resolves it to.
        let strategy = WaitStrategy::futex();
        assert_eq!(strategy.mode(), WaitMode::Futex);
        strategy_storm(strategy);
    }

    #[test]
    fn park_strategy_survives_a_contended_handoff_storm() {
        strategy_storm(WaitStrategy::park());
    }

    fn strategy_storm(strategy: WaitStrategy) {
        let counter = Arc::new(AtomicU64::new(0));
        let key = Arc::as_ptr(&counter) as usize;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..200u64 {
                        let target = round * 8 + t + 1;
                        strategy.wait_until(key, || counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        strategy.notify_all(key);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 200);
    }

    #[test]
    fn spin_strategy_never_registers() {
        let strategy = WaitStrategy::spin();
        let n = AtomicU64::new(0);
        strategy.wait_until(99, || n.fetch_add(1, Ordering::Relaxed) > 3);
        assert!(strategy.wait_until_deadline(99, || true, now_ns()));
        strategy.notify_all(99); // no-op
        assert_eq!(strategy.mode(), WaitMode::Spin);
    }

    #[test]
    fn wake_racing_timeout_leaves_queue_consistent() {
        // A notify that lands around the waiter's deadline must never leave
        // a sleeper listed: whichever side wins, `true` is returned only
        // with the condition actually true, the list ends empty, and the
        // next round still works (no entry leaked, no wakeup eaten).
        let ec = FutexEventCount::new();
        let mut wake_won = 0u32;
        for round in 0..50u64 {
            let flag = AtomicBool::new(false);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    // Sub-millisecond deadline so timeout genuinely races
                    // the main thread's notify on loaded hosts.
                    let deadline = now_ns() + 200_000 + (round % 7) * 50_000;
                    let won = ec.wait_until_deadline(
                        Sleep::Portable,
                        || flag.load(Ordering::SeqCst),
                        deadline,
                    );
                    (won, flag.load(Ordering::SeqCst))
                });
                flag.store(true, Ordering::SeqCst);
                ec.notify_all(Sleep::Portable);
                let (won, flag_at_return) = waiter.join().unwrap();
                if won {
                    wake_won += 1;
                    assert!(flag_at_return, "returned true with the condition false");
                }
                // `false` is legitimate only when the deadline beat the
                // store; either way nobody may stay listed.
            });
            assert_eq!(listed(&ec), 0, "round {round} left a sleeper listed");
            assert_eq!(ec.waiters(), 0);
        }
        // The store happens within microseconds of spawn, so the notify
        // side must win at least once across 50 rounds.
        assert!(wake_won > 0, "notify never beat the timeout in 50 rounds");
    }

    #[test]
    fn stale_wake_token_does_not_break_later_waits() {
        // A notify may drain a sleeper that is already timing out and bank
        // an unpark on its thread. The next wait on that thread must still
        // obey its own condition.
        let ec = FutexEventCount::new();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                // Phase 1: time out (condition never true), possibly
                // collecting a stale unpark from the main thread.
                let timed_out =
                    !ec.wait_until_deadline(Sleep::Portable, || false, now_ns() + 2_000_000);
                // Phase 2: a real wait that must not end early off the
                // banked unpark alone.
                ec.wait_until(Sleep::Portable, || flag.load(Ordering::SeqCst));
                (timed_out, flag.load(Ordering::SeqCst))
            });
            // Fire notifies at the (probably asleep, possibly timing-out)
            // waiter without making it ready: these unparks are stale.
            for _ in 0..10 {
                ec.notify_all(Sleep::Portable);
                std::thread::sleep(Duration::from_micros(300));
            }
            // Now make phase 2 genuinely ready and notify.
            flag.store(true, Ordering::SeqCst);
            let mut backoff = Backoff::new();
            loop {
                ec.notify_all(Sleep::Portable);
                if waiter.is_finished() {
                    break;
                }
                backoff.snooze();
            }
            let (timed_out, saw_flag) = waiter.join().unwrap();
            assert!(timed_out, "phase 1 condition was never true");
            assert!(saw_flag, "phase 2 returned before its condition held");
        });
        assert_eq!(listed(&ec), 0);
    }
}
