//! BRAVO — Biased Locking for Reader-Writer Locks.
//!
//! This crate implements the BRAVO transformation described by Dice & Kogan
//! (USENIX ATC 2019). BRAVO takes *any* existing reader-writer lock `A` and
//! produces a composite lock `BRAVO-A` with scalable reader acquisition:
//!
//! * Readers first consult a per-lock reader-bias flag. If bias is enabled
//!   they hash their thread identity with the lock address into a process-
//!   wide **visible readers table** and try to CAS the lock's address into
//!   that slot. On success they hold read permission *without touching the
//!   underlying lock*, so concurrent readers of the same lock write to
//!   different cache lines and generate no coherence storm on a central
//!   reader indicator.
//! * On any failure (bias disabled, slot occupied, writer raced in) the
//!   reader falls back to the underlying lock's ordinary read path.
//! * Writers always acquire the underlying lock. If reader bias was enabled
//!   they revoke it: clear the flag, then scan the table and wait for every
//!   fast-path reader of this lock to depart.
//! * A *primum-non-nocere* policy measures the revocation latency and
//!   inhibits re-enabling bias for `N×` that long, bounding the worst-case
//!   writer slow-down to roughly `1/(N+1)`.
//!
//! # Quick start
//!
//! ```
//! use bravo::BravoRwLock;
//!
//! let lock: BravoRwLock<Vec<i32>> = BravoRwLock::new(vec![1, 2, 3]);
//!
//! // Many concurrent readers take the fast path through the shared table.
//! {
//!     let data = lock.read();
//!     assert_eq!(data.len(), 3);
//! }
//!
//! // Writers go through the underlying lock and revoke reader bias.
//! lock.write().push(4);
//! assert_eq!(lock.read().len(), 4);
//! ```
//!
//! # Composing with other locks
//!
//! The transformation is generic over any [`RawRwLock`] whose read holds
//! are [`AnonymousReaders`]. The companion `rwlocks` crate provides the
//! locks of the paper's evaluation (BA/PF-Q, Cohort-RW, Per-CPU, a
//! pthread-like lock); wrapping BA or the pthread-like lock is just a type
//! parameter (Cohort-RW and Per-CPU release reads per node or per
//! CPU, so BRAVO does not wrap them):
//!
//! ```
//! use bravo::BravoRwLock;
//! use rwlocks::PhaseFairQueueLock;
//!
//! // "BRAVO-BA" from the paper.
//! let lock: BravoRwLock<u64, PhaseFairQueueLock> = BravoRwLock::new(0);
//! ```
//!
//! # Crate layout
//!
//! * [`raw`] — the [`RawRwLock`] trait that underlying locks implement, the
//!   [`AnonymousReaders`] marker BRAVO requires of them, and a minimal
//!   default spin lock.
//! * [`vrt`] — the visible readers table behind the [`ReaderTable`]
//!   abstraction: the flat and sectored layouts, the
//!   process-shared instances, and the [`TableHandle`] locks hold.
//! * [`lock`] — [`BravoLock`], the raw form of the algorithm and the only
//!   BRAVO engine, whose read release re-derives the table slot instead of
//!   carrying a token: BRAVO-2D, sketched in the paper's future-work
//!   section, is the same lock over the sectored layout.
//! * [`rwlock`] — [`BravoRwLock`], the data-carrying RAII-guard form.
//! * [`policy`] — the bias-enabling policy (inhibit-until) and its
//!   `Disabled` switch.
//! * [`stats`] — statistics counters (fast/slow reads, revocations), each
//!   event recorded once into a per-thread or per-lock block
//!   ([`stats::LockStats`]) and summed into process totals at read time.
//! * [`spec`] — the declarative construction API: [`LockSpec`] (which lock,
//!   configured how — with a compact string form) and
//!   [`LockHandle`] (the harness-facing built lock).
//! * [`wait`] — the blocking layer: parking waiter queues, the Linux futex
//!   backend, and the [`WaitStrategy`] that lets every lock dispatch between
//!   them (`wait=spin|park|futex`).
//! * [`sys`] — the raw-syscall seam (futex, epoll, mem): the single module
//!   allowed to declare foreign functions, enforced by `schedcheck lint`.
//! * [`clock`] — the monotonic nanosecond clock BRAVO's policy relies on.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod hash;
pub mod lock;
pub mod model;
pub mod policy;
pub mod raw;
pub mod rwlock;
pub mod spec;
pub mod stats;
pub mod sync;
pub mod sys;
pub mod vrt;
pub mod wait;

pub use lock::{BravoLock, TRY_WRITE_BUDGET};
pub use policy::{BiasPolicy, DEFAULT_INHIBIT_MULTIPLIER};
pub use raw::{AnonymousReaders, DefaultRwLock, RawRwLock, RawTryRwLock, TryLockError};
pub use rwlock::{BravoReadGuard, BravoRwLock, BravoWriteGuard};
pub use spec::{LockHandle, LockSpec, SpecError, SpecParseError, TableSpec};
pub use stats::{LockStats, Snapshot, StatsSink};
pub use vrt::{
    ReaderTable, Revocation, SectoredTable, TableHandle, VisibleReadersTable, DEFAULT_TABLE_SIZE,
};
pub use wait::{FutexEventCount, WaitMode, WaitQueue, WaitStrategy};
