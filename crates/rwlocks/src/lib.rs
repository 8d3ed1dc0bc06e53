//! The reader-writer lock zoo used in the BRAVO paper's evaluation.
//!
//! Every lock here implements [`bravo::RawRwLock`], so any of them can be
//! used directly, wrapped by the BRAVO transformation, or selected at run
//! time through the [`catalog`]. The inventory mirrors §2 and §5 of the
//! paper:
//!
//! | Paper name  | Type | Reader indicator | Preference |
//! |-------------|------|------------------|------------|
//! | BA (PF-Q) | [`PhaseFairQueueLock`] | central ingress/egress counters, queued writers | phase-fair |
//! | pthread | [`PthreadRwLock`] | central count, blocking waiters | strong reader preference |
//! | Cohort-RW (C-RW-WP) | [`CohortRwLock`] | one per NUMA node | writer preference |
//! | Per-CPU | [`PerCpuRwLock`] | one sub-lock per logical CPU | reader-friendly, writer scans all |
//!
//! Supporting mutual-exclusion locks (ticket, MCS, and the NUMA-aware cohort
//! mutex used by Cohort-RW) live in [`mutex`]. [`footprint`] reports
//! per-instance memory footprints, reproducing the size accounting of §5.
//! The BRAVO composites are built through the [`catalog`] (for example
//! [`LockKind::BravoBa`]), and the data-carrying wrapper is
//! [`bravo::BravoRwLock`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod cohort;
pub mod footprint;
pub mod mutex;
pub mod percpu;
pub mod pf_q;
pub mod pthread_like;
#[cfg(test)]
mod tests_support;

pub use bravo::{RawRwLock, RawTryRwLock, TryLockError};
pub use catalog::{build_lock, LockKind};
pub use cohort::CohortRwLock;
pub use mutex::{CohortMutex, McsMutex, RawMutex, TicketMutex};
pub use percpu::PerCpuRwLock;
pub use pf_q::PhaseFairQueueLock;
pub use pthread_like::PthreadRwLock;
