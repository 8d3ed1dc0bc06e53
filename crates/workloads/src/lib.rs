//! User-space benchmark workload generators and the measurement harness.
//!
//! This crate implements the four user-space microbenchmarks of the paper's
//! §5, factored out of the harness binaries so they can also be exercised by
//! integration tests:
//!
//! * [`interference`] — the inter-lock interference experiment (Figure 1):
//!   64 threads picking read locks at random from a pool of `N`, measuring
//!   shared-table BRAVO against an idealized private-table BRAVO.
//! * [`mod@alternator`] — the alternator ring (Figure 2): threads pass a token
//!   around a ring, each acquiring/releasing read permission once per hop;
//!   no read-read concurrency, pure reader-arrival coherence cost.
//! * [`mod@test_rwlock`] — Desnoyers et al.'s `test_rwlock` (Figure 3): one
//!   fixed-role writer plus `T` fixed-role readers on a central lock.
//! * [`mod@rwbench`] — RWBench (Figure 4): every thread mixes reads and writes
//!   with a configurable write probability from 90 % down to 0.01 %.
//!
//! [`harness`] holds the shared measurement utilities: timed thread drivers,
//! median-of-k repetition, and the thread-count series used on the figures'
//! X axes.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alternator;
pub mod harness;
pub mod interference;
pub mod rwbench;
pub mod test_rwlock;

pub use alternator::alternator;
pub use harness::{median_of, paper_thread_series, run_for, ThroughputResult};
pub use interference::{interference_ratio, interference_run, InterferenceResult};
pub use rwbench::{rwbench, RwBenchConfig};
pub use test_rwlock::{test_rwlock, TestRwlockConfig};
