//! Root crate of the BRAVO reproduction workspace.
//!
//! This crate re-exports the public surface of every workspace member so
//! that the examples under `examples/` and the cross-crate integration tests
//! under `tests/` have a single import root. Applications embedding BRAVO
//! should depend on the individual crates (`bravo`, `rwlocks`, …) directly.
//!
//! # Map of the workspace
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`bravo`] | the BRAVO transformation: visible readers table, bias policy, `BravoLock`, `BravoRwLock` |
//! | [`rwlocks`] | the paper's locks: BA (PF-Q), Cohort-RW, Per-CPU, pthread-like, plus mutex substrates |
//! | [`topology`] | simulated machine topology and cache geometry |
//! | [`rwsem`] | Linux rwsem simulation and the BRAVO kernel patch |
//! | [`kernelsim`] | locktorture, the simulated mm/VMA subsystem, will-it-scale drivers |
//! | [`kvstore`] | RocksDB-like memtable, persistent-cache hash table, mini DB |
//! | [`mapreduce`] | Metis-like MapReduce with the `wc` and `wrmem` applications |
//! | [`workloads`] | Figure 1–4 workload generators and the measurement harness |
//! | [`server`] | `bravod`: the TCP front over the mini DB plus the open-loop load generator |
//! | [`report`] | results post-processing: CSV/`BENCH_locks.json` readers, SVG figures, `RESULTS.md` |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use bravo;
pub use kernelsim;
pub use kvstore;
pub use mapreduce;
pub use report;
pub use rwlocks;
pub use rwsem;
pub use server;
pub use topology;
pub use workloads;

/// The paper this workspace reproduces.
pub const PAPER: &str =
    "BRAVO -- Biased Locking for Reader-Writer Locks, Dice & Kogan, USENIX ATC 2019";

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        // Touch one item from each re-exported crate so a broken re-export
        // fails this crate's own test run, not only downstream users.
        let _ = crate::bravo::DEFAULT_TABLE_SIZE;
        let _ = crate::rwlocks::LockKind::all();
        let _ = crate::topology::SECTOR;
        let _ = crate::rwsem::KernelVariant::all();
        let _ = crate::kernelsim::PAGE_SIZE;
        let _ = crate::kvstore::Db::open(crate::rwlocks::LockKind::Ba);
        let _ = crate::mapreduce::generate_text(16, 1);
        let _ = crate::workloads::paper_thread_series(4);
        let _ = crate::server::MAX_FRAME_LEN;
        let _ = crate::report::svg::SERIES_COLORS;
        assert!(crate::PAPER.contains("BRAVO"));
    }
}
