//! A RocksDB-like key-value substrate for the paper's database experiments.
//!
//! The BRAVO paper evaluates two RocksDB benchmarks (Figures 5 and 6). What
//! those benchmarks actually stress is not the LSM storage engine but two
//! specific reader-writer-lock-protected structures, which this crate
//! rebuilds:
//!
//! * [`memtable`] — the in-memory write buffer whose `GetLock` is hammered
//!   by `::Get()` calls in the `readwhilewriting` benchmark (the paper runs
//!   it with `--inplace_update_support=1 --inplace_update_num_locks=1`, i.e.
//!   a single reader-writer lock guarding in-place value updates).
//! * [`hash_cache`] — the persistent cache's hash table: a hash map behind
//!   one reader-writer lock, exercised by `hash_table_bench` with one
//!   inserter thread, one eraser thread and `T` reader threads.
//! * [`db`] — a `Get`/`Put`/`Delete` façade over `shards=N` key-hashed
//!   memtables (one by default), used by the `bravod` server and the
//!   runnable examples; batched forms (`multi_get`, `write_batch`) amortize
//!   lock acquisitions per wire frame.
//!
//! Every structure takes its lock as a [`rwlocks::LockKind`], so the
//! benchmark harness can sweep the same lock set the paper plots.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod db;
pub mod hash_cache;
pub mod memtable;
mod table;
pub mod workloads;

pub use db::{Db, OpenError};
pub use hash_cache::{HashCache, KeyHashBuilder, KeyHasher};
pub use memtable::{BatchOp, MemTable};
pub use workloads::{
    run_hash_table_bench, run_readwhilewriting, HashTableBenchResult, ReadWhileWritingResult,
};
