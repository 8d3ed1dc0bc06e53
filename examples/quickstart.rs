//! Quickstart: using BRAVO locks from application code.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the three ways to use the library — the
//! data-carrying `BravoRwLock`, composing BRAVO over a specific underlying
//! lock from the zoo, and the raw `BravoLock` — and finishes by
//! printing the process-wide BRAVO statistics so you can see the fast path
//! doing its job.

use std::sync::Arc;
use std::thread;

use bravo_repro::bravo::{stats, BravoLock, BravoRwLock};
use bravo_repro::rwlocks::PhaseFairQueueLock;

fn main() {
    let before = stats::snapshot();

    // 1. The everyday API: an RwLock-alike protecting shared data.
    let config: Arc<BravoRwLock<Vec<String>>> =
        Arc::new(BravoRwLock::new(vec!["initial".to_string()]));

    let mut readers = Vec::new();
    for t in 0..4 {
        let config = Arc::clone(&config);
        readers.push(thread::spawn(move || {
            let mut seen = 0usize;
            for _ in 0..50_000 {
                // Read-mostly access: after the first read enables reader
                // bias, these take BRAVO's fast path through the shared
                // visible readers table.
                seen = seen.max(config.read().len());
            }
            println!("reader {t}: saw up to {seen} entries");
        }));
    }

    // One writer updates the configuration a few times; each write revokes
    // reader bias, scans the table, and the inhibit-until policy bounds how
    // much that can cost the writers overall.
    {
        let config = Arc::clone(&config);
        for i in 0..5 {
            config.write().push(format!("update-{i}"));
        }
    }
    for handle in readers {
        handle.join().expect("reader panicked");
    }
    println!("final config entries: {}", config.read().len());

    // 2. Composing BRAVO over a specific underlying lock ("BRAVO-BA").
    let bravo_ba: BravoRwLock<u64, PhaseFairQueueLock> = BravoRwLock::new(0);
    *bravo_ba.write() += 1;
    assert_eq!(*bravo_ba.read(), 1);

    // 3. The raw form (what kernel-style integrations use): the release
    //    takes no token, it re-derives the table slot.
    let raw: BravoLock<PhaseFairQueueLock> = BravoLock::new();
    let fast = raw.read_lock();
    println!("raw read acquisition used fast path: {fast}");
    raw.read_unlock();

    // Fast-path statistics for everything this process did above.
    let delta = stats::snapshot().since(&before);
    println!(
        "reads: {} total, {:.1}% fast path ({} slow: {} bias-disabled, {} collisions, {} raced)",
        delta.total_reads(),
        delta.fast_read_fraction() * 100.0,
        delta.slow_reads(),
        delta.slow_reads_disabled,
        delta.slow_reads_collision,
        delta.slow_reads_raced,
    );
    println!(
        "writes: {} total, {} required revocation",
        delta.writes, delta.revocations
    );
}
