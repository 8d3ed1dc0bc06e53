//! Writer exclusion on the BRAVO-patched semaphore.

use std::sync::atomic::{AtomicU64 as TestCounter, Ordering};
use std::sync::Arc;

use rwsem::BravoRwSemaphore;

#[test]
fn writer_revokes_and_waits_for_fast_readers() {
    let sem = Arc::new(BravoRwSemaphore::new());
    sem.down_read();
    sem.up_read();
    sem.down_read(); // fast read, held across the writer's arrival
    let entered = Arc::new(TestCounter::new(0));
    std::thread::scope(|s| {
        let sem2 = Arc::clone(&sem);
        let entered2 = Arc::clone(&entered);
        s.spawn(move || {
            sem2.down_write();
            entered2.store(1, Ordering::SeqCst);
            sem2.up_write();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "writer entered past a fast reader"
        );
        sem.up_read();
    });
    assert_eq!(entered.load(Ordering::SeqCst), 1);
    assert!(!sem.is_reader_biased());
}
