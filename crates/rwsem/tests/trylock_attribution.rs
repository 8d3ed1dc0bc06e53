//! `down_read_trylock` records why a read went slow.
//!
//! The semaphore records into the process totals, so this check lives in a
//! test binary of its own: no other test runs in the process to move them.

use bravo::stats;
use bravo::vrt::{global_table, TableHandle};
use rwsem::BravoRwSemaphore;

#[test]
fn trylock_blames_a_slot_collision_not_disabled_bias() {
    let sem = BravoRwSemaphore::new();
    sem.down_read();
    sem.up_read();
    assert!(sem.is_reader_biased());
    // Another address occupies this thread's slot in the global table.
    let addr = &sem as *const BravoRwSemaphore as usize;
    let table = global_table();
    let slot = TableHandle::global().slot_for(addr, topology::current_thread_id());
    let squatter = addr ^ 0x40;
    assert!(table.try_publish(slot, squatter));
    let before = stats::snapshot();
    assert!(sem.down_read_trylock());
    let delta = stats::snapshot().since(&before);
    assert_eq!(sem.inner().active_readers(), 1, "the read must be slow");
    assert_eq!(delta.slow_reads_collision, 1);
    assert_eq!(delta.slow_reads_disabled, 0);
    sem.up_read();
    table.clear(slot, squatter);
}
