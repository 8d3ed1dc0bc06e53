//! Thread registry: stable small thread ids and logical CPU assignment.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::machine;

/// Small, dense identifier for a registered thread.
///
/// Ids are handed out in arrival order starting from zero and are never
/// reused within a process, which makes them suitable as hash inputs
/// (BRAVO's `(thread, lock)` hash) and as direct indices into per-thread
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

impl ThreadId {
    /// The raw integer value of the id.
    pub fn as_usize(self) -> usize {
        self.0
    }

    /// Logical CPU this thread is (logically) pinned to: round-robin in
    /// registration order.
    pub fn cpu(self) -> usize {
        self.0 % machine().logical_cpus()
    }
}

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Returns the calling thread's [`ThreadId`], assigning one on first use.
pub fn current_thread_id() -> ThreadId {
    TID.with(|slot| {
        if let Some(id) = slot.get() {
            ThreadId(id)
        } else {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(id));
            ThreadId(id)
        }
    })
}

/// Number of threads that have registered so far (i.e. called any of the
/// `current_*` functions).
pub fn registered_threads() -> usize {
    NEXT_ID.load(Ordering::Relaxed)
}

/// Logical CPU the calling thread is (logically) pinned to.
///
/// Threads are assigned to CPUs round-robin in registration order, which is
/// the steady-state placement an unbound benchmark thread pool converges to.
pub fn current_cpu() -> usize {
    current_thread_id().cpu()
}

/// NUMA node of the calling thread's logical CPU.
pub fn current_node() -> usize {
    machine().node_of_cpu(current_cpu())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn thread_id_is_stable_within_a_thread() {
        let a = current_thread_id();
        let b = current_thread_id();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_ids_are_unique_across_threads() {
        let ids = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let id = current_thread_id();
                    assert!(ids.lock().unwrap().insert(id));
                });
            }
        });
        assert_eq!(ids.into_inner().unwrap().len(), 8);
    }

    #[test]
    fn cpu_and_node_are_in_range() {
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    assert!(current_cpu() < machine().logical_cpus());
                    assert!(current_node() < machine().nodes());
                });
            }
        });
    }

    #[test]
    fn registered_threads_is_monotone() {
        let before = registered_threads();
        std::thread::scope(|s| {
            s.spawn(|| {
                current_thread_id();
            });
        });
        assert!(registered_threads() > before);
    }
}
