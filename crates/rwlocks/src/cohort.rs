//! Cohort-RW (C-RW-WP): the NUMA-aware reader-writer lock of Calciu et al.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bravo::wait::{WaitMode, WaitStrategy};
use bravo::{RawRwLock, RawTryRwLock, TryLockError};
use topology::CachePadded;

use crate::mutex::{CohortMutex, RawMutex};

/// One NUMA node's reader indicator, split into ingress and egress counters
/// (arriving readers increment ingress, departing readers increment egress)
/// to halve write sharing, as the cohort paper does.
#[derive(Default)]
struct NodeIndicator {
    ingress: AtomicU64,
    egress: AtomicU64,
}

impl NodeIndicator {
    fn is_empty(&self) -> bool {
        // Read egress before ingress so a concurrent arrival can only make
        // the pair look non-empty, never empty.
        let egress = self.egress.load(Ordering::Acquire);
        let ingress = self.ingress.load(Ordering::Acquire);
        ingress == egress
    }
}

/// The C-RW-WP cohort reader-writer lock: distributed per-NUMA-node reader
/// indicators plus a cohort mutex for writers, with writer preference.
///
/// This is the "Cohort-RW" baseline of the paper's user-space evaluation: it
/// scales reader arrival by giving every node its own indicator (readers on
/// different sockets never touch the same cache line), at the price of a
/// large, topology-dependent footprint and writers that must visit every
/// node's indicator. Writer preference comes from the writer raising a
/// barrier flag *before* waiting for readers to drain: readers that arrive
/// later withdraw their arrival and wait.
///
/// A read is released on the calling thread's node, so the lock is not
/// [`AnonymousReaders`](bravo::AnonymousReaders) and BRAVO cannot wrap it:
///
/// ```compile_fail,E0277
/// let _ = bravo::BravoLock::<rwlocks::CohortRwLock>::new();
/// ```
pub struct CohortRwLock {
    indicators: Box<[CachePadded<NodeIndicator>]>,
    /// Raised while a writer holds (or is about to hold) the lock.
    writer_barrier: CachePadded<AtomicBool>,
    /// Serializes writers NUMA-friendlily.
    writer_lock: CohortMutex,
    wait: WaitStrategy,
}

impl CohortRwLock {
    /// Creates a cohort lock sized for the simulated machine's node count.
    pub fn for_machine() -> Self {
        Self::with_nodes(topology::numa_nodes())
    }

    /// Creates a cohort lock with an explicit number of reader-indicator
    /// nodes (tests and footprint accounting).
    pub fn with_nodes(nodes: usize) -> Self {
        Self::with_nodes_and_wait(nodes, WaitMode::Spin)
    }

    /// Creates a cohort lock with an explicit node count whose waiters
    /// (readers behind the barrier, the writer's drain, the cohort mutex)
    /// use the given wait mode.
    pub fn with_nodes_and_wait(nodes: usize, mode: WaitMode) -> Self {
        let nodes = nodes.max(1);
        Self {
            indicators: (0..nodes)
                .map(|_| CachePadded::new(NodeIndicator::default()))
                .collect(),
            writer_barrier: CachePadded::new(AtomicBool::new(false)),
            writer_lock: CohortMutex::with_nodes_and_wait(
                nodes,
                CohortMutex::DEFAULT_MAX_HANDOFFS,
                mode,
            ),
            wait: WaitStrategy::new(mode),
        }
    }

    /// Number of per-node reader indicators.
    pub fn nodes(&self) -> usize {
        self.indicators.len()
    }

    #[inline]
    fn key(&self) -> usize {
        self as *const Self as usize
    }

    fn my_indicator(&self) -> &NodeIndicator {
        &self.indicators[topology::current_node() % self.indicators.len()]
    }

    fn wait_for_all_readers(&self) {
        for node in self.indicators.iter() {
            self.wait.wait_until(self.key(), || node.is_empty());
        }
    }
}

impl RawRwLock for CohortRwLock {
    fn new() -> Self {
        Self::for_machine()
    }

    fn with_wait(mode: WaitMode) -> Self {
        Self::with_nodes_and_wait(topology::numa_nodes(), mode)
    }

    fn lock_shared(&self) {
        let indicator = self.my_indicator();
        loop {
            // Announce arrival, then check the writer barrier. The SeqCst
            // increment/load pair forms a Dekker handshake with the writer's
            // SeqCst barrier-store/indicator-scan.
            indicator.ingress.fetch_add(1, Ordering::SeqCst);
            if !self.writer_barrier.load(Ordering::SeqCst) {
                return;
            }
            // Writer preference: withdraw and wait for the writer to finish.
            // The withdrawal is a departure the draining writer may be
            // parked on, so it must notify too.
            indicator.egress.fetch_add(1, Ordering::SeqCst);
            self.wait.notify_all(self.key());
            self.wait
                .wait_until(self.key(), || !self.writer_barrier.load(Ordering::Relaxed));
        }
    }

    fn unlock_shared(&self) {
        self.my_indicator().egress.fetch_add(1, Ordering::Release);
        // The draining writer polls every node's indicator; per-node
        // last-departure detection would race with withdrawals, so wake it
        // on each egress (no-op without parked waiters).
        self.wait.notify_all(self.key());
    }

    fn lock_exclusive(&self) {
        self.writer_lock.lock();
        self.writer_barrier.store(true, Ordering::SeqCst);
        self.wait_for_all_readers();
    }

    fn unlock_exclusive(&self) {
        self.writer_barrier.store(false, Ordering::SeqCst);
        self.wait.notify_all(self.key());
        self.writer_lock.unlock();
    }

    fn name() -> &'static str {
        "Cohort-RW"
    }
}

impl RawTryRwLock for CohortRwLock {
    fn try_lock_shared(&self) -> Result<(), TryLockError> {
        let indicator = self.my_indicator();
        indicator.ingress.fetch_add(1, Ordering::SeqCst);
        if !self.writer_barrier.load(Ordering::SeqCst) {
            return Ok(());
        }
        indicator.egress.fetch_add(1, Ordering::SeqCst);
        Err(TryLockError::WouldBlock)
    }

    fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        if !self.writer_lock.try_lock() {
            return Err(TryLockError::WouldBlock);
        }
        self.writer_barrier.store(true, Ordering::SeqCst);
        // Single pass over the indicators: if any node has active readers,
        // back off rather than wait.
        if self.indicators.iter().all(|n| n.is_empty()) {
            Ok(())
        } else {
            self.writer_barrier.store(false, Ordering::SeqCst);
            self.writer_lock.unlock();
            Err(TryLockError::WouldBlock)
        }
    }
}

impl Default for CohortRwLock {
    fn default() -> Self {
        <Self as RawRwLock>::new()
    }
}

impl std::fmt::Debug for CohortRwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortRwLock")
            .field("nodes", &self.nodes())
            .field(
                "writer_barrier",
                &self.writer_barrier.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{
        exclusion_torture, mixed_torture, read_concurrency_smoke, try_lock_matrix,
    };
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn basic_semantics() {
        try_lock_matrix::<CohortRwLock>();
    }

    #[test]
    fn readers_are_concurrent() {
        read_concurrency_smoke::<CohortRwLock>();
    }

    #[test]
    fn writers_exclude_each_other() {
        exclusion_torture::<CohortRwLock>(4, 2_000);
    }

    #[test]
    fn mixed_readers_and_writers() {
        mixed_torture::<CohortRwLock>(4, 1_000);
    }

    #[test]
    fn writer_preference_blocks_new_readers() {
        // Once a writer has raised the barrier (even while it waits for
        // current readers to drain), new readers must be refused.
        let l = Arc::new(CohortRwLock::with_nodes(2));
        l.lock_shared();
        let writer_in = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let l2 = Arc::clone(&l);
            let wi = Arc::clone(&writer_in);
            s.spawn(move || {
                l2.lock_exclusive();
                wi.store(true, Ordering::SeqCst);
                l2.unlock_exclusive();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!writer_in.load(Ordering::SeqCst));
            assert!(
                l.try_lock_shared().is_err(),
                "reader admitted past a pending writer"
            );
            l.unlock_shared();
        });
        assert!(writer_in.load(Ordering::SeqCst));
        assert!(l.try_lock_shared().is_ok());
        l.unlock_shared();
    }

    #[test]
    fn readers_on_different_nodes_use_distinct_indicators() {
        // White-box: after two registered threads on different simulated
        // nodes take read permission, both node indicators show traffic.
        let l = Arc::new(CohortRwLock::with_nodes(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                s.spawn(move || {
                    for _ in 0..100 {
                        l.lock_shared();
                        l.unlock_shared();
                    }
                });
            }
        });
        let touched = l
            .indicators
            .iter()
            .filter(|n| n.ingress.load(Ordering::Relaxed) > 0)
            .count();
        assert!(touched >= 1);
        // All arrivals were matched by departures.
        for n in l.indicators.iter() {
            assert_eq!(
                n.ingress.load(Ordering::Relaxed),
                n.egress.load(Ordering::Relaxed)
            );
        }
    }
}
