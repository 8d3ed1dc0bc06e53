//! Per-instance memory footprint accounting.
//!
//! §5 of the paper devotes a long discussion to lock sizes: BA fits in one
//! 128-byte sector, BRAVO adds 12 bytes of logical state, Per-CPU costs one
//! sector per logical CPU (9216 bytes on the 72-way testbed), Cohort-RW
//! around 896 bytes on two nodes, and the shared visible readers table is a
//! one-off 32 KiB. This module reproduces that accounting so the claims can
//! be asserted in tests and reported by the benchmark harness.

use topology::SECTOR;

use crate::cohort::CohortRwLock;
use crate::percpu::PerCpuRwLock;
use crate::pf_q::PhaseFairQueueLock;
use crate::pthread_like::PthreadRwLock;
use bravo::{AnonymousReaders, BravoLock, RawRwLock};

/// Types that can report how much memory one lock instance occupies,
/// including heap allocations reachable from it.
pub trait Footprint {
    /// Total bytes occupied by this instance (inline plus owned heap).
    fn footprint_bytes(&self) -> usize;

    /// The instance size rounded up to whole cache sectors, which is how a
    /// careful embedding (one lock per sector to avoid false sharing) would
    /// account for it.
    fn sector_footprint(&self) -> usize {
        self.footprint_bytes().div_ceil(SECTOR) * SECTOR
    }
}

/// Free-function form of [`Footprint::footprint_bytes`], convenient in
/// assertions.
pub fn dynamic_footprint<T: Footprint>(value: &T) -> usize {
    value.footprint_bytes()
}

macro_rules! inline_footprint {
    ($($ty:ty),* $(,)?) => {
        $(impl Footprint for $ty {
            fn footprint_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        })*
    };
}

inline_footprint!(PhaseFairQueueLock, PthreadRwLock);

impl<R: RawRwLock> Footprint for PerCpuRwLock<R> {
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cpus() * SECTOR.max(std::mem::size_of::<R>())
    }
}

impl Footprint for CohortRwLock {
    fn footprint_bytes(&self) -> usize {
        // One padded reader indicator per node, the padded writer barrier,
        // and the cohort mutex (one padded node lock per node plus the
        // global ticket lock), mirroring the paper's 896-byte accounting for
        // a 4-node Cohort-RW instance.
        std::mem::size_of::<Self>()
            + self.nodes() * SECTOR
            + SECTOR
            + self.nodes() * SECTOR
            + SECTOR
    }
}

impl<L: AnonymousReaders + Footprint> Footprint for BravoLock<L> {
    fn footprint_bytes(&self) -> usize {
        // RBias + InhibitUntil + the underlying lock; the visible readers
        // table is shared process-wide and therefore not charged per lock.
        bravo_added_bytes() + self.underlying().footprint_bytes()
    }
}

/// The per-lock state BRAVO adds: the 4-byte `RBias` flag and the 8-byte
/// `InhibitUntil` timestamp (12 logical bytes, as stated in §5).
pub fn bravo_added_bytes() -> usize {
    12
}

/// Size of the shared visible readers table, charged once per process.
pub fn shared_table_bytes() -> usize {
    bravo::DEFAULT_TABLE_SIZE * std::mem::size_of::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_fits_in_a_single_sector() {
        let ba = PhaseFairQueueLock::new();
        assert!(ba.footprint_bytes() <= SECTOR);
        assert_eq!(ba.sector_footprint(), SECTOR);
    }

    #[test]
    fn bravo_ba_still_fits_in_a_single_sector() {
        // §5: "Rounding up to the sector size, this still yields a 128 byte
        // lock instance."
        let lock: BravoLock<PhaseFairQueueLock> = BravoLock::new();
        assert!(lock.footprint_bytes() <= SECTOR);
        assert_eq!(lock.sector_footprint(), SECTOR);
    }

    #[test]
    fn per_cpu_footprint_matches_paper_accounting() {
        // One BA-sized sector per logical CPU: 72 CPUs → 9216 bytes.
        let lock: PerCpuRwLock<PhaseFairQueueLock> = PerCpuRwLock::with_cpus(72);
        assert!(lock.footprint_bytes() >= 72 * SECTOR);
    }

    #[test]
    fn cohort_rw_is_much_larger_than_ba() {
        let cohort = CohortRwLock::with_nodes(2);
        let ba = PhaseFairQueueLock::new();
        assert!(cohort.footprint_bytes() >= 4 * ba.sector_footprint());
    }

    #[test]
    fn shared_table_is_32_kib() {
        assert_eq!(shared_table_bytes(), 32 * 1024);
    }

    #[test]
    fn pthread_footprint_is_compact() {
        // glibc's is 56 bytes; ours must stay within one sector.
        assert!(std::mem::size_of::<PthreadRwLock>() <= SECTOR);
    }
}
