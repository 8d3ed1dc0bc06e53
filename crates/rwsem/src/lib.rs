//! A user-space simulation of the Linux kernel's reader-writer semaphore
//! (`rwsem`), and the BRAVO integration described in §4 of the paper.
//!
//! The kernel experiments in the paper (locktorture, will-it-scale, Metis)
//! all contend on `rwsem` — most prominently `mmap_sem`, the semaphore
//! protecting each process's virtual-memory-area structures. Since a
//! reproduction cannot patch the host kernel, this crate re-implements the
//! rwsem state machine in user space with the same moving parts:
//!
//! * a shared **count** word combining the active-reader count with a
//!   writer-locked flag and a waiters-present flag (the cache line whose
//!   contention BRAVO removes);
//! * an **owner** field that writers set to their task identity and readers
//!   mark with "reader-owned" bits — including the paper's observation that
//!   the stock kernel lets *every* reader store to it (creating needless
//!   contention) and the patch's fix of writing it only when it changes;
//! * **optimistic spinning** (spin-on-owner) before blocking;
//! * a FIFO **wait queue** with reader-grouping wakeups.
//!
//! [`BravoRwSemaphore`] applies the paper's patch on top. It is
//! [`bravo::BravoLock`] over [`RwSemaphore`], the same engine as every
//! user-space BRAVO lock: a read fast path through the global visible
//! readers table keyed by `(task, semaphore)`. Like `up_read`, BRAVO's
//! release [`BravoLock::read_unlock`](bravo::BravoLock::read_unlock)
//! carries no token: it locates the slot by re-hashing and frees it only if
//! it still holds the semaphore's address. That is sound because the task
//! that acquired for read also releases (the simplifying assumption the
//! kernel patch makes) and the semaphore's reader count is anonymous.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod bravo_sem;
mod sem;

pub use bravo_sem::BravoRwSemaphore;
pub use sem::{RwSemaphore, RwsemConfig};

/// Common interface over the stock and BRAVO semaphores so that kernel
/// workload simulators can be written once.
pub trait RwSem: Send + Sync {
    /// Acquires the semaphore for reading (kernel `down_read`).
    fn down_read(&self);
    /// Attempts a non-blocking read acquisition (kernel `down_read_trylock`).
    fn down_read_trylock(&self) -> bool;
    /// Releases a read acquisition (kernel `up_read`).
    fn up_read(&self);
    /// Acquires the semaphore for writing (kernel `down_write`).
    fn down_write(&self);
    /// Attempts a non-blocking write acquisition (kernel `down_write_trylock`).
    fn down_write_trylock(&self) -> bool;
    /// Releases a write acquisition (kernel `up_write`).
    fn up_write(&self);
}

impl RwSem for RwSemaphore {
    fn down_read(&self) {
        RwSemaphore::down_read(self)
    }

    fn down_read_trylock(&self) -> bool {
        RwSemaphore::down_read_trylock(self)
    }

    fn up_read(&self) {
        RwSemaphore::up_read(self)
    }

    fn down_write(&self) {
        RwSemaphore::down_write(self)
    }

    fn down_write_trylock(&self) -> bool {
        RwSemaphore::down_write_trylock(self)
    }

    fn up_write(&self) {
        RwSemaphore::up_write(self)
    }
}

impl RwSem for BravoRwSemaphore {
    fn down_read(&self) {
        BravoRwSemaphore::down_read(self)
    }

    fn down_read_trylock(&self) -> bool {
        BravoRwSemaphore::down_read_trylock(self)
    }

    fn up_read(&self) {
        BravoRwSemaphore::up_read(self)
    }

    fn down_write(&self) {
        BravoRwSemaphore::down_write(self)
    }

    fn down_write_trylock(&self) -> bool {
        BravoRwSemaphore::down_write_trylock(self)
    }

    fn up_write(&self) {
        BravoRwSemaphore::up_write(self)
    }
}

/// Which semaphore implementation a kernel-simulation workload should use —
/// "stock" is the unmodified kernel, "BRAVO" the patched one, matching the
/// two kernels compared in §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The unmodified rwsem.
    Stock,
    /// rwsem with the BRAVO read fast path.
    Bravo,
    /// rwsem with the BRAVO patch applied but the setting of `RBias`
    /// disabled — the control the paper uses to validate its locktorture
    /// hypothesis (§6.1).
    BravoBiasDisabled,
}

impl KernelVariant {
    /// All variants, in presentation order.
    pub fn all() -> &'static [KernelVariant] {
        &[
            KernelVariant::Stock,
            KernelVariant::Bravo,
            KernelVariant::BravoBiasDisabled,
        ]
    }

    /// Display name used by the harness.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Stock => "stock",
            KernelVariant::Bravo => "BRAVO",
            KernelVariant::BravoBiasDisabled => "BRAVO-nobias",
        }
    }

    /// Parses a name as produced by [`KernelVariant::name`]
    /// (case-insensitive), for the kernel-side binaries' `--lock` flags.
    pub fn parse(name: &str) -> Option<Self> {
        let lowered = name.to_ascii_lowercase();
        Self::all()
            .iter()
            .copied()
            .find(|v| v.name().to_ascii_lowercase() == lowered)
    }

    /// Creates a semaphore of this variant.
    pub fn make_sem(self) -> std::sync::Arc<dyn RwSem> {
        match self {
            KernelVariant::Stock => std::sync::Arc::new(RwSemaphore::new()),
            KernelVariant::Bravo => std::sync::Arc::new(BravoRwSemaphore::new()),
            KernelVariant::BravoBiasDisabled => {
                std::sync::Arc::new(BravoRwSemaphore::with_bias_disabled())
            }
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_variants_construct_working_semaphores() {
        for &v in KernelVariant::all() {
            let sem = v.make_sem();
            sem.down_read();
            sem.up_read();
            sem.down_write();
            sem.up_write();
            assert!(sem.down_read_trylock());
            sem.up_read();
            assert!(sem.down_write_trylock());
            sem.up_write();
        }
    }

    #[test]
    fn variant_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            KernelVariant::all().iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), KernelVariant::all().len());
    }
}
