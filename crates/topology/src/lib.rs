//! Simulated machine topology.
//!
//! Several of the locks evaluated in the BRAVO paper (Cohort-RW, the Per-CPU
//! "brlock"-style lock, BRAVO-2D) need to know *where* the calling thread is
//! running: its logical CPU and its NUMA node. The paper's artifacts query
//! the operating system (`sched_getcpu`, libnuma). A reproduction cannot
//! depend on a particular host layout — the original experiments ran on
//! 72-way and 144-way Xeon boxes — so this crate provides a *simulated*
//! topology instead:
//!
//! * A process-global [`Machine`] describes `nodes × cpus_per_node` logical
//!   CPUs. It defaults to the paper's user-space testbed (2 sockets × 36
//!   logical CPUs) and can be overridden once at startup, or via the
//!   `BRAVO_TOPOLOGY` environment variable (`"<nodes>x<cpus_per_node>"`).
//! * Every thread that calls into the registry is assigned a stable small
//!   integer [`ThreadId`] and pinned (logically) to a CPU round-robin, which
//!   is exactly what an unbound benchmark thread converges to on a real box.
//!
//! The crate also hosts the cache-geometry constants used throughout the
//! workspace ([`CACHE_LINE`], [`SECTOR`]) and the [`CachePadded`] helper that
//! gives every distributed reader indicator its own 128-byte sector, matching
//! the paper's layout discussion in §5.

mod machine;
mod padded;
mod registry;

pub use machine::{Machine, MachineBuilder};
pub use padded::CachePadded;
pub use registry::{current_cpu, current_node, current_thread_id, registered_threads, ThreadId};

/// Unit of coherence on the simulated machine, in bytes.
pub const CACHE_LINE: usize = 64;

/// Alignment sector used to avoid false sharing (two cache lines, matching
/// the adjacent-line prefetcher discussion in §5 of the paper).
pub const SECTOR: usize = 128;

/// Returns the process-global machine description.
///
/// The first call freezes the configuration: either the value installed with
/// [`Machine::install`], the `BRAVO_TOPOLOGY` environment variable, or the
/// default 2-node × 36-CPU machine.
pub fn machine() -> &'static Machine {
    machine::global()
}

/// Total number of logical CPUs on the simulated machine.
pub fn logical_cpus() -> usize {
    machine().logical_cpus()
}

/// Number of NUMA nodes on the simulated machine.
pub fn numa_nodes() -> usize {
    machine().nodes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_powers_of_two() {
        assert!(CACHE_LINE.is_power_of_two());
        assert!(SECTOR.is_power_of_two());
        assert_eq!(SECTOR % CACHE_LINE, 0);
    }

    #[test]
    fn machine_is_consistent() {
        let m = machine();
        assert_eq!(m.logical_cpus(), m.nodes() * m.cpus_per_node());
        assert!(m.nodes() >= 1);
        assert!(m.logical_cpus() >= 1);
    }

    #[test]
    fn cpu_to_node_mapping_is_total() {
        let m = machine();
        for cpu in 0..m.logical_cpus() {
            assert!(m.node_of_cpu(cpu) < m.nodes());
        }
    }
}
