//! The synchronization facade: where the lock catalog gets its atomics,
//! mutexes, and thread parking from.
//!
//! In normal builds every item here is a *re-export* of the `std`
//! counterpart — same types, same layout, zero cost; the compile-time tests
//! below prove it by type identity. Under the `schedcheck` feature the same
//! paths resolve to `schedcheck`'s instrumented shims, which insert a
//! scheduler yield point before every operation so the model checker can
//! deschedule a thread between any two shared-memory accesses.
//!
//! Discipline (enforced by `schedcheck lint`): the migrated modules (`raw`,
//! `vrt`, `wait`, `lock` and `policy` here; `mutex` and `pf_q` in
//! `rwlocks`; `memtable` in `kvstore`) must import atomics as
//! `crate::sync::atomic` (or `bravo::sync::atomic`) and parking as
//! `crate::sync::thread` — never `std::sync::atomic` or bare
//! `std::thread::park` — so no access slips past the checker's
//! instrumentation.

#[cfg(not(feature = "schedcheck"))]
mod imp {
    pub use std::sync::atomic;
    pub use std::sync::{Mutex, MutexGuard};

    /// Thread parking and identity, re-exported from `std::thread`.
    pub mod thread {
        pub use std::thread::{current, park, park_timeout, yield_now, Thread, ThreadId};
    }
}

#[cfg(feature = "schedcheck")]
mod imp {
    pub use schedcheck::sync::atomic;
    pub use schedcheck::sync::thread;
    pub use schedcheck::sync::{Mutex, MutexGuard};
}

pub use imp::{atomic, thread, Mutex, MutexGuard};

#[cfg(all(test, not(feature = "schedcheck")))]
mod tests {
    //! Compile-time proof that the normal-build facade is free: each
    //! identity function typechecks only if the facade type *is* the std
    //! type (not a wrapper of equal shape).

    #[allow(dead_code)]
    fn atomic_usize_is_std(x: crate::sync::atomic::AtomicUsize) -> std::sync::atomic::AtomicUsize {
        x
    }

    #[allow(dead_code)]
    fn atomic_bool_is_std(x: crate::sync::atomic::AtomicBool) -> std::sync::atomic::AtomicBool {
        x
    }

    #[allow(dead_code)]
    fn atomic_u64_is_std(x: crate::sync::atomic::AtomicU64) -> std::sync::atomic::AtomicU64 {
        x
    }

    #[allow(dead_code)]
    fn mutex_is_std(x: crate::sync::Mutex<Vec<u8>>) -> std::sync::Mutex<Vec<u8>> {
        x
    }

    #[allow(dead_code)]
    fn thread_is_std(x: crate::sync::thread::Thread) -> std::thread::Thread {
        x
    }

    #[allow(dead_code)]
    fn park_fns_are_std() -> (fn(), fn(std::time::Duration)) {
        // Function-item identity: these coerce only because the facade
        // exports the very same functions.
        (
            crate::sync::thread::park as fn(),
            crate::sync::thread::park_timeout as fn(std::time::Duration),
        )
    }

    #[test]
    fn facade_types_have_std_layout() {
        use std::mem::{align_of, size_of};
        assert_eq!(
            size_of::<crate::sync::atomic::AtomicUsize>(),
            size_of::<std::sync::atomic::AtomicUsize>()
        );
        assert_eq!(
            align_of::<crate::sync::atomic::AtomicU64>(),
            align_of::<std::sync::atomic::AtomicU64>()
        );
        assert_eq!(
            size_of::<crate::sync::Mutex<u64>>(),
            size_of::<std::sync::Mutex<u64>>()
        );
    }
}
