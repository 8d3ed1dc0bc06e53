//! Run-time selection and spec-driven construction of lock algorithms for
//! the benchmark harness.
//!
//! The paper's figures all sweep the same set of locks ("BA", "BRAVO-BA",
//! "Cohort-RW", "Per-CPU", "pthread", "BRAVO-pthread"); the harness selects
//! them by name. [`LockKind`] enumerates every algorithm in this workspace
//! and [`build_lock`] instantiates one from a declarative
//! [`LockSpec`] — kind, bias policy, table layout,
//! statistics attribution — behind a [`LockHandle`] so
//! that workload drivers can be written once. Dynamic dispatch costs the
//! same for every candidate, so relative comparisons are unaffected.
//!
//! A spec string such as `"BRAVO-BA?n=99&table=private:4096"` selects the
//! BRAVO-BA composite with a 99× inhibit window publishing into its own
//! 4096-slot table; see [`bravo::spec`] for the grammar.

use std::sync::Arc;

use bravo::spec::{LockHandle, LockSpec, SpecError, TableSpec};
use bravo::stats::StatsSink;
use bravo::vrt::TableHandle;
use bravo::wait::WaitMode;
use bravo::{AnonymousReaders, BiasPolicy, BravoLock, RawTryRwLock};

use crate::cohort::CohortRwLock;
use crate::percpu::PerCpuRwLock;
use crate::pf_q::PhaseFairQueueLock;
use crate::pthread_like::PthreadRwLock;

/// Every reader-writer lock algorithm available to the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LockKind {
    /// Brandenburg–Anderson PF-Q ("BA").
    Ba,
    /// BRAVO over BA — the paper's headline composite.
    BravoBa,
    /// The pthread-like reader-preference blocking lock.
    Pthread,
    /// BRAVO over the pthread-like lock.
    BravoPthread,
    /// Cohort-RW (C-RW-WP) with per-node reader indicators.
    CohortRw,
    /// Per-CPU array-of-BA lock (brlock style).
    PerCpu,
    /// BRAVO-2D (sectored table) over BA.
    Bravo2dBa,
}

impl LockKind {
    /// The locks plotted in the paper's user-space figures, in the order the
    /// legends list them.
    pub fn paper_set() -> &'static [LockKind] {
        &[
            LockKind::CohortRw,
            LockKind::PerCpu,
            LockKind::Ba,
            LockKind::BravoBa,
            LockKind::Pthread,
            LockKind::BravoPthread,
        ]
    }

    /// Every available lock kind.
    pub fn all() -> &'static [LockKind] {
        &[
            LockKind::Ba,
            LockKind::BravoBa,
            LockKind::Pthread,
            LockKind::BravoPthread,
            LockKind::CohortRw,
            LockKind::PerCpu,
            LockKind::Bravo2dBa,
        ]
    }

    /// The display name used in result tables (matches the paper's legends
    /// where applicable).
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Ba => "BA",
            LockKind::BravoBa => "BRAVO-BA",
            LockKind::Pthread => "pthread",
            LockKind::BravoPthread => "BRAVO-pthread",
            LockKind::CohortRw => "Cohort-RW",
            LockKind::PerCpu => "Per-CPU",
            LockKind::Bravo2dBa => "BRAVO-2D-BA",
        }
    }

    /// Parses a name as produced by [`LockKind::name`] (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        let lowered = name.to_ascii_lowercase();
        Self::all()
            .iter()
            .copied()
            .find(|k| k.name().to_ascii_lowercase() == lowered)
    }

    /// Whether this kind is a BRAVO composite.
    pub fn is_bravo(self) -> bool {
        matches!(
            self,
            LockKind::BravoBa | LockKind::BravoPthread | LockKind::Bravo2dBa
        )
    }

    /// Whether this kind's waiters follow the spec's `wait=` mode. The
    /// pthread-like lock blocks on condition variables of its own, so it
    /// takes no mode; `BRAVO-pthread` does, for its revoker's waits.
    pub fn honours_wait(self) -> bool {
        self != LockKind::Pthread
    }

    /// A [`LockSpec`] selecting this kind with paper-default configuration
    /// (bias `N = 9`, global table, per-lock statistics).
    pub fn spec(self) -> LockSpec {
        LockSpec::new(self.name())
    }

    /// Builds a lock of this kind with paper-default configuration.
    ///
    /// This is the convenience form of [`build_lock`] for call sites that
    /// sweep `LockKind`s directly; a default spec is always buildable.
    pub fn build(self) -> LockHandle {
        build_lock(&self.spec()).expect("a default LockSpec is always buildable")
    }
}

impl From<LockKind> for LockSpec {
    fn from(kind: LockKind) -> Self {
        kind.spec()
    }
}

impl std::fmt::Display for LockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resolves a spec's table layout to a live [`TableHandle`].
///
/// Every BRAVO composite accepts every layout — the kind only chooses what
/// a bare `table=global` (or an absent parameter) means: the flat global
/// table for the flat composites, the sectored global table for BRAVO-2D.
/// `private:`/`sectored:` geometries build tables owned by the lock
/// instance.
fn resolve_table(spec: &LockSpec, sectored_default: bool) -> TableHandle {
    match spec.table() {
        TableSpec::Global if sectored_default => TableHandle::global_sectored(),
        TableSpec::Global => TableHandle::global(),
        TableSpec::Private { slots } => TableHandle::private(slots),
        TableSpec::Sectored { sectors, slots } => TableHandle::sectored(sectors, slots),
    }
}

/// Rejects bias/table parameters on kinds that are not BRAVO composites, so
/// a spec like `"BA?n=99"` fails loudly instead of silently selecting a
/// lock the parameters cannot affect.
fn reject_bravo_params(spec: &LockSpec) -> Result<(), SpecError> {
    if spec.bias() != BiasPolicy::paper_default() {
        return Err(SpecError::UnsupportedBias {
            kind: spec.kind().to_string(),
        });
    }
    if spec.table() != TableSpec::Global {
        return Err(SpecError::UnsupportedTable {
            kind: spec.kind().to_string(),
            table: spec.table(),
        });
    }
    Ok(())
}

/// Builds a BRAVO composite over `L`; `sectored_default` picks what a bare
/// `table=global` means (see [`resolve_table`]).
fn bravo_composite<L: AnonymousReaders + RawTryRwLock + 'static>(
    spec: &LockSpec,
    sectored_default: bool,
) -> Result<LockHandle, SpecError> {
    let sink = StatsSink::per_lock();
    let lock = BravoLock::with_instrumented(
        L::with_wait(spec.wait()),
        resolve_table(spec, sectored_default),
        spec.bias(),
        sink.clone(),
    )
    .with_wait_mode(spec.wait());
    Ok(LockHandle::from_try_lock(
        spec.clone(),
        Arc::new(lock),
        sink,
    ))
}

fn plain<L: RawTryRwLock + 'static>(spec: &LockSpec) -> Result<LockHandle, SpecError> {
    reject_bravo_params(spec)?;
    // Plain locks record no BRAVO statistics: the per-lock block stays zero.
    Ok(LockHandle::from_try_lock(
        spec.clone(),
        Arc::new(L::with_wait(spec.wait())),
        StatsSink::per_lock(),
    ))
}

/// Builds one lock instance from a declarative spec.
///
/// The kind is resolved through [`LockKind::parse`]; bias and table
/// parameters are honoured for BRAVO composites and rejected (not ignored)
/// for plain locks, and a `wait=` mode other than `spin` is rejected on a
/// kind that does not honour it ([`LockKind::honours_wait`]). Every BRAVO
/// composite accepts every table layout
/// (`global`, `private:`, `sectored:`); a bare `global` resolves to
/// the flat global table, except on `BRAVO-2D-BA` where it selects the
/// sectored global table. Every handle gets its own per-lock statistics
/// sink; BRAVO composites record into it, plain locks perform no recording,
/// so their handles' snapshots read all zeros.
pub fn build_lock(spec: &LockSpec) -> Result<LockHandle, SpecError> {
    let Some(kind) = LockKind::parse(spec.kind()) else {
        return Err(SpecError::UnknownKind {
            kind: spec.kind().to_string(),
            known: LockKind::all().iter().map(|k| k.name()).collect(),
        });
    };
    if spec.wait() != WaitMode::Spin && !kind.honours_wait() {
        return Err(SpecError::UnsupportedWait {
            kind: spec.kind().to_string(),
            wait: spec.wait(),
        });
    }
    match kind {
        LockKind::Ba => plain::<PhaseFairQueueLock>(spec),
        LockKind::Pthread => plain::<PthreadRwLock>(spec),
        LockKind::CohortRw => plain::<CohortRwLock>(spec),
        LockKind::PerCpu => plain::<PerCpuRwLock<PhaseFairQueueLock>>(spec),
        LockKind::BravoBa => bravo_composite::<PhaseFairQueueLock>(spec, false),
        LockKind::BravoPthread => bravo_composite::<PthreadRwLock>(spec, false),
        LockKind::Bravo2dBa => bravo_composite::<PhaseFairQueueLock>(spec, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bravo::TryLockError;
    use std::time::Duration;

    #[test]
    fn every_kind_round_trips_through_parse() {
        for &kind in LockKind::all() {
            assert_eq!(LockKind::parse(kind.name()), Some(kind));
            assert_eq!(LockKind::parse(&kind.name().to_uppercase()), Some(kind));
        }
        assert_eq!(LockKind::parse("no-such-lock"), None);
    }

    #[test]
    fn paper_set_is_a_subset_of_all() {
        for kind in LockKind::paper_set() {
            assert!(LockKind::all().contains(kind));
        }
        assert_eq!(LockKind::paper_set().len(), 6);
    }

    #[test]
    fn every_kind_constructs_and_locks() {
        for &kind in LockKind::all() {
            let lock = kind.build();
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_exclusive();
            lock.unlock_exclusive();
            lock.lock_shared();
            lock.unlock_shared();
        }
    }

    #[test]
    fn every_kind_has_an_honest_try_write() {
        // Every handle holds a `RawTryRwLock`, so every kind has a try path;
        // it must also grant an uncontended write.
        for &kind in LockKind::all() {
            let lock = kind.build();
            assert!(
                lock.try_lock_exclusive().is_ok(),
                "{kind}: uncontended try-write failed"
            );
            lock.unlock_exclusive();
        }
    }

    #[test]
    fn bravo_kinds_are_flagged() {
        assert!(LockKind::BravoBa.is_bravo());
        assert!(!LockKind::Ba.is_bravo());
        assert!(LockKind::Bravo2dBa.is_bravo());
        assert!(!LockKind::PerCpu.is_bravo());
    }

    #[test]
    fn specs_resolve_bias_and_table_parameters() {
        let spec: LockSpec = "BRAVO-BA?n=99&table=private:64".parse().unwrap();
        let lock = build_lock(&spec).unwrap();
        assert_eq!(lock.label(), "BRAVO-BA?n=99&table=private:64");
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock_shared();
        lock.unlock_shared();
        // The second read of a biased BRAVO lock takes the fast path; the
        // per-lock sink must have seen it.
        assert!(lock.snapshot().fast_reads >= 1);
    }

    #[test]
    fn sectored_spec_builds_a_2d_lock_with_private_geometry() {
        let spec: LockSpec = "BRAVO-2D-BA?table=sectored:4x64".parse().unwrap();
        let lock = build_lock(&spec).unwrap();
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock_shared();
        lock.unlock_shared();
        assert!(lock.snapshot().fast_reads >= 1);
        lock.lock_exclusive();
        lock.unlock_exclusive();
        assert!(lock.snapshot().revocations >= 1);

        // A bare kind picks its default layout: BRAVO-2D scans one column
        // of the global sectored table (one slot per CPU row), flat BRAVO
        // the whole global table.
        for (kind, scanned) in [
            (LockKind::Bravo2dBa, topology::logical_cpus()),
            (LockKind::BravoBa, bravo::DEFAULT_TABLE_SIZE),
        ] {
            let lock = kind.build();
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_exclusive();
            lock.unlock_exclusive();
            let snap = lock.snapshot();
            assert_eq!(snap.revocations, 1, "{kind}");
            assert_eq!(snap.revocation_scan_slots, scanned as u64, "{kind}");
        }
    }

    #[test]
    fn invalid_specs_are_rejected_not_ignored() {
        // Unknown kind.
        assert!(matches!(
            build_lock(&LockSpec::new("no-such-lock")),
            Err(SpecError::UnknownKind { .. })
        ));
        // Bias parameters on a non-BRAVO kind.
        assert!(matches!(
            build_lock(&"BA?n=99".parse().unwrap()),
            Err(SpecError::UnsupportedBias { .. })
        ));
        // Table parameters on a non-BRAVO kind.
        assert!(matches!(
            build_lock(&"Per-CPU?table=private:64".parse().unwrap()),
            Err(SpecError::UnsupportedTable { .. })
        ));
        assert!(matches!(
            build_lock(&"Cohort-RW?table=sectored:2x64".parse().unwrap()),
            Err(SpecError::UnsupportedTable { .. })
        ));
        // `wait=` applies to every kind but the pthread-like lock, which
        // blocks on condition variables of its own and takes only the
        // default, `spin`.
        assert!(build_lock(&"BA?wait=park".parse().unwrap()).is_ok());
        let Err(e) = build_lock(&"pthread?wait=futex".parse().unwrap()) else {
            panic!("pthread?wait=futex was not rejected");
        };
        assert!(e.to_string().contains("wait=futex"), "{e}");
        assert!(build_lock(&"pthread?wait=spin".parse().unwrap()).is_ok());
    }

    #[test]
    fn deleted_kinds_are_unknown() {
        // Kinds no figure or workload measured were deleted; the error
        // lists the paper's six locks and BRAVO-2D-BA.
        for name in ["PF-T", "BRAVO-PF-T", "counter", "BRAVO-counter", "MCS-fair"] {
            let Err(SpecError::UnknownKind { known, .. }) = build_lock(&LockSpec::new(name)) else {
                panic!("'{name}' was not rejected as an unknown kind");
            };
            assert_eq!(
                known.join(" "),
                "BA BRAVO-BA pthread BRAVO-pthread Cohort-RW Per-CPU BRAVO-2D-BA"
            );
        }
    }

    #[test]
    fn every_kind_builds_and_locks_with_park_waiters() {
        for &kind in LockKind::all() {
            let spec = kind.spec().with_wait(WaitMode::Park);
            if !kind.honours_wait() {
                assert_eq!(
                    build_lock(&spec).map(drop),
                    Err(SpecError::UnsupportedWait {
                        kind: kind.name().to_string(),
                        wait: WaitMode::Park,
                    }),
                    "{kind}?wait=park was not rejected"
                );
                continue;
            }
            let lock = build_lock(&spec).unwrap_or_else(|e| panic!("{kind}?wait=park failed: {e}"));
            assert!(lock.label().contains("wait=park"), "{kind} label");
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_exclusive();
            lock.unlock_exclusive();
            lock.lock_shared();
            lock.unlock_shared();
        }
    }

    #[test]
    fn every_kind_builds_and_locks_with_futex_waiters() {
        // Same sweep as the park variant: `wait=futex` must be buildable
        // and lockable for every kind that takes a wait mode (falling back
        // to park where the syscall is unavailable — the dispatch hides the
        // difference), and rejected by the one that does not.
        for &kind in LockKind::all() {
            let spec = kind.spec().with_wait(WaitMode::Futex);
            if !kind.honours_wait() {
                assert_eq!(
                    build_lock(&spec).map(drop),
                    Err(SpecError::UnsupportedWait {
                        kind: kind.name().to_string(),
                        wait: WaitMode::Futex,
                    }),
                    "{kind}?wait=futex was not rejected"
                );
                continue;
            }
            let lock =
                build_lock(&spec).unwrap_or_else(|e| panic!("{kind}?wait=futex failed: {e}"));
            assert!(lock.label().contains("wait=futex"), "{kind} label");
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_exclusive();
            lock.unlock_exclusive();
            lock.lock_shared();
            lock.unlock_shared();
        }
    }

    #[test]
    fn every_bravo_kind_builds_over_every_layout() {
        // The kind used to *own* its layout (flat composites rejected
        // sectored tables, BRAVO-2D rejected flat ones); with the unified
        // ReaderTable abstraction the kind only picks the default, and
        // every layout is constructible for every BRAVO composite.
        let layouts = ["", "?table=private:256", "?table=sectored:4x64"];
        for &kind in LockKind::all() {
            if !kind.is_bravo() {
                continue;
            }
            for layout in layouts {
                let text = format!("{}{layout}", kind.name());
                let spec: LockSpec = text.parse().unwrap();
                let lock =
                    build_lock(&spec).unwrap_or_else(|e| panic!("'{text}' failed to build: {e}"));
                lock.lock_shared();
                lock.unlock_shared();
                lock.lock_shared();
                lock.unlock_shared();
                lock.lock_exclusive();
                lock.unlock_exclusive();
                assert!(
                    lock.snapshot().fast_reads >= 1,
                    "'{text}': second read did not take the fast path"
                );
                assert!(
                    lock.snapshot().revocations >= 1,
                    "'{text}': writer did not revoke"
                );
            }
        }
    }

    #[test]
    fn stats_parameter_is_rejected_as_unknown() {
        for text in ["BRAVO-BA?stats=global", "BRAVO-BA?stats=per-lock"] {
            let err = text.parse::<LockSpec>().unwrap_err();
            assert!(
                err.to_string().contains("unknown parameter 'stats'"),
                "'{text}': {err}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unlock_shared with no readers")]
    fn unlocking_without_holding_panics() {
        // A release finds no slot of its own to free, so it releases the
        // underlying BA lock, whose debug check catches the missing reader.
        LockKind::BravoBa.build().unlock_shared();
    }

    #[test]
    fn bounded_try_write_fails_while_a_fast_reader_is_published() {
        for &kind in LockKind::all().iter().filter(|k| k.is_bravo()) {
            let lock = kind.build();
            // Prime bias, then hold a fast read.
            lock.lock_shared();
            lock.unlock_shared();
            lock.lock_shared();
            // Try from a second thread with a watchdog, so an unbounded
            // revocation fails the test instead of hanging it.
            let (tx, rx) = std::sync::mpsc::channel();
            let writer = lock.clone();
            let try_writer = std::thread::spawn(move || {
                let _ = tx.send(writer.try_lock_exclusive());
            });
            let outcome = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{kind}: try-write blocked behind a fast reader"));
            try_writer.join().expect("try-writer thread panicked");
            assert_eq!(outcome, Err(TryLockError::WouldBlock), "{kind}");
            lock.unlock_shared();
            assert!(lock.try_lock_exclusive().is_ok(), "{kind}");
            lock.unlock_exclusive();
        }
    }

    #[test]
    fn try_reads_alone_enable_bias() {
        // A try-read's slow path asks the bias policy too: the first one
        // enables bias and the second takes the fast path.
        let lock = LockKind::BravoBa.build();
        for _ in 0..2 {
            lock.try_lock_shared().expect("uncontended try-read");
            lock.unlock_shared();
        }
        let snap = lock.snapshot();
        assert_eq!(snap.bias_enabled, 1);
        assert_eq!(snap.fast_reads, 1);
    }

    #[test]
    fn concurrent_use_through_handles() {
        for &kind in LockKind::paper_set() {
            let lock = kind.build();
            let counter = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let lock = &lock;
                    let counter = &counter;
                    s.spawn(move || {
                        for _ in 0..500 {
                            lock.lock_exclusive();
                            let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                            counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                            lock.unlock_exclusive();
                            lock.lock_shared();
                            lock.unlock_shared();
                        }
                    });
                }
            });
            assert_eq!(
                counter.load(std::sync::atomic::Ordering::Relaxed),
                1_500,
                "lost updates under {kind}"
            );
        }
    }
}
