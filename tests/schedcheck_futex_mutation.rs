//! The model checker's self-test for the futex eventcount: seed the two
//! ways its sleeps can lose a wakeup and prove schedcheck finds the hang.
//!
//! The eventcount's liveness rests on two obligations:
//!
//! * every generation bump that observes announced waiters must be followed
//!   by a wake. `bravo::wait::mutation::set_drop_futex_wake` deletes that
//!   wake on either sleep (the virtual `FUTEX_WAKE` under `wait=futex`, the
//!   sleeper-list drain under `wait=park`), re-creating the lost-wakeup
//!   bug class on the eventcount;
//! * the portable sleep must re-read the word under its list lock, as the
//!   kernel re-reads it under its bucket lock.
//!   `bravo::wait::mutation::set_unlocked_recheck` moves that read before
//!   the lock.
//!
//! For each seeded bug this test asserts the checker (a) passes the clean
//! protocol, (b) drives the bug to its deadlock within a bounded schedule
//! budget, and (c) prints a seed token that replays the failing
//! interleaving byte-for-byte.
//!
//! Runs single-threaded by construction: the mutation flags are
//! process-wide, so this file holds exactly one `#[test]`.
#![cfg(feature = "schedcheck")]

use std::sync::Arc;

use bravo::sync::atomic::{AtomicU64, Ordering};
use bravo::wait::mutation;
use bravo::WaitStrategy;
use schedcheck::{Config, FailureKind};

/// The minimal handoff that depends on the wake: a waiter blocks in the
/// futex eventcount until a flag flips; the setter flips it and notifies.
/// With either bug seeded, the only schedules that still pass are the ones
/// where the waiter never truly sleeps (condition already true at its
/// re-check); PCT's long descheduling windows find the one where it does.
fn handoff_scenario(strategy: WaitStrategy) {
    let flag = Arc::new(AtomicU64::new(0));
    let key = 0xf07e_usize;
    let waiter = {
        let flag = Arc::clone(&flag);
        schedcheck::spawn(move || {
            strategy.wait_until(key, || flag.load(Ordering::SeqCst) == 1);
        })
    };
    let setter = {
        let flag = Arc::clone(&flag);
        schedcheck::spawn(move || {
            flag.store(1, Ordering::SeqCst);
            strategy.notify_all(key);
        })
    };
    waiter.join();
    setter.join();
}

/// Proves the checker finds the bug `mutate` seeds into the handoff under
/// `strategy`: the clean protocol survives 300 PCT schedules, the mutant
/// deadlocks within 3,000, and the printed token replays the deadlock
/// exactly, twice, while the clean code passes that same schedule.
fn assert_found(bug: &str, mutate: fn(bool), strategy: WaitStrategy) {
    let what = format!("{bug} under wait={}", strategy.mode());
    let scenario = move || handoff_scenario(strategy);
    // Clean first: the intact protocol must survive the same exploration
    // budget the mutation hunt gets per seed batch.
    mutate(false);
    let report = schedcheck::run(&Config::pct(0xF07E, 3).with_schedules(300), scenario)
        .unwrap_or_else(|f| panic!("{what}: clean handoff failed: {f}"));
    assert_eq!(report.schedules, 300);

    // Seed the bug. The deadlock needs the waiter suspended inside its
    // check-to-sleep window while the setter bumps and wakes; PCT's
    // priority windows produce that reliably within the budget.
    mutate(true);
    let failure = schedcheck::run(&Config::pct(0xF07E, 3).with_schedules(3_000), scenario);
    mutate(false);
    let failure = failure.expect_err(&format!("{what}: the seeded bug must deadlock"));
    assert_eq!(failure.kind, FailureKind::Deadlock, "{what}: {failure}");
    assert!(
        failure.seed_token.starts_with("pct3:"),
        "{what}: unexpected seed token {}",
        failure.seed_token
    );
    assert!(
        failure.detail.contains("parked"),
        "{what}: deadlock dump should show the sleeping waiter: {}",
        failure.detail
    );

    // The printed token replays the identical interleaving: same failure
    // kind, same step count, same hand-off trace, twice over.
    mutate(true);
    let replay1 = schedcheck::run(&Config::replay(&failure.seed_token), scenario);
    let replay2 = schedcheck::run(&Config::replay(&failure.seed_token), scenario);
    mutate(false);
    let replay1 = replay1.expect_err("replay must reproduce the deadlock");
    let replay2 = replay2.expect_err("replay must reproduce the deadlock");
    assert_eq!(replay1.kind, FailureKind::Deadlock);
    assert_eq!(
        replay1.trace, failure.trace,
        "{what}: replay diverged from original"
    );
    assert_eq!(replay1.trace, replay2.trace, "{what}: two replays diverged");
    assert_eq!(replay1.step, failure.step);

    // And without the bug, the very interleaving that deadlocked is
    // harmless.
    let report = schedcheck::run(&Config::replay(&failure.seed_token), scenario)
        .unwrap_or_else(|f| panic!("{what}: intact code failed the bug's own schedule: {f}"));
    assert_eq!(report.schedules, 1);
}

#[test]
fn checker_finds_seeded_eventcount_bugs() {
    for strategy in [WaitStrategy::futex(), WaitStrategy::park()] {
        assert_found("a dropped wake", mutation::set_drop_futex_wake, strategy);
    }
    // Only the portable sleep reads the word in user space; the kernel's
    // check is out of the code's reach.
    assert_found(
        "an unlocked re-check",
        mutation::set_unlocked_recheck,
        WaitStrategy::park(),
    );
}
