//! The model checker's self-test: re-introduce real, already-fixed bugs
//! and prove schedcheck finds them.
//!
//! The parking-waiter PR fixed a missing wakeup on BRAVO's fast-path
//! back-out: a reader that published its visible-readers-table slot, lost
//! the race with a revoking writer, and cleared the slot *without* waking
//! the writer parked on it. The token-free release had to avoid a
//! peek-then-free race: a release that sees its slot hold the lock, frees
//! it and skips the underlying lock, although a colliding release freed
//! the slot first. A fast read release must wake the revoker parked on its
//! slot whenever bias is off. `bravo::lock::mutation` re-introduces each
//! bug behind the `schedcheck` feature. The tests assert the checker (a)
//! passes the clean scenario, (b) drives the seeded bug to its deadlock
//! within a bounded schedule budget, and (c) for the lost wakeup, prints a
//! seed token that replays the failing interleaving byte-for-byte.
//!
//! The mutation flags are process-wide, so each test holds [`SERIAL`]
//! while it runs.
#![cfg(feature = "schedcheck")]

mod bravo_scenarios;

use std::sync::{Arc, Mutex, PoisonError};

use bravo::lock::mutation;
use bravo::{BiasPolicy, BravoLock, DefaultRwLock, RawRwLock, TableHandle, WaitMode};
use bravo_scenarios::{colliding_readers_release_together, revoker_parked_on_a_fast_reader};
use schedcheck::{Config, FailureKind};

/// Serializes the tests of this file: each sets process-wide flags.
static SERIAL: Mutex<()> = Mutex::new(());

/// The revocation handshake, built so the lost-wakeup mutation turns into a
/// *global* deadlock the checker can prove:
///
/// * single-slot private table — slot choice (and with it the schedule
///   shape) cannot depend on address-space layout, keeping replays exact;
/// * the reader uses `try_read_lock`, so after backing out against the
///   writer (which holds the underlying lock) it exits instead of blocking —
///   leaving the parked writer alone with provably no waker.
fn revocation_scenario() {
    let lock = Arc::new(
        BravoLock::<DefaultRwLock>::with_parts(
            DefaultRwLock::with_wait(WaitMode::Park),
            TableHandle::private(1),
            BiasPolicy::paper_default(),
        )
        .with_wait_mode(WaitMode::Park),
    );
    // Prime reader bias from the root so the spawned reader takes the fast
    // path (publish slot, re-check rbias).
    lock.read_lock();
    lock.read_unlock();

    let reader = {
        let lock = Arc::clone(&lock);
        schedcheck::spawn(move || {
            if lock.try_read_lock().is_some() {
                lock.read_unlock();
            }
        })
    };
    let writer = {
        let lock = Arc::clone(&lock);
        schedcheck::spawn(move || {
            lock.write_lock();
            lock.write_unlock();
        })
    };
    reader.join();
    writer.join();
}

#[test]
fn checker_finds_reintroduced_lost_wakeup() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Clean first: the fixed protocol must survive the same exploration
    // budget the mutation hunt gets per seed batch.
    mutation::set_lost_wakeup(false);
    let report = schedcheck::run(
        &Config::pct(0xB0A7, 3).with_schedules(300),
        revocation_scenario,
    )
    .unwrap_or_else(|f| panic!("clean revocation scenario failed: {f}"));
    assert_eq!(report.schedules, 300);

    // Re-introduce the bug. The interleaving needs the reader suspended
    // from its publish CAS until the writer has scanned the table and
    // parked — a long descheduling window only priority-based (PCT)
    // exploration finds in reasonable budgets.
    mutation::set_lost_wakeup(true);
    let failure = schedcheck::run(
        &Config::pct(0xB0A7, 3).with_schedules(3_000),
        revocation_scenario,
    )
    .expect_err("the seeded lost wakeup must deadlock some schedule");
    mutation::set_lost_wakeup(false);
    assert_eq!(failure.kind, FailureKind::Deadlock, "failure: {failure}");
    assert!(
        failure.seed_token.starts_with("pct3:"),
        "unexpected seed token {}",
        failure.seed_token
    );
    assert!(
        failure.detail.contains("parked"),
        "deadlock dump should show the parked writer: {}",
        failure.detail
    );

    // The printed token replays the identical interleaving: same failure
    // kind, same step count, same hand-off trace, twice over.
    mutation::set_lost_wakeup(true);
    let replay1 = schedcheck::run(&Config::replay(&failure.seed_token), revocation_scenario)
        .expect_err("replay must reproduce the deadlock");
    let replay2 = schedcheck::run(&Config::replay(&failure.seed_token), revocation_scenario)
        .expect_err("replay must reproduce the deadlock");
    mutation::set_lost_wakeup(false);
    assert_eq!(replay1.kind, FailureKind::Deadlock);
    assert_eq!(
        replay1.trace, failure.trace,
        "replay diverged from original"
    );
    assert_eq!(replay1.trace, replay2.trace, "two replays diverged");
    assert_eq!(replay1.step, failure.step);

    // And with the mutation off, the very interleaving that deadlocked is
    // harmless — the wakeup is the whole difference.
    let report = schedcheck::run(&Config::replay(&failure.seed_token), revocation_scenario)
        .unwrap_or_else(|f| panic!("fixed code failed the bug's own schedule: {f}"));
    assert_eq!(report.schedules, 1);
}

#[test]
fn checker_finds_reintroduced_peek_then_free_release() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Clean first, on the budget `schedcheck_locks.rs` gives the scenario.
    mutation::set_peek_then_free(false);
    let report = schedcheck::run(
        &Config::pct(0x70CE, 3).with_schedules(300),
        colliding_readers_release_together,
    )
    .unwrap_or_else(|f| panic!("clean colliding-readers scenario failed: {f}"));
    assert_eq!(report.schedules, 300);

    // The bug needs both releases to peek before either frees the slot;
    // this seed reaches that window after about a thousand schedules.
    mutation::set_peek_then_free(true);
    let failure = schedcheck::run(
        &Config::pct(0x70CE, 3).with_schedules(3_000),
        colliding_readers_release_together,
    );
    mutation::set_peek_then_free(false);
    let failure = failure.expect_err("the seeded peek-then-free release must leak a count");
    assert_eq!(failure.kind, FailureKind::Deadlock, "failure: {failure}");

    // With the mutation off, the very interleaving that deadlocked is
    // harmless.
    let report = schedcheck::run(
        &Config::replay(&failure.seed_token),
        colliding_readers_release_together,
    )
    .unwrap_or_else(|f| panic!("fixed code failed the bug's own schedule: {f}"));
    assert_eq!(report.schedules, 1);
}

#[test]
fn checker_finds_a_silent_fast_release() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for mode in [WaitMode::Park, WaitMode::Futex] {
        let scenario = move || revoker_parked_on_a_fast_reader(mode);
        // Clean first, on the budget `schedcheck_locks.rs` gives the case.
        mutation::set_silent_release(false);
        let report = schedcheck::run(&Config::pct(0x5107, 3).with_schedules(300), scenario)
            .unwrap_or_else(|f| panic!("{mode}: clean parked-revoker scenario failed: {f}"));
        assert_eq!(report.schedules, 300);

        // A release that frees its slot without a notify strands the writer
        // whenever it parked first.
        mutation::set_silent_release(true);
        let failure = schedcheck::run(&Config::pct(0x5107, 3).with_schedules(300), scenario);
        mutation::set_silent_release(false);
        let failure = failure.expect_err("the silent release must strand the revoker");
        assert_eq!(failure.kind, FailureKind::Deadlock, "{mode}: {failure}");
        assert!(
            failure.detail.contains("parked"),
            "{mode}: deadlock dump should show the parked writer: {}",
            failure.detail
        );

        // With the notify back, the very interleaving that deadlocked is
        // harmless.
        let report = schedcheck::run(&Config::replay(&failure.seed_token), scenario)
            .unwrap_or_else(|f| panic!("{mode}: fixed code failed the bug's own schedule: {f}"));
        assert_eq!(report.schedules, 1);
    }
}
