//! Deterministic model-checking corpus over the lock catalog.
//!
//! Build with `--features schedcheck`: the `bravo::sync` facade then routes
//! every atomic, mutex, and park through schedcheck's instrumented shims, and
//! each test below explores a fixed-seed set of thread interleavings with the
//! checker's serialized scheduler. Every test is deterministic: a failure
//! prints a `SCHEDCHECK_SEED` token that replays the exact interleaving.
#![cfg(feature = "schedcheck")]

mod bravo_scenarios;

use std::collections::HashSet;
use std::sync::Arc;

use bravo::sync::atomic::{AtomicU64, Ordering};
use bravo::wait::Sleep;
use bravo::{DefaultRwLock, RawRwLock, WaitMode, WaitStrategy};
use bravo_scenarios::{
    colliding_readers_release_together, primed_one_slot_lock, revoker_parked_on_a_fast_reader,
    spawn_writer,
};
use rwlocks::{PhaseFairQueueLock, RawMutex, TicketMutex};
use schedcheck::{Config, FailureKind};

/// Readers and one non-atomically-incrementing writer over a raw rwlock.
/// Exclusion violations surface as a lost update; lost wakeups or deadlocks
/// surface as the checker's global-deadlock detection.
fn rwlock_scenario<L>(make: fn() -> L) -> impl Fn() + Send + Sync + 'static
where
    L: RawRwLock + Send + Sync + 'static,
{
    move || {
        let lock = Arc::new(make());
        let data = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let data = Arc::clone(&data);
            handles.push(schedcheck::spawn(move || {
                lock.lock_shared();
                let _ = data.load(Ordering::SeqCst);
                lock.unlock_shared();
            }));
        }
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let data = Arc::clone(&data);
            handles.push(schedcheck::spawn(move || {
                lock.lock_exclusive();
                // Deliberately non-atomic read-modify-write: only mutual
                // exclusion makes the final count come out right.
                let v = data.load(Ordering::SeqCst);
                data.store(v + 1, Ordering::SeqCst);
                lock.unlock_exclusive();
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(data.load(Ordering::SeqCst), 2, "writer update lost");
    }
}

#[test]
fn default_rwlock_park_mode_survives_pct() {
    let report = schedcheck::check(
        &Config::pct(0xD3F0, 3).with_schedules(200),
        rwlock_scenario(|| DefaultRwLock::with_wait(WaitMode::Park)),
    );
    assert_eq!(report.schedules, 200);
}

#[test]
fn ba_park_mode_survives_pct() {
    // BA (PF-Q) is the underlying lock of every BRAVO-BA row: its phase
    // handoffs between the reader counters, the writer-presence bits and
    // the MCS writer queue.
    schedcheck::check(
        &Config::pct(0xBA0F, 3).with_schedules(200),
        rwlock_scenario(|| PhaseFairQueueLock::with_wait(WaitMode::Park)),
    );
}

#[test]
fn ticket_mutex_park_mode_excludes_under_pct() {
    schedcheck::check(&Config::pct(0x71C4, 3).with_schedules(200), || {
        let m = Arc::new(TicketMutex::with_wait(WaitMode::Park));
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let c = Arc::clone(&c);
                schedcheck::spawn(move || {
                    m.lock();
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                    m.unlock();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 3, "ticket mutex admitted two");
    });
}

#[test]
fn bravo_revocation_handshake_survives_pct() {
    // The clean version of the scenario `tests/schedcheck_mutation.rs`
    // breaks: a fast-path reader backing out against a parked revoking
    // writer. With the wakeup in place no interleaving may deadlock.
    for seed in [0xB1A5, 0xB1A6] {
        schedcheck::check(&Config::pct(seed, 3).with_schedules(200), || {
            let lock = primed_one_slot_lock(WaitMode::Park);
            let reader = {
                let lock = Arc::clone(&lock);
                schedcheck::spawn(move || {
                    lock.read_lock();
                    lock.read_unlock();
                })
            };
            let writer = spawn_writer(&lock);
            reader.join();
            writer.join();
        });
    }
}

#[test]
fn a_fast_release_wakes_the_revoker_parked_on_its_slot() {
    // The release notifies only while bias is off; a revoker clears bias
    // before it scans, so the one parked on this slot is always woken.
    for mode in [WaitMode::Park, WaitMode::Futex] {
        let report = schedcheck::check(&Config::pct(0x5107, 3).with_schedules(300), move || {
            revoker_parked_on_a_fast_reader(mode)
        });
        assert_eq!(report.schedules, 300, "{mode}");
    }
}

#[test]
fn token_free_releases_of_colliding_readers_survive_pct() {
    // The slow reader's re-derived slot is the fast reader's, and both
    // release at once.
    schedcheck::check(
        &Config::pct(0x70CE, 3).with_schedules(300),
        colliding_readers_release_together,
    );
}

#[test]
fn a_backed_out_publication_freed_by_a_token_free_release_is_not_leaked() {
    // A fast reader publishes after a writer's scan, sees the bias gone
    // and backs out; meanwhile the writer leaves and a slow reader's
    // release frees that publication and keeps its own count.
    // The backing-out reader must take over that count, or the count
    // leaks and the final writer deadlocks.
    // The window needs four threads in a narrow order; a random walk finds
    // it where PCT's few priority changes do not.
    schedcheck::check(&Config::random_walk(1).with_schedules(2000), || {
        let lock = primed_one_slot_lock(WaitMode::Park);
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                schedcheck::spawn(move || {
                    let _ = lock.read_lock();
                    lock.read_unlock();
                })
            })
            .collect();
        let writer = spawn_writer(&lock);
        for r in readers {
            r.join();
        }
        writer.join();
        spawn_writer(&lock).join();
    });
}

#[test]
fn park_handoff_never_loses_wakeups() {
    // Replays the exact protocol the parking-waiter PR pinned down: state
    // change, fence, wake. A dropped wakeup parks the waiter forever and
    // the checker reports the deadlock with a replay seed.
    for seed in [3, 17] {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), || {
            let strategy = WaitStrategy::park();
            let flag = Arc::new(AtomicU64::new(0));
            let key = 0x5eed_f1a6usize;
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
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn park_turn_taking_never_strands_a_queued_waiter() {
    // Four threads take two turns each on one key: wait for your turn, bump
    // the counter, wake everyone. Every thread asleep in the portable sleep
    // must be listed when the notify after its snapshot drains the list: a
    // waiter that read the word before taking the list lock could list
    // itself after that drain and sleep with no waker, and a notifier that
    // skipped the drain while a waiter was announced would strand it. The
    // checker reports either as a deadlock.
    for depth in 2..=4 {
        let report = schedcheck::check(&Config::pct(0x80, depth).with_schedules(200), || {
            let strategy = WaitStrategy::park();
            let counter = Arc::new(AtomicU64::new(0));
            let key = 0x7a11_7a11usize;
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let counter = Arc::clone(&counter);
                    schedcheck::spawn(move || {
                        for r in 0..2u64 {
                            strategy
                                .wait_until(key, || counter.load(Ordering::SeqCst) >= r * 4 + t);
                            counter.fetch_add(1, Ordering::SeqCst);
                            strategy.notify_all(key);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn futex_handoff_never_loses_wakeups() {
    // The futex twin of the park handoff case: the schedcheck virtual
    // futex makes wait/wake yield points, so every interleaving of the
    // announce/snapshot/recheck/sleep protocol against the generation bump
    // is explored. A lost wakeup sleeps the waiter forever and surfaces as
    // a reported deadlock.
    for seed in [3, 17] {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), || {
            let strategy = WaitStrategy::futex();
            let flag = Arc::new(AtomicU64::new(0));
            let key = 0x5eed_f1a6usize;
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
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn futex_generation_wraparound_is_benign_under_the_checker() {
    // Litmus: park the eventcount's 32-bit generation right at u32::MAX so
    // the bump in every explored schedule crosses the wrap. The protocol
    // compares generations for equality only, so the wrap must be
    // unobservable — any schedule where a waiter keyed on a pre-wrap
    // generation misses a post-wrap wake would deadlock here. Both raw
    // sleeps compare the word the same way.
    for (seed, sleep) in [5, 23]
        .into_iter()
        .flat_map(|seed| [Sleep::Futex, Sleep::Portable].map(|sleep| (seed, sleep)))
    {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), move || {
            let ec = Arc::new(bravo::FutexEventCount::with_generation(u32::MAX));
            let flag = Arc::new(AtomicU64::new(0));
            let waiter = {
                let ec = Arc::clone(&ec);
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    ec.wait_until(sleep, || flag.load(Ordering::SeqCst) == 1);
                })
            };
            let setter = {
                let ec = Arc::clone(&ec);
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    flag.store(1, Ordering::SeqCst);
                    ec.notify_all(sleep);
                })
            };
            waiter.join();
            setter.join();
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn store_buffering_litmus_is_sequentially_consistent() {
    // Two threads store-then-load opposing variables. The serialized
    // scheduler implements sequential consistency, so (0, 0) must be
    // unreachable while the other three outcomes must all be discovered by
    // a complete exhaustive exploration.
    static OUTCOMES: std::sync::Mutex<Vec<(u64, u64)>> = std::sync::Mutex::new(Vec::new());
    OUTCOMES.lock().unwrap().clear();
    let report = schedcheck::run(&Config::exhaustive().with_schedules(10_000), || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let t1 = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            schedcheck::spawn(move || {
                x.store(1, Ordering::SeqCst);
                y.load(Ordering::SeqCst)
            })
        };
        let t2 = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            schedcheck::spawn(move || {
                y.store(1, Ordering::SeqCst);
                x.load(Ordering::SeqCst)
            })
        };
        let r1 = t1.join();
        let r2 = t2.join();
        OUTCOMES.lock().unwrap().push((r1, r2));
    })
    .unwrap_or_else(|f| panic!("litmus schedule failed: {f}"));
    assert!(
        report.complete,
        "exhaustive exploration did not finish in {} schedules",
        report.schedules
    );
    let outcomes: HashSet<(u64, u64)> = OUTCOMES.lock().unwrap().iter().copied().collect();
    assert!(
        !outcomes.contains(&(0, 0)),
        "store buffering observed under a sequentially consistent scheduler"
    );
    for want in [(0, 1), (1, 0), (1, 1)] {
        assert!(outcomes.contains(&want), "never explored outcome {want:?}");
    }
}

#[test]
fn racy_increment_is_caught_and_replays_byte_for_byte() {
    // A deliberate exclusion bug: two unsynchronized load-then-store
    // increments. The checker must find the lost update, and its seed token
    // must reproduce the identical schedule (same trace, same step).
    let racy = || {
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                schedcheck::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure = schedcheck::run(&Config::random_walk(1).with_schedules(256), racy)
        .expect_err("the lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.seed_token.starts_with("rw:"),
        "unexpected token {}",
        failure.seed_token
    );
    let replay1 = schedcheck::run(&Config::replay(&failure.seed_token), racy)
        .expect_err("replay must reproduce the failure");
    let replay2 = schedcheck::run(&Config::replay(&failure.seed_token), racy)
        .expect_err("replay must reproduce the failure");
    assert_eq!(replay1.kind, FailureKind::Panic);
    assert_eq!(
        replay1.trace, failure.trace,
        "replay diverged from original"
    );
    assert_eq!(replay1.trace, replay2.trace, "two replays diverged");
    assert_eq!(replay1.step, failure.step);
}
