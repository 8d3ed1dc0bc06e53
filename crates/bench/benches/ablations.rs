//! Criterion ablations over the design choices DESIGN.md calls out.
//!
//! * **Table size** — fast-path read latency and revocation scan cost as the
//!   visible readers table grows (the paper's trade-off: bigger tables
//!   collide less but cost more to scan).
//! * **Bias policy** — the published inhibit-until policy vs the early
//!   Bernoulli prototype vs bias disabled, measured on a read/write mix that
//!   forces periodic revocation.
//! * **BRAVO-2D vs flat BRAVO** — per-read cost over the global sectored
//!   table, plus its column-scan revocation vs the full-table scan.
//! * **Hash dispersal** — cost of the Mix-based slot hash itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bravo::hash::slot_index;
use bravo::policy::BiasPolicy;
use bravo::vrt::TableHandle;
use bravo::{BravoLock, DefaultRwLock, RawRwLock};
use rwlocks::PhaseFairQueueLock;

fn small(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
}

fn bench_table_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_table_size_read");
    small(&mut group);
    for slots in [256usize, 4096, 65536] {
        let lock: BravoLock<PhaseFairQueueLock> = BravoLock::with_private_table(slots);
        lock.read_lock(); // prime bias
        lock.read_unlock();
        group.bench_function(BenchmarkId::from_parameter(slots), |b| {
            b.iter(|| {
                lock.read_lock();
                lock.read_unlock();
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_table_size_revocation");
    small(&mut group);
    for slots in [256usize, 4096, 65536] {
        let lock: BravoLock<PhaseFairQueueLock> = BravoLock::with_private_table(slots);
        group.bench_function(BenchmarkId::from_parameter(slots), |b| {
            b.iter(|| {
                // One fast read enables + publishes, then a write revokes and
                // scans the whole private table.
                lock.read_lock();
                lock.read_unlock();
                lock.read_lock();
                lock.read_unlock();
                lock.write_lock();
                lock.write_unlock();
            })
        });
    }
    group.finish();
}

fn bench_bias_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bias_policy");
    small(&mut group);
    let policies: [(&str, BiasPolicy); 4] = [
        ("disabled", BiasPolicy::Disabled),
        ("inhibit_n9", BiasPolicy::InhibitUntil { n: 9 }),
        ("inhibit_n0", BiasPolicy::InhibitUntil { n: 0 }),
        ("bernoulli_1in100", BiasPolicy::Bernoulli { inverse_p: 100 }),
    ];
    for (name, policy) in policies {
        let lock: BravoLock<DefaultRwLock> =
            BravoLock::with_parts(DefaultRwLock::default(), TableHandle::global(), policy);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                // A 1-in-64 write mix: enough writes to exercise revocation
                // and the inhibition window under each policy.
                i += 1;
                if i % 64 == 0 {
                    lock.write_lock();
                    lock.write_unlock();
                } else {
                    lock.read_lock();
                    lock.read_unlock();
                }
            })
        });
    }
    group.finish();
}

/// BRAVO-2D: BRAVO-BA publishing into the global sectored table.
fn sectored_2d() -> BravoLock<PhaseFairQueueLock> {
    BravoLock::with_parts(
        PhaseFairQueueLock::new(),
        TableHandle::global_sectored(),
        BiasPolicy::paper_default(),
    )
}

fn bench_bravo_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_flat_vs_2d_read");
    small(&mut group);
    {
        let flat: BravoLock<PhaseFairQueueLock> = BravoLock::new();
        flat.read_lock();
        flat.read_unlock();
        group.bench_function("flat", |b| {
            b.iter(|| {
                flat.read_lock();
                flat.read_unlock();
            })
        });
    }
    {
        let sectored = sectored_2d();
        sectored.read_lock();
        sectored.read_unlock();
        group.bench_function("sectored_2d", |b| {
            b.iter(|| {
                sectored.read_lock();
                sectored.read_unlock();
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_flat_vs_2d_revocation");
    small(&mut group);
    {
        let flat: BravoLock<PhaseFairQueueLock> = BravoLock::new();
        group.bench_function("flat", |b| {
            b.iter(|| {
                flat.read_lock();
                flat.read_unlock();
                flat.write_lock();
                flat.write_unlock();
            })
        });
    }
    {
        let sectored = sectored_2d();
        group.bench_function("sectored_2d", |b| {
            b.iter(|| {
                sectored.read_lock();
                sectored.read_unlock();
                sectored.write_lock();
                sectored.write_unlock();
            })
        });
    }
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_slot_hash");
    small(&mut group);
    group.bench_function("mix64_slot_index", |b| {
        let mut thread = 0usize;
        b.iter(|| {
            thread = thread.wrapping_add(1);
            slot_index(0x7fff_1234_5678, thread, 4096)
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_table_size(c);
    bench_bias_policy(c);
    bench_bravo_2d(c);
    bench_hash(c);
}

criterion_group!(ablations, benches);
criterion_main!(ablations);
