//! Criterion micro-benchmarks backing the paper's figures.
//!
//! The `fig*` binaries regenerate the full throughput series; these Criterion
//! groups measure the per-operation costs underneath them so regressions in
//! the lock implementations are caught numerically:
//!
//! * uncontended read and write acquisition latency for every lock in the
//!   paper's comparison set (the left edge of every figure);
//! * the revocation scan rate over the 4096-slot visible readers table
//!   (§3 quotes ~1.1 ns per element on the paper's testbed);
//! * memtable `Get` latency under BA vs BRAVO-BA (Figure 5's inner loop);
//! * a simulated `page_fault` under the stock vs BRAVO rwsem (Figure 9's
//!   inner loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bravo::vrt::{ReaderTable, VisibleReadersTable};
use kernelsim::mm::{MmStruct, PAGE_SIZE};
use kvstore::MemTable;
use rwlocks::LockKind;
use rwsem::KernelVariant;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_read_acquisition(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_acquisition");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    for &kind in LockKind::paper_set() {
        let lock = kind.build();
        // Prime BRAVO bias so the steady-state fast path is measured.
        lock.lock_shared();
        lock.unlock_shared();
        group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| {
                lock.lock_shared();
                lock.unlock_shared();
            })
        });
    }
    group.finish();
}

fn bench_write_acquisition(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_acquisition");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    for &kind in LockKind::paper_set() {
        let lock = kind.build();
        group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| {
                lock.lock_exclusive();
                lock.unlock_exclusive();
            })
        });
    }
    group.finish();
}

fn bench_revocation_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("revocation_scan");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    for slots in [1024usize, 4096, 16384] {
        let table = VisibleReadersTable::new(slots);
        group.bench_function(BenchmarkId::from_parameter(slots), |b| {
            // Scanning an empty table for a lock address that is nowhere in
            // it is exactly the writer's common revocation case.
            b.iter(|| table.revoke(0xdead_beef).conflicts)
        });
    }
    group.finish();
}

fn bench_memtable_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("memtable_get");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    for kind in [
        LockKind::Ba,
        LockKind::BravoBa,
        LockKind::Pthread,
        LockKind::BravoPthread,
    ] {
        let table = MemTable::prepopulated(kind, 10_000).unwrap();
        // Prime bias.
        table.get(0);
        let mut key = 0u64;
        group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| {
                key = (key + 7) % 10_000;
                table.get(key)
            })
        });
    }
    group.finish();
}

fn bench_page_fault(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_fault");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    for &variant in [KernelVariant::Stock, KernelVariant::Bravo].iter() {
        let mm = MmStruct::new(variant);
        let base = mm.mmap(64 * PAGE_SIZE, true).expect("mmap failed");
        let mut page = 0u64;
        group.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| {
                page = (page + 1) % 64;
                mm.page_fault(base + page * PAGE_SIZE)
                    .expect("fault failed")
            })
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    let c = configure(c);
    bench_read_acquisition(c);
    bench_write_acquisition(c);
    bench_revocation_scan(c);
    bench_memtable_get(c);
    bench_page_fault(c);
}

criterion_group!(figures, benches);
criterion_main!(figures);
