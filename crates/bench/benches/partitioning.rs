//! Section V / VI-D microbenchmark: tree-free greedy jurisdiction
//! partitioning and multi-server bulk anonymization. More servers shrink
//! the slowest server's share near-linearly while total cost stays within
//! 1% of the single-server optimum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbs_bench::MasterWorkload;
use lbs_parallel::{anonymize_partitioned, partition_users};

fn partitioning(c: &mut Criterion) {
    let workload = MasterWorkload::generate(true);
    let map = workload.config().map();
    let db = workload.sample(100_000);
    let k = 50;

    // Each iteration partitions a fresh copy of the users, as the engine
    // does: the copy is part of the partition stage's cost.
    let mut group = c.benchmark_group("partition_users_100k");
    for servers in [16usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(servers), &servers, |b, &s| {
            b.iter(|| {
                let mut users: Vec<_> = db.iter().collect();
                partition_users(&mut users, map, k, s).unwrap().len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("partitioned_anonymize_100k");
    group.sample_size(10);
    for servers in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(servers), &servers, |b, &s| {
            b.iter(|| anonymize_partitioned(&db, map, k, s).unwrap().total_cost)
        });
    }
    group.finish();
}

criterion_group!(benches, partitioning);
criterion_main!(benches);
