//! Criterion bench for the kernel binary cache (paper Section III-B):
//! building a skeleton program from source vs loading the cached binary.
//! This one measures *wall* time — the simulated compile performs real
//! deterministic work, so the ≥5x claim is observable on the host clock
//! too (the modeled virtual costs are asserted in the test suite).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::representative_program;
use std::sync::Arc;
use vgpu::{DriverProfile, KernelBody, Platform, PlatformConfig, WorkGroup};

fn bench_cache(c: &mut Criterion) {
    let platform = Platform::new(PlatformConfig::default().cache_tag("bench-kernel-cache"));
    let queue = platform.queue(0, DriverProfile::opencl());
    let program = representative_program();
    let body: KernelBody = Arc::new(|_wg: &WorkGroup| {});

    let mut group = c.benchmark_group("kernel_cache_wall");

    group.bench_function("build_from_source", |b| {
        b.iter(|| {
            platform.compiler().clear_cache().unwrap();
            let (k, outcome) = queue.build_kernel(&program, body.clone()).unwrap();
            assert!(!outcome.from_cache);
            k
        })
    });

    // Populate once, then measure pure cache loads.
    platform.compiler().clear_cache().unwrap();
    queue.build_kernel(&program, body.clone()).unwrap();
    group.bench_function("load_from_cache", |b| {
        b.iter(|| {
            let (k, outcome) = queue.build_kernel(&program, body.clone()).unwrap();
            assert!(outcome.from_cache);
            k
        })
    });
    group.finish();

    platform.compiler().clear_cache().unwrap();
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_cache
}
criterion_main!(benches);
