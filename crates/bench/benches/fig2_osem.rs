//! Criterion bench regenerating Figure 2's runtime comparison
//! (virtual seconds; reduced problem size). Every timed leg records a
//! ledger entry under the label `run_fig2` prints
//! (`fig2 osem <variant> x<n>`), priced at its variant's driver efficiency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skelcl_bench::{figure_platform, osem_bench_params, time_virtual_reported_with};
use skelcl_osem::{cuda_impl, opencl_impl, skelcl_impl};
use std::time::Duration;
use vgpu::DriverProfile;

fn bench_fig2(c: &mut Criterion) {
    let params = osem_bench_params();
    let subsets = params.generate_subsets();
    let vol = params.volume;

    let mut group = c.benchmark_group("fig2_osem_virtual");
    group.sample_size(10);

    for n_gpus in [1usize, 2, 4] {
        let platform = figure_platform(n_gpus);
        let ctx = skelcl::Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);
        skelcl_impl::reconstruct(&ctx, &vol, &subsets[..1]).unwrap();
        opencl_impl::reconstruct(&platform, &vol, &subsets[..1]).unwrap();
        cuda_impl::reconstruct(&platform, &vol, &subsets[..1]).unwrap();

        let variants: [(&str, DriverProfile, &dyn Fn()); 3] = [
            ("skelcl", DriverProfile::skelcl(), &|| {
                skelcl_impl::reconstruct(&ctx, &vol, &subsets).unwrap();
            }),
            ("opencl", DriverProfile::opencl(), &|| {
                opencl_impl::reconstruct(&platform, &vol, &subsets).unwrap();
            }),
            ("cuda", DriverProfile::cuda(), &|| {
                cuda_impl::reconstruct(&platform, &vol, &subsets).unwrap();
            }),
        ];
        for (name, profile, run) in variants {
            let label = format!("fig2 osem {name} x{n_gpus}");
            group.bench_with_input(BenchmarkId::new(name, n_gpus), &n_gpus, |b, _| {
                b.iter_custom(|iters| {
                    let mut total = 0.0;
                    for _ in 0..iters {
                        total += time_virtual_reported_with(
                            &platform,
                            &label,
                            profile.compute_efficiency,
                            run,
                        );
                    }
                    Duration::from_secs_f64(total)
                })
            });
        }
    }
    group.finish();

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    skelcl_bench::ledger::write_fig("fig2");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_fig2
}
criterion_main!(benches);
