//! Criterion bench regenerating Figure 1's runtime comparison.
//!
//! `iter_custom` reports **virtual** (modeled) seconds, so results are
//! independent of the host machine — exactly what the cost model produces.
//! Every timed leg records a ledger entry under the label `run_fig1` prints
//! (`fig1 mandelbrot <variant> x1`), priced at its variant's driver
//! efficiency.

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{figure_platform, time_virtual_reported_with};
use skelcl_mandel::{cuda_impl, opencl_impl, skelcl_impl, MandelParams};
use std::time::Duration;
use vgpu::DriverProfile;

fn params() -> MandelParams {
    // Small enough for quick Criterion runs; ratios are scale-stable.
    MandelParams {
        width: 256,
        height: 192,
        max_iter: 1024,
        ..MandelParams::default()
    }
}

fn bench_fig1(c: &mut Criterion) {
    let p = params();
    let platform = figure_platform(1);
    let ctx = skelcl::Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);

    // Warm builds so the binary cache isn't measured here (see the
    // kernel_cache bench for that).
    skelcl_impl::run(&ctx, &p).unwrap();
    opencl_impl::run(&platform, &p).unwrap();
    cuda_impl::run(&platform, &p).unwrap();

    let mut group = c.benchmark_group("fig1_mandelbrot_virtual");
    group.sample_size(10);

    let variants: [(&str, DriverProfile, &dyn Fn()); 3] = [
        ("skelcl", DriverProfile::skelcl(), &|| {
            skelcl_impl::run(&ctx, &p).unwrap();
        }),
        ("opencl", DriverProfile::opencl(), &|| {
            opencl_impl::run(&platform, &p).unwrap();
        }),
        ("cuda", DriverProfile::cuda(), &|| {
            cuda_impl::run(&platform, &p).unwrap();
        }),
    ];
    for (name, profile, run) in variants {
        let label = format!("fig1 mandelbrot {name} x1");
        group.bench_function(name, |b| {
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
    group.finish();

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    skelcl_bench::ledger::write_fig("fig1");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_fig1
}
criterion_main!(benches);
