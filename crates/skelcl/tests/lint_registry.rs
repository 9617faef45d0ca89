//! Registry-wide kernel lint: drive every skeleton family once — including
//! both reduce/scan/allpairs strategies, the with-arguments variants, and
//! the fused pipeline chains — so the context's program registry holds one
//! compiled program per generated-code family, then run the `skelcheck`
//! lint pass over every resident program and require **zero findings**.
//!
//! This is the codegen contract the linter enforces: no barrier under
//! thread-divergent control flow, every statically declared `__local`
//! array inside the device budget, host arg-marshalling arity matching a
//! kernel signature, and every `__global` read guarded against bounds.

use skelcl::*;

fn ctx() -> Context {
    Context::new(
        ContextConfig::default()
            .devices(2)
            .spec(vgpu::DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("lint-registry"),
    )
}

fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
    skel_fn!(
        fn ladd(x: f32, y: f32) -> f32 {
            x + y
        }
    )
}

fn mul_fn() -> UserFn<fn(f32, f32) -> f32> {
    skel_fn!(
        fn lmul(x: f32, y: f32) -> f32 {
            x * y
        }
    )
}

fn scale_fn() -> UserFn<fn(f32) -> f32> {
    skel_fn!(
        fn lscale(x: f32) -> f32 {
            x * 0.5 + 1.0
        }
    )
}

const CROSS_SRC: &str =
    "float lcross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }";

fn cross_pipe() -> UserFn<impl for<'v> Fn(&Stencil2DView<'v, f32>) -> f32 + Clone> {
    UserFn::new("lcross", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
    })
}

fn cross_stencil() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new("lcross", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
    });
    Stencil2D::new(user, 1, Boundary2D::Neumann)
}

fn vec_data(c: &Context, n: usize) -> Vector<f32> {
    Vector::from_vec(c, (0..n).map(|i| (i % 17) as f32 - 8.0).collect())
}

fn mat_data(c: &Context, rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::from_fn(c, rows, cols, |r, cc| ((r * cols + cc) % 13) as f32 - 6.0)
}

/// Compile one program per generated-code family into `c`'s registry.
fn populate_registry(c: &Context) {
    // 1D element-wise families: map, zip, and their with-arguments twins.
    let v = vec_data(c, 100);
    let w = vec_data(c, 100);
    Map::new(scale_fn()).apply(&v).unwrap();
    Zip::new(add_fn()).apply(&v, &w).unwrap();

    let mult_num = UserFn::new(
        "lmult_num",
        "float lmult_num(float input, float number) { return input * number; }",
        |x: f32, env: &KernelEnv<'_>| x * env.scalar::<f32>(0),
    );
    let mut args = Arguments::new();
    args.push(3.0f32);
    MapArgs::new(mult_num, 1).apply(&v, &args).unwrap();

    let fma = UserFn::new(
        "lfma",
        "float lfma(float x, float y, float s) { return x + y * s; }",
        |x: f32, y: f32, env: &KernelEnv<'_>| x + y * env.scalar::<f32>(0),
    );
    ZipArgs::new(fma, 1).apply(&v, &w, &args).unwrap();

    let acc = Vector::from_vec(c, vec![0.0f32; 4]);
    acc.set_distribution(Distribution::Copy).unwrap();
    let scatter = UserFn::new(
        "lscatter",
        "void lscatter(uint i, __global float* acc) { atomic_add(&acc[i % 4], 1.0f); }",
        |i: u32, env: &KernelEnv<'_>| {
            env.vec::<f32>(0).atomic_add(i as usize % 4, 1.0);
        },
    );
    let idx = Vector::from_vec(c, (0..16u32).collect());
    let mut vec_args = Arguments::new();
    vec_args.push(&acc);
    MapVoid::new(scatter, 1).apply(&idx, &vec_args).unwrap();

    // Tree reductions and scans, both strategies each.
    Reduce::new(add_fn(), 0.0).apply(&v).unwrap();
    Reduce::new(add_fn(), 0.0)
        .with_strategy(ReduceStrategy::GlobalNaive)
        .apply(&v)
        .unwrap();
    Scan::new(add_fn(), 0.0).apply(&v).unwrap();
    Scan::new(add_fn(), 0.0)
        .with_strategy(ScanStrategy::Conflicting)
        .apply(&v)
        .unwrap();

    // 2D element-wise (map2d / zip2d) and the 2D stencil, plus the
    // iterate-specialised stencil program.
    let m = mat_data(c, 12, 8);
    let m2 = mat_data(c, 12, 8);
    Map::new(scale_fn()).apply_matrix(&m).unwrap();
    Zip::new(add_fn()).apply_matrix(&m, &m2).unwrap();
    let st = cross_stencil();
    st.apply(&m).unwrap();
    let it = mat_data(c, 12, 8);
    it.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    st.iterate(&it, 2).unwrap();

    // Row/column reductions and their argbest twins.
    ReduceRows::new(add_fn(), 0.0).apply(&m).unwrap();
    ReduceCols::new(add_fn(), 0.0).apply(&m).unwrap();
    let less = skel_fn!(
        fn lless(x: f32, y: f32) -> bool {
            x < y
        }
    );
    ReduceRowsArg::new(less.clone()).apply(&m).unwrap();
    ReduceColsArg::new(less).apply(&m).unwrap();

    // AllPairs: naive, tiled, and the fused post-stage variant.
    let a = mat_data(c, 6, 5);
    let b = mat_data(c, 5, 7);
    AllPairs::new(mul_fn(), add_fn(), 0.0)
        .with_strategy(AllPairsStrategy::Naive)
        .apply(&a, &b)
        .unwrap();
    AllPairs::new(mul_fn(), add_fn(), 0.0)
        .with_strategy(AllPairsStrategy::Tiled { tile: 16 })
        .apply(&a, &b)
        .unwrap();
    AllPairs::new(mul_fn(), add_fn(), 0.0)
        .with_post(scale_fn())
        .apply(&a, &b)
        .unwrap();

    // Fused pipeline chains: pure element-wise group (fused_map2d), a
    // stencil anchor with fused pre/post stages (fused_stencil2d), and a
    // map chain folded into a row reduction (fused_reduce_rows).
    Pipeline::start::<f32>()
        .map(scale_fn())
        .zip_with(&m2, add_fn())
        .run(&m)
        .unwrap();
    Pipeline::start::<f32>()
        .map(scale_fn())
        .stencil(cross_pipe(), 1, Boundary2D::Neumann)
        .map(scale_fn())
        .run(&m)
        .unwrap();
    Pipeline::start::<f32>()
        .map(scale_fn())
        .reduce_rows(&m, add_fn(), 0.0)
        .unwrap();
}

#[test]
fn every_registered_program_lints_clean() {
    let c = ctx();
    populate_registry(&c);

    // One program per family driven above; a family that stops building
    // (or starts building twice) changes the count.
    let resident = c.programs_built();
    assert_eq!(
        resident, 20,
        "expected one program per family in the registry"
    );

    let findings = c.lint_registry();
    assert!(
        findings.is_empty(),
        "lint findings over {} registered programs:\n{}",
        resident,
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The pass is visible in the metrics registry: it ran (counter exists)
    // and recorded zero findings.
    assert_eq!(
        c.metrics().counter_value("skelcheck.lint_findings"),
        Some(0)
    );
}
