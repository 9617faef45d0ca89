//! Property-based tests of the lazy [`Pipeline`] fusion subsystem: fused
//! execution is **bit-identical** to the unfused skeleton chain for every
//! shape (including 1×N and N×1 degenerates), boundary mode, device count,
//! starting distribution and stage composition — while launching one kernel
//! per fused group instead of one per stage.

use proptest::prelude::*;
use skelcl::{
    Boundary2D, Context, ContextConfig, Map, Matrix, MatrixDistribution, Pipeline, PipelineExpr,
    ReduceRows, Stencil2D, Stencil2DView, UserFn, Zip,
};
use vgpu::DeviceSpec;

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("prop-fusion"),
    )
}

fn boundary_strategy() -> impl Strategy<Value = Boundary2D> {
    prop_oneof![
        Just(Boundary2D::Neumann),
        Just(Boundary2D::Wrap),
        Just(Boundary2D::Zero),
    ]
}

fn dist_strategy() -> impl Strategy<Value = MatrixDistribution> {
    prop_oneof![
        Just(MatrixDistribution::Single(0)),
        Just(MatrixDistribution::Copy),
        (0usize..3).prop_map(|halo| MatrixDistribution::RowBlock { halo }),
    ]
}

/// Degenerate-friendly shapes: plain rectangles plus forced 1×N and N×1.
fn shape_strategy() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        ((1usize..18), (1usize..12)),
        (Just(1usize), (1usize..24)),
        ((1usize..24), Just(1usize)),
    ]
}

fn test_data(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            ((((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 2000) as f32) / 8.0 - 125.0
        })
        .collect()
}

fn scale_fn() -> UserFn<fn(f32) -> f32> {
    skelcl::skel_fn!(
        fn pscale(x: f32) -> f32 {
            x * 0.5 + 1.0
        }
    )
}

fn square_fn() -> UserFn<fn(f32) -> f32> {
    skelcl::skel_fn!(
        fn psquare(x: f32) -> f32 {
            x * x * 0.01
        }
    )
}

fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
    skelcl::skel_fn!(
        fn padd(x: f32, y: f32) -> f32 {
            x + y
        }
    )
}

const CROSS_SRC: &str =
    "float pcross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }";

fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new("pcross", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
    });
    Stencil2D::new(user, 1, boundary)
}

fn cross_pipe() -> UserFn<impl for<'v> Fn(&Stencil2DView<'v, f32>) -> f32 + Clone> {
    UserFn::new("pcross", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
    })
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.to_vec().unwrap().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // An empty pipeline is the identity — same bits, zero launches.
    #[test]
    fn empty_pipeline_is_identity(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed));
        m.set_distribution(dist).unwrap();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let out = Pipeline::start::<f32>().run(&m).unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(bits(&out), bits(&m));
        prop_assert_eq!(before, after, "empty pipeline must launch nothing");
    }

    // A single map stage equals the unfused Map skeleton, bit for bit.
    #[test]
    fn single_map_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>().map(scale_fn()).run(&m).unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let unfused = Map::new(scale_fn()).apply_matrix(&m2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    // A single stencil stage equals the unfused Stencil2D skeleton for all
    // three boundary modes.
    #[test]
    fn single_stencil_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>()
            .stencil(cross_pipe(), 1, boundary)
            .run(&m)
            .unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let unfused = cross_stencil(boundary).apply(&m2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    // The canonical fused group — an element-wise chain on both sides of a
    // stencil anchor — equals the three-skeleton chain and launches once.
    #[test]
    fn map_stencil_map_matches_unfused_chain(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .stencil(cross_pipe(), 1, boundary)
            .map(square_fn())
            .run(&m)
            .unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(after - before, 1, "the whole chain is one launch group");

        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let step1 = Map::new(scale_fn()).apply_matrix(&m2).unwrap();
        let step2 = cross_stencil(boundary).apply(&step1).unwrap();
        let unfused = Map::new(square_fn()).apply_matrix(&step2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    // A zip stage equals the unfused Zip skeleton.
    #[test]
    fn zip_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let da = test_data(rows, cols, seed);
        let db = test_data(rows, cols, seed.wrapping_add(7));
        let m = Matrix::from_vec(&c, rows, cols, da.clone());
        m.set_distribution(dist).unwrap();
        let other = Matrix::from_vec(&c, rows, cols, db.clone());
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, da);
        m2.set_distribution(dist).unwrap();
        let other2 = Matrix::from_vec(&c, rows, cols, db);
        let mapped = Map::new(scale_fn()).apply_matrix(&m2).unwrap();
        let unfused = Zip::new(add_fn()).apply_matrix(&mapped, &other2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    // A fused map → reduce_rows equals Map then ReduceRows.
    #[test]
    fn fused_reduce_rows_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>()
            .map(square_fn())
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let mapped = Map::new(square_fn()).apply_matrix(&m2).unwrap();
        let unfused = ReduceRows::new(add_fn(), 0.0).apply(&mapped).unwrap();
        prop_assert_eq!(
            fused.to_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            unfused.to_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // Two stencil anchors back to back: the elementwise stage between them
    // fuses into the first anchor's writes; results match the 4-skeleton
    // chain and exactly two groups launch.
    #[test]
    fn stencil_map_stencil_matches_unfused_chain(
        rows in 1usize..14,
        cols in 1usize..10,
        devices in 1usize..4,
        boundary in boundary_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        c.platform().enable_timeline_trace();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .stencil(cross_pipe(), 1, boundary)
            .map(scale_fn())
            .stencil(cross_pipe(), 1, boundary)
            .run(&m)
            .unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(after - before, 2, "two stencil anchors, two launches");

        // The two fused launch groups hand data from the first anchor to the
        // second: the recorded timeline must carry that ordering.
        c.sync();
        let trace = c.platform().take_timeline_trace();
        if let Some(hazard) = skelcl::check::verify_no_buffer_hazards(&trace) {
            panic!("{hazard}");
        }

        let m2 = Matrix::from_vec(&c, rows, cols, data);
        let step1 = cross_stencil(boundary).apply(&m2).unwrap();
        let step2 = Map::new(scale_fn()).apply_matrix(&step1).unwrap();
        let unfused = cross_stencil(boundary).apply(&step2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }
}
