//! The SkelCL implementation of the Gaussian → Sobel pipeline: two stencil
//! skeletons feeding an element-wise Zip, everything device-resident.
//!
//! Mirrors the structure of SkelCL's `cannyStencil` benchmark: each stage
//! is one skeleton, intermediates never visit the host, and under a
//! `RowBlock` distribution the stencils pull their cross-device
//! neighbourhoods through the matrix halo machinery.

use crate::{
    edge_label, gaussian3_at, hysteresis, magnitude, nms_at, sobel_x_at, sobel_y_at, Grad,
};
use skelcl::{
    Boundary2D, Map, Matrix, Pipeline, PipelineExpr, ReduceRows, ReduceRowsArg, Result, Stencil2D,
    Stencil2DView, UserFn, Vector, Zip,
};

/// The Gaussian blur skeleton.
pub fn gaussian_skeleton(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    Stencil2D::new(gauss3_fn(), 1, boundary)
}

/// The horizontal Sobel derivative skeleton.
pub fn sobel_x_skeleton(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    Stencil2D::new(sobel_x_fn(), 1, boundary)
}

/// The vertical Sobel derivative skeleton.
pub fn sobel_y_skeleton(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    Stencil2D::new(sobel_y_fn(), 1, boundary)
}

/// The gradient-magnitude Zip skeleton.
pub fn magnitude_skeleton() -> Zip<f32, f32, f32, impl Fn(f32, f32) -> f32 + Clone> {
    // >>> kernel
    let user = UserFn::new(
        "grad_mag",
        "float grad_mag(float gx, float gy) { return sqrt(gx*gx + gy*gy); }",
        magnitude,
    );
    // <<< kernel
    Zip::new(user)
}

// --- canny stage user functions -------------------------------------------
//
// One user function per stage: the fused pipeline and the unfused skeleton
// chain pass the same `UserFn` values, so they agree bit for bit.

const GAUSS3_SRC: &str = "float gauss3(__global float* in, int r, int c, uint nr, uint nc) {\n\
     #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
         return (AT(-1,-1) + 2.0f*AT(-1,0) + AT(-1,1)\n\
               + 2.0f*AT(0,-1) + 4.0f*AT(0,0) + 2.0f*AT(0,1)\n\
               + AT(1,-1) + 2.0f*AT(1,0) + AT(1,1)) * (1.0f/16.0f);\n\
     #undef AT\n\
     }";

const SOBEL_X_SRC: &str = "float sobel_x(__global float* in, int r, int c, uint nr, uint nc) {\n\
     #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
         return (AT(-1,1) + 2.0f*AT(0,1) + AT(1,1))\n\
              - (AT(-1,-1) + 2.0f*AT(0,-1) + AT(1,-1));\n\
     #undef AT\n\
     }";

const SOBEL_Y_SRC: &str = "float sobel_y(__global float* in, int r, int c, uint nr, uint nc) {\n\
     #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
         return (AT(1,-1) + 2.0f*AT(1,0) + AT(1,1))\n\
              - (AT(-1,-1) + 2.0f*AT(-1,0) + AT(-1,1));\n\
     #undef AT\n\
     }";

const GRAD_PACK_SRC: &str =
    "Grad grad_pack(float gx, float gy) { Grad g; g.gx = gx; g.gy = gy; return g; }";

const NMS_SRC: &str = "float nms(__global Grad* in, int r, int c, uint nr, uint nc) {\n\
     #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
         Grad g = AT(0, 0);\n\
         float m = sqrt(g.gx*g.gx + g.gy*g.gy);\n\
         float ax = fabs(g.gx), ay = fabs(g.gy);\n\
         int r1, c1, r2, c2;\n\
         if (ay <= 0.41421356f * ax)      { r1 = 0; c1 = -1; r2 = 0; c2 = 1; }\n\
         else if (ax <= 0.41421356f * ay) { r1 = -1; c1 = 0; r2 = 1; c2 = 0; }\n\
         else if (g.gx * g.gy > 0.0f)     { r1 = -1; c1 = -1; r2 = 1; c2 = 1; }\n\
         else                             { r1 = -1; c1 = 1; r2 = 1; c2 = -1; }\n\
         Grad n1 = AT(r1, c1); Grad n2 = AT(r2, c2);\n\
         float m1 = sqrt(n1.gx*n1.gx + n1.gy*n1.gy);\n\
         float m2 = sqrt(n2.gx*n2.gx + n2.gy*n2.gy);\n\
         return (m >= m1 && m > m2) ? m : 0.0f;\n\
     #undef AT\n\
     }";

fn gauss3_fn() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    // >>> kernel
    UserFn::new("gauss3", GAUSS3_SRC, |v: &Stencil2DView<'_, f32>| {
        gaussian3_at(|dr, dc| v.get(dr, dc))
    })
    // <<< kernel
}

fn sobel_x_fn() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    // >>> kernel
    UserFn::new("sobel_x", SOBEL_X_SRC, |v: &Stencil2DView<'_, f32>| {
        sobel_x_at(|dr, dc| v.get(dr, dc))
    })
    // <<< kernel
}

fn sobel_y_fn() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    // >>> kernel
    UserFn::new("sobel_y", SOBEL_Y_SRC, |v: &Stencil2DView<'_, f32>| {
        sobel_y_at(|dr, dc| v.get(dr, dc))
    })
    // <<< kernel
}

fn nms_fn() -> UserFn<impl Fn(&Stencil2DView<'_, Grad>) -> f32 + Clone> {
    // >>> kernel
    UserFn::new("nms", NMS_SRC, |v: &Stencil2DView<'_, Grad>| {
        nms_at(|dr, dc| v.get(dr, dc))
    })
    // <<< kernel
}

fn grad_pack_fn() -> UserFn<impl Fn(f32, f32) -> Grad + Clone> {
    // >>> kernel
    UserFn::new("grad_pack", GRAD_PACK_SRC, |gx, gy| Grad { gx, gy })
    // <<< kernel
}

fn edge_label_fn(lo: f32, hi: f32) -> UserFn<impl Fn(f32) -> f32 + Clone> {
    // The thresholds are baked into the generated source, so every (lo, hi)
    // pair is a distinct program in the kernel cache.
    // >>> kernel
    UserFn::new(
        "edge_label",
        format!(
            "float edge_label(float m) {{\n\
                 return m >= {hi:?}f ? 2.0f : (m >= {lo:?}f ? 1.0f : 0.0f);\n\
             }}"
        ),
        move |m| edge_label(m, lo, hi),
    )
    // <<< kernel
}

/// The non-maximum-suppression stencil over the gradient field (the
/// unfused chain's standalone stage).
pub fn nms_skeleton(
    boundary: Boundary2D,
) -> Stencil2D<Grad, f32, impl Fn(&Stencil2DView<'_, Grad>) -> f32 + Clone> {
    Stencil2D::new(nms_fn(), 1, boundary)
}

/// Run the full pipeline on a device-distributed image. Intermediates stay
/// on the devices; only the initial upload and the caller's final download
/// cross the host boundary.
pub fn blur_sobel(img: &Matrix<f32>, boundary: Boundary2D) -> Result<Matrix<f32>> {
    let blurred = gaussian_skeleton(boundary).apply(img)?;
    let gx = sobel_x_skeleton(boundary).apply(&blurred)?;
    let gy = sobel_y_skeleton(boundary).apply(&blurred)?;
    magnitude_skeleton().apply_matrix(&gx, &gy)
}

/// Canny label image, **fused**: the whole
/// gauss → (sobel_x ∥ sobel_y) → nms → edge_label chain is one lazy
/// [`Pipeline`] that executes as **three** kernel launches — one per
/// stencil group, with the Sobel pair sharing a single neighbourhood pass
/// and the threshold map fused into the NMS kernel's writes — and zero
/// intermediate [`Matrix`] values.
pub fn canny_labels(
    img: &Matrix<f32>,
    boundary: Boundary2D,
    lo: f32,
    hi: f32,
) -> Result<Matrix<f32>> {
    Pipeline::start::<f32>()
        .stencil(gauss3_fn(), 1, boundary)
        .stencil_pair(sobel_x_fn(), sobel_y_fn(), grad_pack_fn(), 1, boundary)
        .stencil(nms_fn(), 1, boundary)
        .map(edge_label_fn(lo, hi))
        .run(img)
}

/// Canny label image, **unfused**: the same math as [`canny_labels`] but
/// one skeleton call per stage — six launches, five intermediate matrices
/// (blurred, gx, gy, gradient field, suppressed). The `fig_fusion`
/// baseline; bit-identical to the fused pipeline.
pub fn canny_labels_unfused(
    img: &Matrix<f32>,
    boundary: Boundary2D,
    lo: f32,
    hi: f32,
) -> Result<Matrix<f32>> {
    let blurred = gaussian_skeleton(boundary).apply(img)?;
    let gx = sobel_x_skeleton(boundary).apply(&blurred)?;
    let gy = sobel_y_skeleton(boundary).apply(&blurred)?;
    let grads = Zip::new(grad_pack_fn()).apply_matrix(&gx, &gy)?;
    let suppressed = nms_skeleton(boundary).apply(&grads)?;
    Map::new(edge_label_fn(lo, hi)).apply_matrix(&suppressed)
}

/// The full canny edge detector, fused: [`canny_labels`] on the devices,
/// then the host-side [`hysteresis`] flood fill (an irregular graph
/// traversal that does not map to a data-parallel skeleton). Bit-identical
/// to [`crate::seq::canny`] on any device count.
pub fn canny(img: &Matrix<f32>, boundary: Boundary2D, lo: f32, hi: f32) -> Result<Vec<u8>> {
    let (rows, cols) = img.dims();
    let labels = canny_labels(img, boundary, lo, hi)?.to_vec()?;
    Ok(hysteresis(&labels, rows, cols))
}

/// Per-row total gradient energy: the Gaussian → Sobel pipeline composed
/// with a device-side [`ReduceRows`] sum, so the `rows×cols` magnitude
/// image is reduced to a length-`rows` vector without ever visiting the
/// host (the gradient-histogram building block). Ascending-column fold
/// from 0, bit-identical to the sequential reference on any device count.
pub fn row_gradient_sums(img: &Matrix<f32>, boundary: Boundary2D) -> Result<Vector<f32>> {
    let mag = blur_sobel(img, boundary)?;
    // >>> kernel
    let sums = ReduceRows::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );
    // <<< kernel
    sums.apply(&mag)
}

/// Per-row strongest edge: gradient magnitude + the column it peaks at,
/// via the index-carrying [`ReduceRowsArg`] (strictly-greater scan, lowest
/// column wins ties). Device-resident end to end.
pub fn row_peak_gradient(
    img: &Matrix<f32>,
    boundary: Boundary2D,
) -> Result<(Vector<f32>, Vector<u32>)> {
    let mag = blur_sobel(img, boundary)?;
    // >>> kernel
    let peak = ReduceRowsArg::new(skelcl::skel_fn!(
        fn greater(x: f32, y: f32) -> bool {
            x > y
        }
    ));
    // <<< kernel
    peak.apply(&mag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skelcl::{Context, ContextConfig, MatrixDistribution};

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .work_group(64)
                .cache_tag("imgproc-tests"),
        )
    }

    #[test]
    fn matches_the_sequential_reference_bit_for_bit() {
        let (rows, cols) = (24, 17);
        let img = crate::test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let want = crate::seq::blur_sobel(&img, rows, cols, boundary);
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            let got = blur_sobel(&m, boundary).unwrap().to_vec().unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{boundary:?}"
            );
        }
    }

    #[test]
    fn multi_device_runs_are_bit_identical_to_one_device() {
        let (rows, cols) = (33, 14);
        let img = crate::test_image(rows, cols);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            blur_sobel(&m, Boundary2D::Neumann)
                .unwrap()
                .to_vec()
                .unwrap()
        };
        for devices in [2usize, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = blur_sobel(&m, Boundary2D::Neumann)
                .unwrap()
                .to_vec()
                .unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn row_gradient_reductions_match_the_sequential_reference() {
        let (rows, cols) = (21, 13);
        let img = crate::test_image(rows, cols);
        let want_sums = crate::seq::row_gradient_sums(&img, rows, cols, Boundary2D::Neumann);
        let (want_peak, want_col) =
            crate::seq::row_peak_gradient(&img, rows, cols, Boundary2D::Neumann);
        for devices in [1usize, 2, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            let sums = row_gradient_sums(&m, Boundary2D::Neumann)
                .unwrap()
                .to_vec()
                .unwrap();
            assert_eq!(
                sums.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want_sums.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{devices} devices"
            );
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            let (peak, col) = row_peak_gradient(&m, Boundary2D::Neumann).unwrap();
            assert_eq!(
                peak.to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want_peak.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{devices} devices"
            );
            assert_eq!(col.to_vec().unwrap(), want_col, "{devices} devices");
        }
    }

    const CANNY_LO: f32 = 30.0;
    const CANNY_HI: f32 = 90.0;

    #[test]
    fn fused_canny_matches_the_sequential_reference_bit_for_bit() {
        let (rows, cols) = (29, 18);
        let img = crate::test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let want = crate::seq::canny(&img, rows, cols, boundary, CANNY_LO, CANNY_HI);
            for devices in [1usize, 2, 4] {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, img.clone());
                let got = canny(&m, boundary, CANNY_LO, CANNY_HI).unwrap();
                assert_eq!(got, want, "{boundary:?}, {devices} devices");
            }
        }
    }

    #[test]
    fn fused_and_unfused_canny_labels_are_bit_identical() {
        let (rows, cols) = (25, 21);
        let img = crate::test_image(rows, cols);
        for devices in [1usize, 2, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            let fused = canny_labels(&m, Boundary2D::Neumann, CANNY_LO, CANNY_HI)
                .unwrap()
                .to_vec()
                .unwrap();
            let m = Matrix::from_vec(&c, rows, cols, img.clone());
            let unfused = canny_labels_unfused(&m, Boundary2D::Neumann, CANNY_LO, CANNY_HI)
                .unwrap()
                .to_vec()
                .unwrap();
            assert_eq!(
                fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                unfused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn fused_canny_is_three_launch_groups_and_stays_on_the_devices() {
        let (rows, cols) = (32, 16);
        let c = ctx(2);
        let img = Matrix::from_vec(&c, rows, cols, crate::test_image(rows, cols));
        img.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        img.ensure_on_devices().unwrap();
        let groups_before = c
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        let before = c.platform().stats_snapshot();
        let labels = canny_labels(&img, Boundary2D::Neumann, CANNY_LO, CANNY_HI).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        let groups = c
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0)
            - groups_before;
        assert_eq!(groups, 3, "gauss, sobel pair, nms+label: three launches");
        assert_eq!(delta.h2d_transfers, 0, "no re-upload");
        assert_eq!(delta.d2h_transfers, 0, "no intermediate download");
        drop(labels);
    }

    #[test]
    fn canny_finds_the_vertical_seam_and_nothing_in_flat_regions() {
        // Left half 0, right half 100: hysteresis must keep the seam
        // column and reject the flat interior.
        let (rows, cols) = (12, 16);
        let img: Vec<f32> = (0..rows * cols)
            .map(|i| if i % cols < cols / 2 { 0.0 } else { 100.0 })
            .collect();
        let c = ctx(2);
        let m = Matrix::from_vec(&c, rows, cols, img.clone());
        let edges = canny(&m, Boundary2D::Neumann, 20.0, 60.0).unwrap();
        // The NMS tie-break (`>=` left, `>` right) lands the thinned edge
        // on one of the two columns straddling the seam.
        let seam: u32 = (0..rows)
            .map(|r| (edges[r * cols + cols / 2 - 1] + edges[r * cols + cols / 2]) as u32)
            .sum();
        let flat: u32 = (0..rows).map(|r| edges[r * cols + 1] as u32).sum();
        assert!(seam > 0, "the seam must survive hysteresis");
        assert_eq!(flat, 0, "flat regions must stay empty");
        assert_eq!(
            edges,
            crate::seq::canny(&img, rows, cols, Boundary2D::Neumann, 20.0, 60.0)
        );
    }

    #[test]
    fn row_gradient_sums_never_download_the_magnitude_image() {
        let (rows, cols) = (32, 16);
        let c = ctx(4);
        let img = Matrix::from_vec(&c, rows, cols, crate::test_image(rows, cols));
        img.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        img.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let sums = row_gradient_sums(&img, Boundary2D::Neumann).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2h_transfers, 0, "reduction composes on the devices");
        assert_eq!(delta.h2d_transfers, 0, "no re-upload");
        // Only the tiny per-row vector crosses on the final read.
        let before = c.platform().stats_snapshot();
        let host = sums.to_vec().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(host.len(), rows);
        assert!(delta.d2h_bytes <= (rows * 4) as u64);
    }

    #[test]
    fn pipeline_stays_on_the_devices() {
        let (rows, cols) = (32, 16);
        let c = ctx(4);
        let img = Matrix::from_vec(&c, rows, cols, crate::test_image(rows, cols));
        img.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        img.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = blur_sobel(&img, Boundary2D::Neumann).unwrap();
        let mid = c.platform().stats_snapshot() - before;
        assert_eq!(mid.h2d_transfers, 0, "no re-upload of anything");
        assert_eq!(mid.d2h_transfers, 0, "no intermediate download");
        assert!(
            mid.d2d_transfers > 0,
            "cross-device halo exchange must be visible in the accounting"
        );
        // The one and only download happens when the caller reads.
        let before = c.platform().stats_snapshot();
        out.to_vec().unwrap();
        let last = c.platform().stats_snapshot() - before;
        assert_eq!(last.d2h_transfers, 4, "one download per device part");
    }
}
