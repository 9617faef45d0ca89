//! The algorithmic skeletons (paper Section III-B):
//! [`Map`], [`Zip`], [`Reduce`], [`Scan`] — plus the with-arguments
//! variants of Section III-C ([`MapArgs`], [`MapVoid`], [`ZipArgs`]) and
//! the matrix skeletons SkelCL grew next ([`Stencil2D`], [`AllPairs`], the
//! row/column reductions and the fused [`Pipeline`]). A 1-D stencil is a
//! [`Stencil2D`] over an N×1 [`Matrix`](crate::Matrix).
//!
//! Every skeleton is a higher-order entity customized by a [`UserFn`](crate::UserFn)
//! (source string + Rust twin, see [`crate::skel_fn!`]). Construction
//! generates the OpenCL-C program; the first call per context builds it
//! through the two-level kernel cache; every call then launches on each
//! device holding a part of the input, per the input's distribution.

mod allpairs;
mod map;
mod pipeline;
mod reduce;
mod reduce2d;
mod scan;
mod stencil2d;
mod zip;

pub use allpairs::{AllPairs, AllPairsStrategy};
pub use map::{Map, MapArgs, MapVoid};
pub use pipeline::{PipeMap, PipeStencil, PipeStencilPair, PipeZip, Pipeline, PipelineExpr, Start};
pub use reduce::{Reduce, ReduceStrategy};
pub use reduce2d::{ReduceCols, ReduceColsArg, ReduceRows, ReduceRowsArg};
pub use scan::{Scan, ScanStrategy};
pub use stencil2d::{Boundary2D, Stencil2D, Stencil2DView};
pub use zip::{Zip, ZipArgs};

use crate::context::Context;
use crate::error::Result;
use vgpu::Scalar as Element;

/// Allocate output parts matching an input part layout (same devices, same
/// owned/halo row geometry, same column range). Used by the element-wise
/// skeletons, whose output inherits the input's distribution — vector parts
/// are one-column matrix parts, so vectors and matrices share it.
pub(crate) fn alloc_matching_matrix_parts<T: Element, U: Element>(
    ctx: &Context,
    parts: &[crate::matrix::MatrixPart<T>],
) -> Result<Vec<crate::matrix::MatrixPart<U>>> {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(crate::matrix::MatrixPart {
            device: p.device,
            row_offset: p.row_offset,
            rows: p.rows,
            halo_above: p.halo_above,
            halo_below: p.halo_below,
            col_offset: p.col_offset,
            cols: p.cols,
            buffer: ctx.device(p.device).alloc::<U>(p.span_rows() * p.cols)?,
        });
    }
    Ok(out)
}

/// 1-D launch range for `len` elements under the context's work-group size.
pub(crate) fn linear_range(ctx: &Context, len: usize) -> vgpu::NDRange {
    let wg = ctx.work_group().min(len.max(1));
    vgpu::NDRange::linear(len.max(1), wg)
}

/// 2-D launch range over a `cols × rows` grid: square-ish work-groups (like
/// SkelCL's 32×4 / 16×16 stencil groups) whose size stays within the
/// context's configured budget.
pub(crate) fn range_2d(ctx: &Context, cols: usize, rows: usize) -> vgpu::NDRange {
    let budget = ctx.work_group().max(1);
    let lx = cols.clamp(1, 16.min(budget));
    let ly = rows.clamp(1, (budget / lx).max(1)).min(16);
    vgpu::NDRange::two_d((cols.max(1), rows.max(1)), (lx, ly))
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::context::{Context, ContextConfig};

    /// A small multi-CU context for skeleton tests.
    pub fn ctx(n_devices: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n_devices)
                .spec(vgpu::DeviceSpec::tiny())
                .work_group(64)
                .cache_tag("skelcl-skeleton-tests"),
        )
    }
}
