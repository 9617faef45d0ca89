//! The AllPairs skeleton: `C[i][j] = f(row_i(A), col_j(B))` over
//! [`Matrix`] operands — SkelCL's later `AllPairs(M, N)` extension that
//! opens the dense-linear-algebra workload class (matrix multiplication,
//! pairwise distances, k-NN scoring).
//!
//! Like SkelCL's fast AllPairs implementation, the customizing function is
//! restricted to the **zip-reduce form**: a `zip` function combines the
//! paired elements `A[i][k]` and `B[k][j]`, and an associative `reduce`
//! function folds the `k` partial results (matrix multiplication is
//! `zip = ×`, `reduce = +`). This restriction is what admits the
//! local-memory tiled variant: because the reduction is a left fold in
//! ascending `k`, a work-group can stage `tile × tile` blocks of the A-row
//! strip and B-column strip in local memory and combine from there, cutting
//! global traffic by a factor of `tile` without changing the floating-point
//! evaluation order — naive and tiled results are **bit-identical**.
//!
//! Multi-device execution partitions `C`'s rows: `A` distributes by row
//! blocks, and `B` is replicated (a `Copy` or column-block `B` is
//! redistributed automatically, device-to-device when its data is already
//! device-fresh — no host round trips for intermediates).
//!
//! When `B`'s freshest data is on the **host**, the replication is
//! event-driven: each device's copy of `B` is uploaded as asynchronous
//! chunked writes on that device's copy stream, and the kernels are
//! launched with explicit event dependencies (a per-device marker joining
//! previously scheduled work, plus the device's last replication chunk)
//! instead of device-serializing. The upload therefore slides *under*
//! whatever kernels are already in flight on the compute engine — e.g.
//! other tenants' kernels when AllPairs jobs run inside the executor
//! service — while the math stays bit-identical to the blocking path.

use crate::codegen::{self, FusedStage, UserFn};
use crate::error::{Error, Result};
use crate::matrix::{Matrix, MatrixDistribution};
use crate::meter;
use crate::skeletons::range_2d;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{After, Event, KernelBody, NDRange, Program, Scalar as Element};

/// Row granularity of the streamed B-replication upload: small enough that
/// the first chunks land while later ones are still crossing PCIe, large
/// enough that per-transfer latency stays amortised.
const B_REPLICATION_CHUNK_ROWS: usize = 64;

/// Which parallelisation [`AllPairs::apply`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllPairsStrategy {
    /// One work-item per output element, streaming both operands from
    /// global memory (`2k` loads per element).
    Naive,
    /// Work-groups of `tile × tile` items stage an A-row-strip tile and a
    /// B-col-strip tile in local memory per inner-dimension step, so each
    /// operand element is loaded from global memory once per *group*
    /// instead of once per *item*. The tile dimension is clamped to the
    /// context's work-group budget and the device's local-memory capacity.
    Tiled { tile: usize },
}

impl Default for AllPairsStrategy {
    fn default() -> Self {
        AllPairsStrategy::Tiled { tile: 16 }
    }
}

/// A post stage fused into the AllPairs write: the stage descriptor used
/// for codegen plus the type-erased Rust twin applied to each folded value.
type PostFn<U> = Arc<dyn Fn(U) -> U + Send + Sync>;
type PostStage<U> = (FusedStage, PostFn<U>);

/// The AllPairs skeleton, customized by a zip function, an associative
/// reduce function and the reduction's identity element.
pub struct AllPairs<T: Element, U: Element, Fz, Fr> {
    zip: UserFn<Fz>,
    reduce: UserFn<Fr>,
    identity: U,
    strategy: AllPairsStrategy,
    post: Vec<PostStage<U>>,
    _pd: PhantomData<fn(T, T) -> U>,
}

impl<T, U, Fz, Fr> AllPairs<T, U, Fz, Fr>
where
    T: Element,
    U: Element,
    Fz: Fn(T, T) -> U + Send + Sync + Clone + 'static,
    Fr: Fn(U, U) -> U + Send + Sync + Clone + 'static,
{
    /// `AllPairs<float> mm(mult, sum, 0.0)` — matrix multiplication when
    /// `zip` multiplies and `reduce` adds from `identity = 0`.
    pub fn new(zip: UserFn<Fz>, reduce: UserFn<Fr>, identity: U) -> Self {
        AllPairs {
            zip,
            reduce,
            identity,
            strategy: AllPairsStrategy::default(),
            post: Vec::new(),
            _pd: PhantomData,
        }
    }

    /// Select the execution strategy (default: tiled with 16×16 tiles).
    pub fn with_strategy(mut self, strategy: AllPairsStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fuse an element-wise post stage into the write of every output
    /// element: `C[i][j] = post(fold(...))` in the same kernel, with no
    /// intermediate matrix. Stages accumulate in call order and become part
    /// of the generated program (and its cache key). This is how a
    /// pipeline's trailing `map` chain lands on an AllPairs anchor — e.g.
    /// a fused `sqrt` turns the zip-reduce of squared differences into
    /// Euclidean pairwise distances in one launch.
    pub fn with_post<Fp>(mut self, user: UserFn<Fp>) -> Self
    where
        Fp: Fn(U) -> U + Send + Sync + Clone + 'static,
    {
        let f = user.func().clone();
        self.post.push((FusedStage::of("map", &user), Arc::new(f)));
        self
    }

    pub fn strategy(&self) -> AllPairsStrategy {
        self.strategy
    }

    /// The generated naive program (exposed for the cache experiments).
    /// Fused post stages are part of the program name and the kernel cache
    /// key.
    pub fn program(&self) -> Program {
        self.tiled_program(0)
    }

    /// The generated tiled program for a given tile dimension (`0` is the
    /// naive form); the tile is part of the source and therefore of the
    /// kernel cache key.
    pub fn tiled_program(&self, tile: usize) -> Program {
        let post: Vec<FusedStage> = self.post.iter().map(|(s, _)| s.clone()).collect();
        codegen::allpairs_program(
            self.zip.name(),
            self.zip.source(),
            self.reduce.name(),
            self.reduce.source(),
            &post,
            T::TYPE_NAME,
            U::TYPE_NAME,
            tile,
        )
    }

    /// The largest usable tile dimension: the requested tile halved until
    /// `tile²` fits the context's work-group budget and two `tile²` operand
    /// tiles fit the device's local memory.
    fn effective_tile(&self, ctx: &crate::context::Context, requested: usize) -> usize {
        let spec = *ctx.device(0).spec();
        let wg_budget = ctx.work_group().min(spec.max_work_group).max(1);
        let elem = std::mem::size_of::<T>().max(1);
        let mut tile = requested.max(1);
        while tile > 1 && (tile * tile > wg_budget || 2 * tile * tile * elem > spec.local_mem_bytes)
        {
            tile /= 2;
        }
        tile
    }

    /// Apply the skeleton: `C[i][j] = reduce(identity, zip(A[i][k], B[k][j]))`
    /// folded in ascending `k`. `A` (an `m×k` matrix) keeps — or is moved
    /// to — a row-based distribution; `B` (`k×n`) is replicated to every
    /// device holding rows of `A` (device-to-device when already resident).
    /// The output inherits `A`'s distribution, rows partitioned like `A`'s.
    pub fn apply(&self, a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<U>> {
        let (m, ka) = a.dims();
        let (kb, n) = b.dims();
        if ka != kb {
            return Err(Error::InnerDimMismatch {
                left: (m, ka),
                right: (kb, n),
            });
        }
        let ctx = a.ctx().clone();
        let mut span = ctx.span("allpairs.apply");
        span.attr("shape", format!("{m}x{ka}x{n}"));
        span.attr("distribution", format!("{:?}", a.distribution()));
        span.attr("devices", ctx.n_devices().to_string());

        // A's parts must hold full rows; a column-block A is re-laid out
        // (device-side when fresh) into row blocks.
        if !a.distribution().is_full_width() {
            a.set_distribution(MatrixDistribution::row_block())?;
        }
        // Every device computing rows of C needs all of B.
        let a_parts = a.parts_with_fresh_halos()?;
        let full_b_on = |parts: &[crate::matrix::MatrixPart<T>], device: usize| {
            parts
                .iter()
                .any(|p| p.device == device && p.rows == kb && p.cols == n)
        };
        // Host-fresh B: replicate it event-driven — markers join each
        // device's already-scheduled work (A's upload, in-flight kernels),
        // then the per-device copies stream as async chunked writes on the
        // copy streams, and each kernel below waits on exactly (marker,
        // last replication chunk) instead of serializing on the device.
        // Device-fresh B: gathered by device-to-device exchange as before,
        // never through the host, with classic device-serializing launches.
        let (b_parts, b_chunks, b_markers) = if !b.device_fresh() {
            b.set_distribution(MatrixDistribution::Copy)?;
            let markers: Vec<Event> = (0..ctx.n_devices())
                .map(|d| ctx.queue(d).enqueue_marker())
                .collect();
            let (parts, chunks) = b.parts_with_upload_chunks(B_REPLICATION_CHUNK_ROWS)?;
            (parts, chunks, Some(markers))
        } else {
            let mut b_parts = b.parts()?;
            if a_parts
                .iter()
                .filter(|p| p.rows > 0)
                .any(|p| !full_b_on(&b_parts, p.device))
            {
                b.set_distribution(MatrixDistribution::Copy)?;
                b_parts = b.parts()?;
            }
            (b_parts, Vec::new(), None)
        };

        let tile = match self.strategy {
            AllPairsStrategy::Naive => 0,
            AllPairsStrategy::Tiled { tile } => self.effective_tile(&ctx, tile),
        };
        let compiled = ctx.get_or_build(&self.tiled_program(tile))?;

        // Output parts mirror A's row geometry at C's width. Halo rows are
        // computed too (their input rows — full A rows plus all of B — are
        // resident), so the output's halos are coherent from the start.
        let mut out_parts = Vec::with_capacity(a_parts.len());
        for p in &a_parts {
            out_parts.push(crate::matrix::MatrixPart {
                device: p.device,
                row_offset: p.row_offset,
                rows: p.rows,
                halo_above: p.halo_above,
                halo_below: p.halo_below,
                col_offset: 0,
                cols: n,
                buffer: ctx.device(p.device).alloc::<U>(p.span_rows() * n)?,
            });
        }

        // Static per-k cost of one zip + one reduce application, plus the
        // once-per-element cost of the fused post chain.
        let step_ops = self.zip.static_ops() + self.reduce.static_ops();
        let post_ops: u64 = self.post.iter().map(|(s, _)| s.static_ops).sum();
        let post_fns: Arc<Vec<PostFn<U>>> =
            Arc::new(self.post.iter().map(|(_, f)| f.clone()).collect());
        let elem_bytes = std::mem::size_of::<T>();
        for (ap, op) in a_parts.iter().zip(&out_parts) {
            if ap.rows == 0 || n == 0 {
                continue;
            }
            let bi = b_parts
                .iter()
                .position(|p| p.device == ap.device && p.rows == kb && p.cols == n)
                .expect("B was just replicated to every computing device");
            let bp = &b_parts[bi];
            // Kernel-body snapshots of the device-resident operands: the
            // inner loop runs k times per output element, so per-access
            // counted reads would dominate wall time; traffic and work are
            // charged in bulk per item instead (see `it.traffic_read`).
            let a_snap: Arc<Vec<T>> = Arc::new(ap.buffer.to_vec());
            let b_snap: Arc<Vec<T>> = Arc::new(bp.buffer.to_vec());
            let b_base = bp.halo_above * n;
            let zip = self.zip.func().clone();
            let red = self.reduce.func().clone();
            let post = post_fns.clone();
            let identity = self.identity;
            let dst = op.buffer.clone();
            let span_rows = ap.span_rows();

            // Both strategies compute the same ascending-k left fold per
            // element (that is what makes naive and tiled bit-identical);
            // they differ only in staging and in how much global traffic
            // each item is charged — naive streams both operands per k
            // step, tiled loads one element of each operand per k-tile and
            // serves the rest from local memory.
            let staging = (tile > 0).then(|| (tile, ka.div_ceil(tile)));
            let per_item_bytes = match staging {
                None => 2 * ka * elem_bytes,
                Some((_, n_ktiles)) => 2 * n_ktiles * elem_bytes,
            };
            let body: KernelBody = Arc::new(move |wg| {
                if let Some((tile, n_ktiles)) = staging {
                    // The staging tiles: allocated so the device's
                    // local-memory budget is enforced and the footprint
                    // shows up in the cost model. The load patterns
                    // (broadcast for the A tile, unit-stride for the B
                    // tile) are bank-conflict-free, so no conflict passes
                    // are recorded.
                    let _a_tile = wg.local_buf::<T>(tile * tile);
                    let _b_tile = wg.local_buf::<T>(tile * tile);
                    for _ in 0..n_ktiles {
                        wg.barrier(); // after staging the tiles
                        wg.barrier(); // before overwriting them
                    }
                }
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let col = it.global_id(0);
                    let s = it.global_id(1);
                    let a_row = &a_snap[s * ka..(s + 1) * ka];
                    let (acc, dyn_ops) = meter::metered(|| {
                        let mut acc = identity;
                        for (kk, &x) in a_row.iter().enumerate() {
                            acc = red(acc, zip(x, b_snap[b_base + kk * n + col]));
                        }
                        for f in post.iter() {
                            acc = f(acc);
                        }
                        acc
                    });
                    it.write(&dst, s * n + col, acc);
                    it.work(ka as u64 * step_ops + post_ops + dyn_ops);
                    it.traffic_read(per_item_bytes);
                });
            });
            let nd = match staging {
                None => range_2d(&ctx, n, span_rows),
                Some((tile, _)) => NDRange::two_d((n, span_rows), (tile, tile)),
            };
            let deps: Option<Vec<Event>> = b_markers.as_ref().map(|markers| {
                let last_chunk = b_chunks.get(bi).and_then(|c| c.last());
                std::iter::once(markers[ap.device].clone())
                    .chain(last_chunk.map(|chunk| chunk.event.clone()))
                    .collect()
            });
            let after = deps.as_deref().map_or(After::Device, After::Events);
            ctx.queue(ap.device)
                .launch(&compiled.with_body(body), nd, after)?;
        }

        Ok(Matrix::from_device_parts(
            &ctx,
            m,
            n,
            a.distribution(),
            out_parts,
            true,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    type AllPairsF32 = AllPairs<f32, f32, fn(f32, f32) -> f32, fn(f32, f32) -> f32>;

    fn matmul_skel() -> AllPairsF32 {
        AllPairs::new(
            crate::skel_fn!(
                fn mult(x: f32, y: f32) -> f32 {
                    x * y
                }
            ),
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn test_data(rows: usize, cols: usize, salt: u32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32) / 8.0
                    - 60.0
            })
            .collect()
    }

    /// The sequential truth: identical fold order (ascending k from the
    /// identity) to both device strategies.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c.push(acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_reference_on_one_device() {
        let c = ctx(1);
        let (m, k, n) = (9, 7, 11);
        let (da, db) = (test_data(m, k, 1), test_data(k, n, 2));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        let want = reference_matmul(&da, &db, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn naive_and_tiled_are_bit_identical_across_device_counts() {
        let (m, k, n) = (13, 17, 10);
        let (da, db) = (test_data(m, k, 3), test_data(k, n, 4));
        let want: Vec<u32> = reference_matmul(&da, &db, m, k, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for devices in [1usize, 2, 4] {
            for strategy in [
                AllPairsStrategy::Naive,
                AllPairsStrategy::Tiled { tile: 16 },
            ] {
                let c = ctx(devices);
                let a = Matrix::from_vec(&c, m, k, da.clone());
                let b = Matrix::from_vec(&c, k, n, db.clone());
                let got: Vec<u32> = matmul_skel()
                    .with_strategy(strategy)
                    .apply(&a, &b)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{devices} devices, {strategy:?}");
            }
        }
    }

    #[test]
    fn col_block_b_is_gathered_device_side() {
        let devices = 3;
        let c = ctx(devices);
        let (m, k, n) = (12, 8, 9);
        let (da, db) = (test_data(m, k, 5), test_data(k, n, 6));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        b.set_distribution(MatrixDistribution::ColBlock).unwrap();
        b.ensure_on_devices().unwrap();
        b.mark_devices_modified(); // device copies are the truth now
        let before = c.platform().stats_snapshot();
        let got = matmul_skel().apply(&a, &b).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(
            delta.d2d_transfers > 0,
            "gathering a ColBlock B must go device-to-device"
        );
        assert_eq!(delta.d2h_transfers, 0, "no host round trip for B");
        assert_eq!(got.to_vec().unwrap(), reference_matmul(&da, &db, m, k, n));
    }

    #[test]
    fn inner_dimension_mismatch_is_rejected() {
        let c = ctx(1);
        let a = Matrix::from_vec(&c, 3, 4, vec![0.0f32; 12]);
        let b = Matrix::from_vec(&c, 5, 2, vec![0.0f32; 10]);
        let err = matmul_skel().apply(&a, &b).unwrap_err();
        assert!(matches!(err, Error::InnerDimMismatch { .. }));
        assert!(err.to_string().contains("3x4"));
        assert!(err.to_string().contains("5x2"));
    }

    #[test]
    fn tile_dimension_is_part_of_the_cache_key() {
        let s = matmul_skel();
        let t8 = s.tiled_program(8).hash();
        let t16 = s.tiled_program(16).hash();
        let naive = s.program().hash();
        assert_ne!(t8, t16, "tile dims must produce distinct programs");
        assert_ne!(t8, naive);
    }

    #[test]
    fn oversized_tile_is_clamped_to_the_work_group_budget() {
        // test contexts use a 64-item work-group budget: a 16×16 tile (256
        // items) must clamp down to 8×8 rather than fail the launch.
        let c = ctx(2);
        let (m, k, n) = (20, 33, 18);
        let (da, db) = (test_data(m, k, 7), test_data(k, n, 8));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel()
            .with_strategy(AllPairsStrategy::Tiled { tile: 16 })
            .apply(&a, &b)
            .unwrap();
        assert_eq!(got.to_vec().unwrap(), reference_matmul(&da, &db, m, k, n));
    }

    #[test]
    fn tiled_beats_naive_in_the_virtual_timeline() {
        let c = ctx(1);
        let (m, k, n) = (96, 96, 96);
        let a = Matrix::from_vec(&c, m, k, test_data(m, k, 9));
        let b = Matrix::from_vec(&c, k, n, test_data(k, n, 10));
        a.ensure_on_devices().unwrap();
        b.ensure_on_devices().unwrap();
        let s = matmul_skel();
        // Warm the program cache so only kernel time is compared.
        s.apply(&a, &b).unwrap();
        s.with_strategy(AllPairsStrategy::Naive)
            .apply(&a, &b)
            .unwrap();

        c.platform().reset_clocks();
        matmul_skel().apply(&a, &b).unwrap();
        c.sync();
        let t_tiled = c.host_now_s();

        c.platform().reset_clocks();
        matmul_skel()
            .with_strategy(AllPairsStrategy::Naive)
            .apply(&a, &b)
            .unwrap();
        c.sync();
        let t_naive = c.host_now_s();
        assert!(
            t_tiled < t_naive,
            "local-memory tiling must model faster: tiled={t_tiled} naive={t_naive}"
        );
    }

    #[test]
    fn empty_inner_dimension_yields_the_identity() {
        let c = ctx(2);
        let a = Matrix::from_vec(&c, 4, 0, vec![]);
        let b = Matrix::from_vec(&c, 0, 3, vec![]);
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        assert_eq!(got, vec![0.0f32; 12]);
    }

    #[test]
    fn host_fresh_b_replication_overlaps_prior_kernels() {
        let c = ctx(1);
        let (m, k, n) = (48, 64, 48);
        let (da, db) = (test_data(m, k, 13), test_data(k, n, 14));
        let s = matmul_skel();
        let a = Matrix::from_vec(&c, m, k, da.clone());
        a.ensure_on_devices().unwrap();
        // Warm the program cache so the timed window is pure scheduling.
        s.apply(&a, &Matrix::from_vec(&c, k, n, db.clone()))
            .unwrap();
        c.sync();
        c.platform().reset_clocks();
        c.platform().enable_timeline_trace();

        // An in-flight kernel on the compute engine: classic launches do
        // not block the host, so the streamed replication below has a
        // window to slide under.
        let b_resident = Matrix::from_vec(&c, k, n, db.clone());
        b_resident.ensure_on_devices().unwrap();
        s.apply(&a, &b_resident).unwrap();

        // Host-fresh B: replication must ride the copy stream *under* the
        // kernel above instead of serializing behind it.
        let b_fresh = Matrix::from_vec(&c, k, n, db.clone());
        let got = s.apply(&a, &b_fresh).unwrap();
        c.sync();
        let trace = c.platform().take_timeline_trace();
        let overlap: f64 = vgpu::compute_copy_overlap_s(&trace)
            .into_iter()
            .map(|(_, s)| s)
            .sum();
        assert!(
            overlap > 0.0,
            "streamed B replication must overlap the in-flight kernel"
        );
        assert_eq!(
            got.to_vec().unwrap(),
            reference_matmul(&da, &db, m, k, n),
            "event-driven replication must stay bit-identical"
        );
    }

    #[test]
    fn fused_post_stage_matches_separate_map_bitwise() {
        let sqrt_abs = || {
            crate::skel_fn!(
                fn sqrt_abs(x: f32) -> f32 {
                    x.abs().sqrt()
                }
            )
        };
        let (m, k, n) = (11, 9, 8);
        let (da, db) = (test_data(m, k, 15), test_data(k, n, 16));
        for devices in [1usize, 2, 4] {
            for strategy in [
                AllPairsStrategy::Naive,
                AllPairsStrategy::Tiled { tile: 16 },
            ] {
                let c = ctx(devices);
                let a = Matrix::from_vec(&c, m, k, da.clone());
                let b = Matrix::from_vec(&c, k, n, db.clone());
                let fused: Vec<u32> = matmul_skel()
                    .with_strategy(strategy)
                    .with_post(sqrt_abs())
                    .apply(&a, &b)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let plain = matmul_skel().with_strategy(strategy).apply(&a, &b).unwrap();
                let unfused: Vec<u32> = crate::Map::new(sqrt_abs())
                    .apply_matrix(&plain)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(fused, unfused, "{devices} devices, {strategy:?}");
            }
        }
    }

    #[test]
    fn fused_post_stage_changes_the_program_cache_key() {
        let sq = crate::skel_fn!(
            fn sq(x: f32) -> f32 {
                x * x
            }
        );
        let plain = matmul_skel();
        let fused = matmul_skel().with_post(sq);
        assert_ne!(plain.program().hash(), fused.program().hash());
        assert_ne!(plain.tiled_program(8).hash(), fused.tiled_program(8).hash());
    }

    #[test]
    fn more_devices_than_rows_still_agrees() {
        let c = ctx(4);
        let (m, k, n) = (2, 6, 5);
        let (da, db) = (test_data(m, k, 11), test_data(k, n, 12));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        assert_eq!(got, reference_matmul(&da, &db, m, k, n));
    }
}
