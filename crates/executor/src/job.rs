//! The typed job surface of the executor service.
//!
//! A [`Job`] is a self-contained work request: the kind of skeleton to run
//! plus **owned** input data, so a client thread can hand it to the service
//! and walk away. Execution happens on the dispatcher thread through
//! [`run_batch`], which is the *only* launch primitive — a single job is a
//! batch of one, so coalesced and uncoalesced dispatch share every code
//! path that touches the device and results are bit-identical either way.
//!
//! Batching model: jobs that report the same [`Job::coalesce_key`] (same
//! kind, same shape, same scalar parameters) may be merged into one launch.
//! The merge stacks each job's vector as one row of a `k × n` matrix and
//! runs the matrix form of the skeleton once: `k` small `Map`s become one
//! `Map::apply_matrix`, `k` small row-sums become one `ReduceRows::apply`
//! over `k` rows. Because `Map` is element-wise and `ReduceRows` folds each
//! row independently in a canonical ascending order, row `i` of the fused
//! launch is bit-identical to running job `i` alone.

use skelcl::{Context, Matrix, MatrixDistribution, Result};

/// One unit of work a tenant can submit.
///
/// Inputs are owned (`Vec<f32>`) so submission transfers the data to the
/// service; nothing borrows from the client after `submit` returns.
#[derive(Debug, Clone)]
pub enum Job {
    /// Element-wise `a·x + b` over a vector (Map skeleton).
    Axpb { a: f32, b: f32, data: Vec<f32> },
    /// Sum of a vector via the canonical row-fold (ReduceRows skeleton).
    RowSum { data: Vec<f32> },
    /// `iters` Jacobi heat-relaxation steps over a `rows × cols` plate
    /// (Stencil2D skeleton, device-resident ping-pong).
    Jacobi {
        rows: usize,
        cols: usize,
        iters: usize,
        data: Vec<f32>,
    },
    /// `m×k · k×n` matrix product (AllPairs skeleton, streamed
    /// B-replication when B is host-fresh).
    MatMul {
        m: usize,
        k: usize,
        n: usize,
        a: Vec<f32>,
        b: Vec<f32>,
    },
}

/// The result payload of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    Vector(Vec<f32>),
    Scalar(f32),
    Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    },
}

impl Job {
    /// Short static label for spans and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Axpb { .. } => "axpb",
            Job::RowSum { .. } => "rowsum",
            Job::Jacobi { .. } => "jacobi",
            Job::MatMul { .. } => "matmul",
        }
    }

    /// Two jobs with equal keys may ride the same fused launch; `None`
    /// means the job never coalesces. Scalar parameters enter the key by
    /// bit pattern because each distinct `(a, b)` pair is a distinct
    /// generated program.
    pub fn coalesce_key(&self) -> Option<(u8, usize, u32, u32)> {
        match self {
            Job::Axpb { a, b, data } => Some((0, data.len(), a.to_bits(), b.to_bits())),
            Job::RowSum { data } => Some((1, data.len(), 0, 0)),
            Job::Jacobi { .. } | Job::MatMul { .. } => None,
        }
    }
}

fn axpb_user_fn(a: f32, b: f32) -> skelcl::UserFn<impl Fn(f32) -> f32 + Clone> {
    // One generated program per (a, b) pair: the scalars are baked into the
    // kernel body, so distinct pairs exercise the shared program registry
    // rather than one kernel with arguments.
    let name = format!("axpb_{:08x}_{:08x}", a.to_bits(), b.to_bits());
    let source = format!("float {name}(float x) {{ return {a:?}f * x + {b:?}f; }}");
    skelcl::UserFn::new(name, source, move |x: f32| a * x + b)
}

/// Run one job. Defined as a batch of one so the single-job path *is* the
/// batched path — the bit-identity guarantee is structural, not tested-in.
pub fn run_job(ctx: &Context, home: usize, job: &Job) -> Result<(JobOutput, f64)> {
    let mut out = run_batch(ctx, home, std::slice::from_ref(job))?;
    Ok(out.pop().expect("run_batch returns one output per job"))
}

/// Execute `jobs` as one fused launch on `ctx`, homed on device `home` for
/// the coalescable kinds. All jobs must share the first job's
/// `coalesce_key` (the dispatcher guarantees this; non-coalescable kinds
/// arrive as batches of one). Returns `(output, ready_s)` per job in
/// submission order, where `ready_s` is the virtual time the result's
/// read-back completes — obtained via `read_back_async`, so the host clock
/// is never synced and concurrent tenants keep overlapping.
pub fn run_batch(ctx: &Context, home: usize, jobs: &[Job]) -> Result<Vec<(JobOutput, f64)>> {
    assert!(!jobs.is_empty(), "run_batch needs at least one job");
    match &jobs[0] {
        Job::Axpb { a, b, data } => {
            let n = data.len();
            if n == 0 {
                let now = ctx.host_now_s();
                return Ok(jobs
                    .iter()
                    .map(|_| (JobOutput::Vector(vec![]), now))
                    .collect());
            }
            let mut flat = Vec::with_capacity(jobs.len() * n);
            for job in jobs {
                match job {
                    Job::Axpb { data, .. } => flat.extend_from_slice(data),
                    other => panic!("mixed batch: axpb with {}", other.kind()),
                }
            }
            let input = Matrix::from_vec(ctx, jobs.len(), n, flat);
            input.set_distribution(MatrixDistribution::Single(home))?;
            let out = skelcl::Map::new(axpb_user_fn(*a, *b)).apply_matrix(&input)?;
            let (flat, ready_s) = out.read_back_async()?;
            Ok(flat
                .chunks(n)
                .map(|row| (JobOutput::Vector(row.to_vec()), ready_s))
                .collect())
        }
        Job::RowSum { data } => {
            let n = data.len();
            if n == 0 {
                let now = ctx.host_now_s();
                return Ok(jobs.iter().map(|_| (JobOutput::Scalar(0.0), now)).collect());
            }
            let mut flat = Vec::with_capacity(jobs.len() * n);
            for job in jobs {
                match job {
                    Job::RowSum { data } => flat.extend_from_slice(data),
                    other => panic!("mixed batch: rowsum with {}", other.kind()),
                }
            }
            let input = Matrix::from_vec(ctx, jobs.len(), n, flat);
            input.set_distribution(MatrixDistribution::Single(home))?;
            let sums = skelcl::ReduceRows::new(
                skelcl::skel_fn!(
                    fn sum(x: f32, y: f32) -> f32 {
                        x + y
                    }
                ),
                0.0f32,
            )
            .apply(&input)?;
            let (vals, ready_s) = sums.read_back_async()?;
            Ok(vals
                .into_iter()
                .map(|s| (JobOutput::Scalar(s), ready_s))
                .collect())
        }
        Job::Jacobi {
            rows,
            cols,
            iters,
            data,
        } => {
            assert_eq!(jobs.len(), 1, "jacobi jobs never coalesce");
            let plate = Matrix::from_vec(ctx, *rows, *cols, data.clone());
            let relaxed = skelcl_iterative::skelcl_impl::heat_skeleton().iterate(&plate, *iters)?;
            let (out, ready_s) = relaxed.read_back_async()?;
            Ok(vec![(
                JobOutput::Matrix {
                    rows: *rows,
                    cols: *cols,
                    data: out,
                },
                ready_s,
            )])
        }
        Job::MatMul { m, k, n, a, b } => {
            assert_eq!(jobs.len(), 1, "matmul jobs never coalesce");
            let a_mat = Matrix::from_vec(ctx, *m, *k, a.clone());
            let b_mat = Matrix::from_vec(ctx, *k, *n, b.clone());
            let c = skelcl_linalg::skelcl_impl::matmul_skeleton().apply(&a_mat, &b_mat)?;
            let (out, ready_s) = c.read_back_async()?;
            Ok(vec![(
                JobOutput::Matrix {
                    rows: *m,
                    cols: *n,
                    data: out,
                },
                ready_s,
            )])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(0.125, salt)).collect()
    }

    #[test]
    fn coalesce_keys_separate_kinds_shapes_and_scalars() {
        let a = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(8, 0.0),
        };
        let a2 = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(8, 3.0),
        };
        let a3 = Job::Axpb {
            a: 2.5,
            b: 1.0,
            data: ramp(8, 0.0),
        };
        let a4 = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(9, 0.0),
        };
        let s = Job::RowSum { data: ramp(8, 0.0) };
        assert_eq!(a.coalesce_key(), a2.coalesce_key());
        assert_ne!(a.coalesce_key(), a3.coalesce_key());
        assert_ne!(a.coalesce_key(), a4.coalesce_key());
        assert_ne!(a.coalesce_key(), s.coalesce_key());
        assert!(Job::Jacobi {
            rows: 4,
            cols: 4,
            iters: 1,
            data: ramp(16, 0.0)
        }
        .coalesce_key()
        .is_none());
    }

    #[test]
    fn batched_axpb_matches_singletons_bitwise() {
        let ctx = Context::init(2);
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::Axpb {
                a: 1.5,
                b: -0.25,
                data: ramp(64, i as f32),
            })
            .collect();
        let fused = run_batch(&ctx, 1, &jobs).unwrap();
        for (job, (out, _)) in jobs.iter().zip(&fused) {
            let (solo, _) = run_job(&ctx, 1, job).unwrap();
            assert_eq!(*out, solo);
        }
    }

    #[test]
    fn batched_rowsum_matches_singletons_bitwise() {
        let ctx = Context::init(2);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::RowSum {
                data: ramp(100, 0.5 + i as f32),
            })
            .collect();
        let fused = run_batch(&ctx, 0, &jobs).unwrap();
        for (job, (out, _)) in jobs.iter().zip(&fused) {
            let (solo, _) = run_job(&ctx, 0, job).unwrap();
            assert_eq!(*out, solo);
        }
    }

    #[test]
    fn jacobi_and_matmul_jobs_run_and_match_references() {
        let ctx = Context::init(2);
        let plate = skelcl_iterative::heat_plate(12, 16);
        let (out, _) = run_job(
            &ctx,
            0,
            &Job::Jacobi {
                rows: 12,
                cols: 16,
                iters: 3,
                data: plate.clone(),
            },
        )
        .unwrap();
        let expect = skelcl_iterative::seq::heat_run(&plate, 12, 16, 3);
        match out {
            JobOutput::Matrix { rows, cols, data } => {
                assert_eq!((rows, cols), (12, 16));
                for (got, want) in data.iter().zip(&expect) {
                    assert!((got - want).abs() < 1e-5);
                }
            }
            other => panic!("expected matrix, got {other:?}"),
        }

        let a = skelcl_linalg::test_matrix(6, 5, 1);
        let b = skelcl_linalg::test_matrix(5, 7, 2);
        let (out, _) = run_job(
            &ctx,
            0,
            &Job::MatMul {
                m: 6,
                k: 5,
                n: 7,
                a: a.clone(),
                b: b.clone(),
            },
        )
        .unwrap();
        let expect = skelcl_linalg::seq::matmul(&a, &b, 6, 5, 7);
        assert_eq!(
            out,
            JobOutput::Matrix {
                rows: 6,
                cols: 7,
                data: expect
            }
        );
    }

    #[test]
    fn empty_inputs_complete_without_device_work() {
        let ctx = Context::init(1);
        let (out, _) = run_job(
            &ctx,
            0,
            &Job::Axpb {
                a: 2.0,
                b: 0.0,
                data: vec![],
            },
        )
        .unwrap();
        assert_eq!(out, JobOutput::Vector(vec![]));
        let (out, _) = run_job(&ctx, 0, &Job::RowSum { data: vec![] }).unwrap();
        assert_eq!(out, JobOutput::Scalar(0.0));
    }
}
