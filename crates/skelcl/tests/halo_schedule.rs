//! The schedule of halo exchanges on the modeled timeline.
//!
//! Every halo exchange is one planned copy list. The lock-step ones —
//! `Matrix::halo_exchange`, the serial `Stencil2D::iterate_serial` schedule
//! and the pipeline's stencil groups — join each device with a marker and
//! run in rounds of disjoint device pairs; the overlapped
//! `Stencil2D::iterate` exchange waits on per-device producer events and
//! issues its copies in ascending part order. On 2, 3 and 4 tiny devices,
//! with the timeline trace on:
//!
//! * every cross-device copy lasts exactly the topology's duration for its
//!   bytes at `min(k, ⌊n/2⌋)`-way contention, `k` being the cross-device
//!   copies of its exchange;
//! * a 4-device lock-step exchange spans at most 4 copy slots;
//! * in a pipeline stencil group whose halo copies are still in flight,
//!   each receiving part's interior launch starts before its last incoming
//!   copy ends and its boundary launch starts after it;
//! * the overlapped iterate issues its copies in ascending part order;
//! * the traces are free of buffer hazards and never double-book an engine;
//! * outputs are bit-identical to one device.

use skelcl::{
    Boundary2D, Context, ContextConfig, Matrix, MatrixDistribution, Pipeline, PipelineExpr,
    Stencil2D, Stencil2DView, UserFn,
};
use vgpu::{verify_engine_exclusive, CmdKind, CommandRecord, DeviceSpec};

/// Rows per device: each part has an interior beyond its one-row bands.
const ROWS_PER_DEVICE: usize = 12;
const COLS: usize = 19;

fn ctx(n: usize) -> Context {
    let c = Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .work_group(16)
            .cache_tag("halo-schedule"),
    );
    c.platform().enable_timeline_trace();
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn image(rows: usize) -> Vec<f32> {
    (0..rows * COLS)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) % 1009) as f32 * 0.37 - 90.0)
        .collect()
}

/// A damped cross stencil whose sums are order- and position-sensitive.
fn cross(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    Stencil2D::new(cross_fn(), 1, boundary)
}

fn cross_fn() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    UserFn::new(
        "hcross",
        "float hcross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }",
        |v: &Stencil2DView<'_, f32>| {
            0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
        },
    )
}

fn diag_fn() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    UserFn::new(
        "hdiag",
        "float hdiag(__global float* in, int r, int c, uint nr, uint nc) { /* diagonals */ }",
        |v: &Stencil2DView<'_, f32>| 0.5 * (v.get(-1, -1) - v.get(1, 1)) + v.get(0, 0),
    )
}

/// A device-fresh `RowBlock { halo: 1 }` matrix with stale halos.
fn stale_matrix(c: &Context) -> Matrix<f32> {
    let rows = ROWS_PER_DEVICE * c.n_devices();
    let m = Matrix::from_vec(c, rows, COLS, image(rows));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    m.mark_devices_modified();
    m
}

/// One cross-device copy of a trace: its primary (source-device) record,
/// its bytes and its destination device.
struct CrossCopy<'a> {
    rec: &'a CommandRecord,
    bytes: usize,
    dst: usize,
}

fn cross_copies(trace: &[CommandRecord]) -> Vec<CrossCopy<'_>> {
    trace
        .iter()
        .filter(|r| r.kind == CmdKind::D2D && !r.reads.is_empty())
        .filter_map(|r| {
            let peer = trace
                .iter()
                .find(|o| o.seq == r.seq && o.device != r.device)?;
            Some(CrossCopy {
                rec: r,
                bytes: r.reads.iter().map(|a| (a.hi - a.lo) as usize).sum(),
                dst: peer.device.0,
            })
        })
        .collect()
}

/// The trace is hazard-free and engine-exclusive, and every cross-device
/// copy of the exchange `copies` lasts the topology's duration at
/// `min(k, ⌊n/2⌋)`-way contention.
fn assert_exchange_sound(
    c: &Context,
    trace: &[CommandRecord],
    copies: &[CrossCopy<'_>],
    what: &str,
) {
    if let Some(v) = verify_engine_exclusive(trace) {
        panic!("{what}: {v}");
    }
    if let Some(h) = skelcl::check::verify_no_buffer_hazards(trace) {
        panic!("{what}: {h}");
    }
    assert!(!copies.is_empty(), "{what}: no cross-device copy");
    let concurrent = copies.len().min(c.n_devices() / 2).max(1);
    let topology = c.platform().topology();
    for copy in copies {
        let want = topology.d2d_transfer_s(copy.bytes, concurrent);
        let dur = copy.rec.end_s - copy.rec.start_s;
        assert!(
            (dur - want).abs() <= want * 1e-9,
            "{what}: copy seq {} of {} B lasts {dur:e} s, want {want:e} s at {concurrent}-way contention",
            copy.rec.seq,
            copy.bytes
        );
    }
}

/// How many copy slots the exchange spans, one slot being one copy's
/// duration (every copy of these exchanges moves the same bytes).
fn slots(copies: &[CrossCopy<'_>]) -> f64 {
    let start = copies
        .iter()
        .map(|c| c.rec.start_s)
        .fold(f64::INFINITY, f64::min);
    let end = copies.iter().map(|c| c.rec.end_s).fold(0.0, f64::max);
    let slot = copies[0].rec.end_s - copies[0].rec.start_s;
    (end - start) / slot
}

#[test]
fn matrix_halo_exchange_runs_in_pair_rounds() {
    for n in [2, 3, 4] {
        let c = ctx(n);
        let m = stale_matrix(&c);
        c.platform().take_timeline_trace();
        m.halo_exchange().unwrap();
        let trace = c.platform().take_timeline_trace();
        let copies = cross_copies(&trace);
        let what = format!("{n} devices halo_exchange");
        assert_exchange_sound(&c, &trace, &copies, &what);
        if n == 4 {
            // 8 copies (wrapped rows included), 2 per device pair in flight.
            assert_eq!(copies.len(), 8, "{what}");
            assert!(
                slots(&copies) <= 4.0 + 1e-9,
                "{what}: {} slots",
                slots(&copies)
            );
        }
        assert_eq!(m.to_vec().unwrap(), image(ROWS_PER_DEVICE * n), "{what}");
    }
}

#[test]
fn serial_iterate_exchange_runs_in_pair_rounds() {
    for n in [2, 3, 4] {
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * n, COLS, image(ROWS_PER_DEVICE * n));
            let out = cross(Boundary2D::Neumann).iterate_serial(&m, 2).unwrap();
            bits(&out.to_vec().unwrap())
        };
        let c = ctx(n);
        let m = stale_matrix(&c);
        // Round 1 reads the input's halos, refreshed by the matrix's own
        // exchange; round 2's exchange is the serial schedule's.
        m.halo_exchange().unwrap();
        c.platform().take_timeline_trace();
        let out = cross(Boundary2D::Neumann).iterate_serial(&m, 2).unwrap();
        let trace = c.platform().take_timeline_trace();
        let copies = cross_copies(&trace);
        let what = format!("{n} devices iterate_serial");
        assert_exchange_sound(&c, &trace, &copies, &what);
        if n == 4 {
            // Neumann skips the wrapped rows: 6 copies in 4 slots.
            assert_eq!(copies.len(), 6, "{what}");
            assert!(
                slots(&copies) <= 4.0 + 1e-9,
                "{what}: {} slots",
                slots(&copies)
            );
        }
        assert_eq!(bits(&out.to_vec().unwrap()), single, "{what}");
    }
}

#[test]
fn overlapped_iterate_exchange_keeps_ascending_part_order() {
    for n in [2, 3, 4] {
        let data = image(ROWS_PER_DEVICE * n);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * n, COLS, data.clone());
            bits(
                &cross(Boundary2D::Wrap)
                    .iterate(&m, 3)
                    .unwrap()
                    .to_vec()
                    .unwrap(),
            )
        };
        let c = ctx(n);
        let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * n, COLS, data);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        c.platform().take_timeline_trace();
        let out = cross(Boundary2D::Wrap).iterate(&m, 2).unwrap();
        let trace = c.platform().take_timeline_trace();
        let copies = cross_copies(&trace);
        let what = format!("{n} devices iterate");
        assert_exchange_sound(&c, &trace, &copies, &what);
        let mut by_seq: Vec<_> = copies.iter().map(|c| (c.rec.seq, c.dst)).collect();
        by_seq.sort_unstable();
        assert!(
            by_seq.windows(2).all(|w| w[0].1 <= w[1].1),
            "{what}: copies not issued in ascending part order: {by_seq:?}"
        );
        // One more round on the result, compared against one device.
        let out = cross(Boundary2D::Wrap).iterate(&out, 1).unwrap();
        assert_eq!(bits(&out.to_vec().unwrap()), single, "{what}");
    }
}

/// A two-group pipeline: the second group's input is the first group's
/// output, whose halos are stale, so it exchanges.
fn two_groups(m: &Matrix<f32>) -> Matrix<f32> {
    Pipeline::start::<f32>()
        .stencil(cross_fn(), 1, Boundary2D::Neumann)
        .stencil(diag_fn(), 1, Boundary2D::Neumann)
        .run(m)
        .unwrap()
}

#[test]
fn pipeline_group_hides_its_exchange_under_interior_launches() {
    let data = |n: usize| image(ROWS_PER_DEVICE * n);
    for n in [2, 3, 4] {
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * n, COLS, data(n));
            bits(&two_groups(&m).to_vec().unwrap())
        };
        let c = ctx(n);
        let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * n, COLS, data(n));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        // Build both programs first: a build inside the run would let the
        // copies land before the launches, and the groups launch whole.
        two_groups(&m);
        c.sync();
        c.platform().take_timeline_trace();
        let exchanges = c.halo_exchange_count();
        let out = two_groups(&m);
        let trace = c.platform().take_timeline_trace();
        let what = format!("{n} devices pipeline");
        assert_eq!(
            c.halo_exchange_count(),
            exchanges + 1,
            "{what}: one exchange"
        );
        let copies = cross_copies(&trace);
        assert_exchange_sound(&c, &trace, &copies, &what);
        if n == 4 {
            assert_eq!(copies.len(), 6, "{what}");
            assert!(
                slots(&copies) <= 4.0 + 1e-9,
                "{what}: {} slots",
                slots(&copies)
            );
        }
        let first_copy = copies.iter().map(|c| c.rec.seq).min().unwrap();
        for d in 0..n {
            let landed = copies
                .iter()
                .filter(|c| c.dst == d)
                .map(|c| c.rec.end_s)
                .fold(0.0, f64::max);
            // The second group's launches on device d: interior, boundary.
            let launches: Vec<_> = trace
                .iter()
                .filter(|r| r.kind == CmdKind::Kernel && r.device.0 == d && r.seq > first_copy)
                .collect();
            assert_eq!(
                launches.len(),
                2,
                "{what}: device {d} launches {launches:?}"
            );
            let (interior, boundary) = (launches[0], launches[1]);
            assert!(
                interior.start_s < landed,
                "{what}: device {d} interior starts at {:e}, after its halos landed at {landed:e}",
                interior.start_s
            );
            assert!(
                boundary.start_s >= landed,
                "{what}: device {d} boundary starts at {:e}, before its halos landed at {landed:e}",
                boundary.start_s
            );
        }
        assert_eq!(bits(&out.to_vec().unwrap()), single, "{what}");
    }
}

#[test]
fn pipeline_group_launches_whole_when_its_halos_have_landed() {
    // Cold programs: the second group's build runs after its exchange was
    // issued, so the copies have landed by launch time and every part
    // launches once, device-serializing, as without the split.
    let c = ctx(4);
    let m = Matrix::from_vec(&c, ROWS_PER_DEVICE * 4, COLS, image(ROWS_PER_DEVICE * 4));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    c.platform().take_timeline_trace();
    two_groups(&m);
    let trace = c.platform().take_timeline_trace();
    let kernels: Vec<_> = trace.iter().filter(|r| r.kind == CmdKind::Kernel).collect();
    assert_eq!(kernels.len(), 8, "two groups, one launch per part each");
    assert!(kernels.iter().all(|k| k.serializing));
}
