//! The schedule of a vector redistribution on the modeled timeline.
//!
//! `Single(d)→Copy`, `Block→Copy` and `Copy→Block` with an add merge run on
//! 2, 3 and 4 tiny devices with the timeline trace on. For each:
//!
//! * the output is bit-identical to a host fold in the library's order (the
//!   target device's own copy first, then ascending source device);
//! * the trace is free of buffer hazards and never double-books an engine;
//! * no cross-device copy is under-charged: each lasts at least the
//!   topology's duration for its bytes at the number of cross-device copies
//!   in flight alongside it, itself included;
//! * on 4 devices the broadcast and the merge really run copies between
//!   disjoint device pairs at once: at least half of the cross-device
//!   copies overlap another one.

use skelcl::{
    skel_fn, Arguments, Context, ContextConfig, Distribution, KernelEnv, MapVoid, UserFn, Vector,
};
use vgpu::{verify_engine_exclusive, CmdKind, CommandRecord, DeviceSpec};

/// Elements per device: not a multiple of the work-group size.
const PER_DEVICE: usize = 37;

fn ctx(n: usize) -> Context {
    let c = Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .work_group(16)
            .cache_tag("redistribution-schedule"),
    );
    c.platform().enable_timeline_trace();
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Device `d`'s diverged value of element `j`: magnitudes differ per
/// device, so the fold order shows in the low bits of the sums.
fn diverged(d: usize, j: usize) -> f32 {
    let h = (j as u32).wrapping_mul(2_654_435_761) % 997;
    let scale = [1.0, 1.0e-3, 3.7e2, 0.37][d % 4];
    (h as f32 * 0.013 + 0.1) * scale
}

/// The library's merge order for every element: the target device's copy
/// first, then every other device's in ascending order.
fn host_fold(copies: &[Vec<f32>]) -> Vec<f32> {
    let n = copies.len();
    let len = copies[0].len();
    let block = len / n;
    (0..len)
        .map(|j| {
            let own = j / block;
            (0..n)
                .filter(|&s| s != own)
                .fold(copies[own][j], |acc, s| acc + copies[s][j])
        })
        .collect()
}

fn add() -> UserFn<impl Fn(f32, f32) -> f32 + Clone> {
    skel_fn!(
        fn add(x: f32, y: f32) -> f32 {
            x + y
        }
    )
}

/// A `Copy` vector whose per-device copies differ ([`diverged`]): each
/// device's side-effect kernel writes exactly its own copy.
fn diverged_copies(c: &Context) -> Vector<f32> {
    let n = c.n_devices();
    let len = n * PER_DEVICE;
    let acc = Vector::from_vec(c, vec![0.0f32; len]);
    acc.set_distribution(Distribution::Copy).unwrap();
    let scatter = UserFn::new(
        "scatter_diverged",
        "void scatter_diverged(uint i, __global float* acc) { /* acc[i % len] += diverged(i) */ }",
        move |i: u32, env: &KernelEnv<'_>| {
            let (d, j) = (i as usize / len, i as usize % len);
            env.vec::<f32>(0).atomic_add(j, diverged(d, j));
        },
    );
    let idx = Vector::from_vec(c, (0..(n * len) as u32).collect());
    idx.set_distribution(Distribution::Block).unwrap();
    let mut args = Arguments::new();
    args.push(&acc);
    MapVoid::new(scatter, 1).apply(&idx, &args).unwrap();
    acc.mark_devices_modified();
    acc
}

/// The cross-device copies of a trace, one record per copy (the primary,
/// source-device one), with their bytes.
fn cross_copies(trace: &[CommandRecord]) -> Vec<(&CommandRecord, u64)> {
    trace
        .iter()
        .filter(|r| r.kind == CmdKind::D2D && !r.reads.is_empty())
        .filter(|r| trace.iter().any(|o| o.seq == r.seq && o.device != r.device))
        .map(|r| (r, r.reads.iter().map(|a| a.hi - a.lo).sum()))
        .collect()
}

fn overlaps(a: &CommandRecord, b: &CommandRecord) -> bool {
    a.start_s < b.end_s && b.start_s < a.end_s
}

/// The trace is hazard-free, engine-exclusive, and charges every
/// cross-device copy at least its in-flight contention. Returns how many
/// cross-device copies overlap another one, and how many there are.
fn assert_schedule_sound(c: &Context, what: &str) -> (usize, usize) {
    let trace = c.platform().take_timeline_trace();
    if let Some(v) = verify_engine_exclusive(&trace) {
        panic!("{what}: {v}");
    }
    if let Some(h) = skelcl::check::verify_no_buffer_hazards(&trace) {
        panic!("{what}: {h}");
    }
    let copies = cross_copies(&trace);
    let topology = c.platform().topology();
    let mut overlapped = 0;
    for (r, bytes) in &copies {
        let k = copies.iter().filter(|(o, _)| overlaps(r, o)).count();
        overlapped += usize::from(k > 1);
        let floor = topology.d2d_transfer_s(*bytes as usize, k);
        let dur = r.end_s - r.start_s;
        assert!(
            dur >= floor * (1.0 - 1e-12),
            "{what}: copy seq {} of {bytes} B lasts {dur:e} s with {k} in flight, \
             below the topology's {floor:e} s",
            r.seq
        );
    }
    (overlapped, copies.len())
}

#[test]
fn single_to_copy_broadcasts_the_owner() {
    for n in [2, 3, 4] {
        let c = ctx(n);
        let data: Vec<f32> = (0..n * PER_DEVICE).map(|j| diverged(0, j)).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(Distribution::Single(n - 1)).unwrap();
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        c.platform().take_timeline_trace();
        v.set_distribution(Distribution::Copy).unwrap();
        assert_schedule_sound(&c, &format!("{n} devices single->copy"));
        // Every device's copy holds the data: merging them with add sums n
        // identical copies.
        v.set_distribution_with(Distribution::Block, &add())
            .unwrap();
        let copies = vec![data; n];
        assert_eq!(
            bits(&v.to_vec().unwrap()),
            bits(&host_fold(&copies)),
            "{n} devices"
        );
    }
}

#[test]
fn block_to_copy_gathers_every_block() {
    for n in [2, 3, 4] {
        let c = ctx(n);
        let data: Vec<f32> = (0..n * PER_DEVICE).map(|j| diverged(2, j)).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(Distribution::Block).unwrap();
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        c.platform().take_timeline_trace();
        v.set_distribution(Distribution::Copy).unwrap();
        let (overlapped, copies) = assert_schedule_sound(&c, &format!("{n} devices block->copy"));
        if n == 4 {
            assert!(
                2 * overlapped >= copies,
                "4 devices: only {overlapped} of {copies} broadcast copies overlap another"
            );
        }
        v.set_distribution_with(Distribution::Block, &add())
            .unwrap();
        let copies = vec![data; n];
        assert_eq!(
            bits(&v.to_vec().unwrap()),
            bits(&host_fold(&copies)),
            "{n} devices"
        );
    }
}

#[test]
fn copy_to_block_add_folds_in_device_order() {
    for n in [2, 3, 4] {
        let c = ctx(n);
        let acc = diverged_copies(&c);
        c.platform().take_timeline_trace();
        acc.set_distribution_with(Distribution::Block, &add())
            .unwrap();
        let (overlapped, copies) =
            assert_schedule_sound(&c, &format!("{n} devices copy->block add"));
        if n == 4 {
            assert!(
                2 * overlapped >= copies,
                "4 devices: only {overlapped} of {copies} merge copies overlap another"
            );
        }
        let copies: Vec<Vec<f32>> = (0..n)
            .map(|d| (0..n * PER_DEVICE).map(|j| diverged(d, j)).collect())
            .collect();
        assert_eq!(
            bits(&acc.to_vec().unwrap()),
            bits(&host_fold(&copies)),
            "{n} devices"
        );
    }
}
