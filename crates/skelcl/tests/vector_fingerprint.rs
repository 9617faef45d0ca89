//! Step-for-step fingerprint of `Vector`'s transfers on the modeled
//! timeline.
//!
//! A scripted mix of vector operations — uploads under `Single`, `Copy` and
//! `Block`, a streamed upload feeding `Map::apply_streamed`, blocking and
//! asynchronous downloads, device-side redistributions with and without a
//! combine operator, and a 2D reduction's `Single` output read back — runs
//! on tiny 1- and 4-device contexts. After every step the counter delta and
//! the bit pattern of the host clock are compared against constants, so any
//! change to the commands a vector issues (bytes, offsets, contention
//! hints, dependency policy or order) shows up as a changed line.
//!
//! Redistributions that start or end in `Single` on several devices pin
//! only the output bits, the transfer counts and the bytes: their
//! cross-device contention hint is the one modeled detail allowed to
//! differ between container implementations, and it moves the clocks.

use skelcl::{
    skel_fn, Context, ContextConfig, Distribution, Map, Matrix, MatrixDistribution, ReduceCols,
    Vector,
};
use vgpu::{DeviceSpec, StatsSnapshot};

const CACHE_TAG: &str = "vector-fingerprint";

/// Bit-exact digest of a result (FNV-1a over the `f32` bit patterns).
fn digest(out: &[f32]) -> u64 {
    out.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

fn data(n: usize) -> Vec<f32> {
    (0..n).map(|i| i as f32 * 0.5 - 7.0).collect()
}

/// Records one line per scripted step on one context.
struct Script {
    ctx: Context,
    before: StatsSnapshot,
    lines: Vec<String>,
}

impl Script {
    fn new(devices: usize) -> Self {
        let ctx = Context::new(
            ContextConfig::default()
                .devices(devices)
                .spec(DeviceSpec::tiny())
                .cache_tag(CACHE_TAG),
        );
        let before = ctx.platform().stats_snapshot();
        Script {
            ctx,
            before,
            lines: Vec::new(),
        }
    }

    fn delta(&mut self) -> StatsSnapshot {
        let now = self.ctx.platform().stats_snapshot();
        let d = now - self.before;
        self.before = now;
        d
    }

    /// Pin everything: the full counter delta and the host clock.
    fn step(&mut self, name: &str, out: Option<&[f32]>) {
        let d = self.delta();
        self.lines.push(format!(
            "{name}: h2d={}/{} d2h={}/{} d2d={}/{} k={}/{}/{}/{} build={}/{}/{} host={:016x} out={:016x}",
            d.h2d_transfers,
            d.h2d_bytes,
            d.d2h_transfers,
            d.d2h_bytes,
            d.d2d_transfers,
            d.d2d_bytes,
            d.kernel_launches,
            d.kernel_cu_cycles,
            d.kernel_global_bytes,
            d.kernel_busy_ns,
            d.source_builds,
            d.cache_loads,
            d.build_virtual_ns,
            self.ctx.host_now_s().to_bits(),
            out.map_or(0, digest),
        ));
    }

    /// Pin only the output bits, the transfer counts and the bytes.
    fn transfers(&mut self, name: &str, out: &[f32]) {
        let d = self.delta();
        self.lines.push(format!(
            "{name}: h2d={}/{} d2h={}/{} d2d={}/{} out={:016x}",
            d.h2d_transfers,
            d.h2d_bytes,
            d.d2h_transfers,
            d.d2h_bytes,
            d.d2d_transfers,
            d.d2d_bytes,
            digest(out),
        ));
    }
}

fn affine() -> Map<f32, f32, impl Fn(f32) -> f32 + Send + Sync + Clone + 'static> {
    Map::new(skel_fn!(
        fn affine(x: f32) -> f32 {
            x * 2.0 + 1.0
        }
    ))
}

#[test]
fn scripted_vector_mix_reproduces_the_recorded_steps() {
    let add = skel_fn!(
        fn add(x: f32, y: f32) -> f32 {
            x + y
        }
    );
    let map = affine();

    // --- One device: Single uploads, downloads and a streamed map.
    let mut s = Script::new(1);
    s.ctx.platform().compiler().clear_cache().unwrap();
    s.before = s.ctx.platform().stats_snapshot();
    let v = Vector::from_vec(&s.ctx, data(300));
    v.ensure_on_devices().unwrap();
    s.step("1dev upload single", None);
    let w = map.apply(&v).unwrap();
    s.step("1dev map", None);
    let out = w.to_vec().unwrap();
    s.step("1dev to_vec", Some(&out));
    let w2 = map.apply(&w).unwrap();
    let (out, ready) = w2.read_back_async().unwrap();
    s.step(
        &format!("1dev read_back_async ready={:016x}", ready.to_bits()),
        Some(&out),
    );
    let st = Vector::from_vec(&s.ctx, data(300));
    let m = map.apply_streamed(&st, 64).unwrap();
    s.step("1dev streamed map", None);
    let out = m.to_vec().unwrap();
    s.step("1dev streamed to_vec", Some(&out));
    let mut lines = std::mem::take(&mut s.lines);

    // --- Four devices: every distribution, every device-fresh path.
    let mut s = Script::new(4);
    let a = Vector::from_vec(&s.ctx, data(1001));
    a.ensure_on_devices().unwrap();
    s.step("4dev upload block", None);
    let b = Vector::from_vec(&s.ctx, data(1001));
    b.set_distribution(Distribution::Copy).unwrap();
    b.ensure_on_devices().unwrap();
    s.step("4dev upload copy", None);
    let c = Vector::from_vec(&s.ctx, data(1001));
    c.set_distribution(Distribution::Single(2)).unwrap();
    c.ensure_on_devices().unwrap();
    s.step("4dev upload single(2)", None);

    let st = Vector::from_vec(&s.ctx, data(1001));
    let m = map.apply_streamed(&st, 100).unwrap();
    s.step("4dev streamed map", None);
    let out = m.to_vec().unwrap();
    s.step("4dev streamed to_vec", Some(&out));

    let out = map.apply(&a).unwrap().to_vec().unwrap();
    s.step("4dev block map to_vec", Some(&out));
    let (out, ready) = map.apply(&b).unwrap().read_back_async().unwrap();
    s.step(
        &format!(
            "4dev copy map read_back_async ready={:016x}",
            ready.to_bits()
        ),
        Some(&out),
    );
    let out = map.apply(&c).unwrap().to_vec().unwrap();
    s.step("4dev single(2) map to_vec", Some(&out));

    // A vector marked device-modified feeds a streamed map: no upload, no
    // chunk events, the plain launch schedule.
    a.mark_devices_modified();
    let out = map.apply_streamed(&a, 100).unwrap().to_vec().unwrap();
    s.step("4dev modified streamed map to_vec", Some(&out));

    let x = map.apply(&a).unwrap();
    x.set_distribution(Distribution::Copy).unwrap();
    s.step("4dev block->copy", None);
    let out = x.to_vec().unwrap();
    s.step("4dev block->copy to_vec", Some(&out));
    let y = map.apply(&b).unwrap();
    y.set_distribution(Distribution::Block).unwrap();
    s.step("4dev copy->block", None);
    let out = y.to_vec().unwrap();
    s.step("4dev copy->block to_vec", Some(&out));
    let z = map.apply(&b).unwrap();
    z.set_distribution_with(Distribution::Block, &add).unwrap();
    s.step("4dev copy->block add", None);
    let out = z.to_vec().unwrap();
    s.step("4dev copy->block add to_vec", Some(&out));

    // A column reduction over a row-block matrix chains its parts and
    // leaves the whole output on the last device: a `Single` vector.
    let mat = Matrix::from_vec(&s.ctx, 40, 25, data(1000));
    mat.set_distribution(MatrixDistribution::row_block())
        .unwrap();
    let r = ReduceCols::new(add.clone(), 0.0).apply(&mat).unwrap();
    assert_eq!(r.distribution(), Distribution::Single(3));
    s.step("4dev reduce_cols", None);
    let out = r.to_vec().unwrap();
    s.step("4dev reduce_cols single to_vec", Some(&out));
    lines.append(&mut s.lines);

    // --- Four devices, redistributions into and out of `Single`.
    let mut s = Script::new(4);
    let v = Vector::from_vec(&s.ctx, data(1001));
    v.set_distribution(Distribution::Single(0)).unwrap();
    let p = map.apply(&v).unwrap();
    p.set_distribution(Distribution::Block).unwrap();
    s.transfers("4dev single(0)->block", &p.read_back_async().unwrap().0);
    p.set_distribution(Distribution::Single(3)).unwrap();
    s.transfers("4dev block->single(3)", &p.read_back_async().unwrap().0);
    p.set_distribution(Distribution::Copy).unwrap();
    s.transfers("4dev single(3)->copy", &p.read_back_async().unwrap().0);
    p.set_distribution(Distribution::Single(1)).unwrap();
    s.transfers("4dev copy->single(1)", &p.read_back_async().unwrap().0);
    let out = p.to_vec().unwrap();
    s.transfers("4dev single(1) to_vec", &out);
    lines.append(&mut s.lines);

    assert_eq!(lines, EXPECTED);
}

const EXPECTED: &[&str] = &[
    "1dev upload single: h2d=1/1200 d2h=0/0 d2d=0/0 k=0/0/0/0 build=0/0/0 host=0000000000000000 out=0000000000000000",
    "1dev map: h2d=0/0 d2h=0/0 d2d=0/0 k=1/128/2400/27990 build=1/0/150543999 host=3fc352220bc382a1 out=0000000000000000",
    "1dev to_vec: h2d=0/0 d2h=1/1200 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3fc35362aa3d9b2d out=1d9eb6578b69c315",
    "1dev read_back_async ready=3fc354a348b7b3b9: h2d=0/0 d2h=1/1200 d2d=0/0 k=1/128/2400/27990 build=0/0/0 host=3fc35362aa3d9b2d out=42b9f8f1afc88315",
    "1dev streamed map: h2d=5/1200 d2h=0/0 d2d=0/0 k=5/160/2400/138998 build=0/0/0 host=3fc35362aa3d9b2d out=0000000000000000",
    "1dev streamed to_vec: h2d=0/0 d2h=1/1200 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3fc359db6a4a5df9 out=1d9eb6578b69c315",
    "4dev upload block: h2d=4/4004 d2h=0/0 d2d=0/0 k=0/0/0/0 build=0/0/0 host=0000000000000000 out=0000000000000000",
    "4dev upload copy: h2d=4/16016 d2h=0/0 d2d=0/0 k=0/0/0/0 build=0/0/0 host=0000000000000000 out=0000000000000000",
    "4dev upload single(2): h2d=1/4004 d2h=0/0 d2d=0/0 k=0/0/0/0 build=0/0/0 host=0000000000000000 out=0000000000000000",
    "4dev streamed map: h2d=12/4004 d2h=0/0 d2d=0/0 k=12/640/8008/333888 build=0/1/23160615 host=3f9820462233c55b out=0000000000000000",
    "4dev streamed to_vec: h2d=0/0 d2h=4/4004 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3f983b8a4692d3d9 out=62fd70a98435ba3f",
    "4dev block map to_vec: h2d=0/0 d2h=4/4004 d2d=0/0 k=4/512/8008/111801 build=0/0/0 host=3f984597066cefdc out=62fd70a98435ba3f",
    "4dev copy map read_back_async ready=3f984fe5cca030d6: h2d=0/0 d2h=1/4004 d2d=0/0 k=4/1024/32032/114204 build=0/0/0 host=3f984597066cefdc out=62fd70a98435ba3f",
    "4dev single(2) map to_vec: h2d=0/0 d2h=1/4004 d2d=0/0 k=1/256/8008/28551 build=0/0/0 host=3f985761cfa2851e out=62fd70a98435ba3f",
    "4dev modified streamed map to_vec: h2d=0/0 d2h=4/4004 d2d=0/0 k=4/512/8008/111801 build=0/0/0 host=3f98616e8f7ca121 out=62fd70a98435ba3f",
    "4dev block->copy: h2d=0/0 d2h=0/0 d2d=12/12012 k=4/512/8008/111801 build=0/0/0 host=3f9888e005bce715 out=0000000000000000",
    "4dev block->copy to_vec: h2d=0/0 d2h=1/4004 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3f988bb2c8edd3c7 out=62fd70a98435ba3f",
    "4dev copy->block: h2d=0/0 d2h=0/0 d2d=0/0 k=4/1024/32032/114204 build=0/0/0 host=3f98933c45a7e55a out=0000000000000000",
    "4dev copy->block to_vec: h2d=0/0 d2h=4/4004 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3f9895f5466b9530 out=62fd70a98435ba3f",
    "4dev copy->block add: h2d=0/0 d2h=0/0 d2d=12/12012 k=16/1792/68068/453807 build=1/0/150630000 host=3fc66dd3057c2ee4 out=0000000000000000",
    "4dev copy->block add to_vec: h2d=0/0 d2h=4/4004 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3fc66e2a2594a4df out=a50e3a091635ba3f",
    "4dev reduce_cols: h2d=4/4000 d2h=0/0 d2d=3/300 k=4/280/4700/116470 build=1/0/151104000 host=3fd4e952e817f73e out=0000000000000000",
    "4dev reduce_cols single to_vec: h2d=0/0 d2h=1/100 d2d=0/0 k=0/0/0/0 build=0/0/0 host=3fd4ec8d23ab68ff out=e284aed9d3a0997f",
    "4dev single(0)->block: h2d=1/4004 d2h=4/4004 d2d=3/3000 out=62fd70a98435ba3f",
    "4dev block->single(3): h2d=0/0 d2h=1/4004 d2d=3/3004 out=62fd70a98435ba3f",
    "4dev single(3)->copy: h2d=0/0 d2h=1/4004 d2d=3/12012 out=62fd70a98435ba3f",
    "4dev copy->single(1): h2d=0/0 d2h=1/4004 d2d=0/0 out=62fd70a98435ba3f",
    "4dev single(1) to_vec: h2d=0/0 d2h=1/4004 d2d=0/0 out=62fd70a98435ba3f",
];
