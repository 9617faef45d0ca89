//! Record-for-record fingerprint of the modeled timeline.
//!
//! A scripted mix of every command kind — whole and ranged transfers,
//! blocking and non-blocking reads, fill, marker, kernel launches, and
//! same- and cross-device copies, each under both the device-serializing
//! and the event-ordered discipline — runs on a 2-device tiny platform.
//! The full timeline trace and the counter delta are compared against
//! constants: any change to the scheduler, however small, shows up here
//! as a changed start/end bit pattern, seq, dependency list or label.

use std::sync::Arc;
use vgpu::{
    AccessRange, After, BufferId, CommandRecord, DeviceSpec, DriverProfile, Event, KernelBody,
    NDRange, Platform, PlatformConfig, Program, Region, StatsSnapshot, WorkGroup,
};

const N: usize = 1024;

/// One trace record as a stable string: buffer ids are process-global, so
/// they are replaced by the names the script gave the buffers.
fn fingerprint(r: &CommandRecord, names: &[(BufferId, &str)]) -> String {
    let name = |id: BufferId| {
        names
            .iter()
            .find(|(b, _)| *b == id)
            .map_or("?", |(_, n)| *n)
    };
    let ranges = |rs: &[AccessRange]| {
        rs.iter()
            .map(|a| format!("{}[{}..{}]", name(a.buffer), a.lo, a.hi))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{} d{} {:?} s{:?} {:016x}..{:016x} enq={:016x} sync={:016x} {:?} {} deps={:?} r={} w={} {}",
        r.seq,
        r.device.0,
        r.engine,
        r.stream,
        r.start_s.to_bits(),
        r.end_s.to_bits(),
        r.enqueue_host_s.to_bits(),
        r.host_sync_s.to_bits(),
        r.kind,
        if r.serializing { "ser" } else { "async" },
        r.deps,
        ranges(&r.reads),
        ranges(&r.writes),
        r.label,
    )
}

/// `dst[i] = 2 * src[i]` with enough modeled work per item that the
/// kernel is long next to a transfer of the same buffer.
fn double_body(src: &vgpu::Buffer<f32>, dst: &vgpu::Buffer<f32>) -> KernelBody {
    let (src, dst) = (src.clone(), dst.clone());
    Arc::new(move |wg: &WorkGroup| {
        wg.for_each_item(|it| {
            if !it.in_bounds() {
                return;
            }
            let i = it.global_id(0);
            let v = it.read(&src, i);
            it.write(&dst, i, 2.0 * v);
            it.work(2_000);
        });
    })
}

#[test]
fn scripted_mix_reproduces_the_recorded_timeline() {
    let p = Platform::new(
        PlatformConfig::default()
            .devices(2)
            .spec(DeviceSpec::tiny())
            .cache_tag("timeline-fingerprint"),
    );
    p.compiler().clear_cache().unwrap();
    p.enable_timeline_trace();
    let before = p.stats_snapshot();

    let q0 = p.queue(0, DriverProfile::opencl());
    let c0 = p.queue(0, DriverProfile::opencl());
    let q1 = p.queue(1, DriverProfile::opencl());
    let (d0, d1) = (p.device(0), p.device(1));
    let a0 = d0.alloc::<f32>(N).unwrap();
    let b0 = d0.alloc::<f32>(N).unwrap();
    let s0 = d0.alloc::<f32>(N).unwrap();
    let a1 = d1.alloc::<f32>(N).unwrap();
    let b1 = d1.alloc::<f32>(N).unwrap();
    let names = [
        (a0.id(), "a0"),
        (b0.id(), "b0"),
        (s0.id(), "s0"),
        (a1.id(), "a1"),
        (b1.id(), "b1"),
    ];
    let host: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let mut out = vec![0.0f32; N];
    let nd = NDRange::linear(N, 64);

    // A source build, then a cache load of the same program.
    let program = Program::from_source("double", "__kernel void double_it() { /* fp */ }");
    let (k0, _) = q0.build_kernel(&program, double_body(&a0, &b0)).unwrap();
    let (k1, outcome) = q1.build_kernel(&program, double_body(&a1, &b1)).unwrap();
    assert!(outcome.from_cache);

    let w = q0
        .enqueue_write(&a0, Region::Whole, &host, 1, After::Device)
        .unwrap();
    c0.enqueue_write(&s0, Region::Whole, &host, 2, After::Device)
        .unwrap();
    let ka = q0
        .launch(&k0, nd, After::Events(std::slice::from_ref(&w)))
        .unwrap();
    let wa = c0
        .enqueue_write(&s0, Region::Whole, &host, 1, After::Events(&[]))
        .unwrap();
    c0.enqueue_write(&s0, Region::At(16), &host[..64], 2, After::Events(&[wa]))
        .unwrap();
    q1.enqueue_write(&a1, Region::At(8), &host[..128], 1, After::Device)
        .unwrap();
    q1.launch(&k1, nd, After::Device).unwrap();
    p.copy(&b0, 0, &b1, 0, N, 1, After::Device).unwrap();
    q1.launch(&k1, nd, After::Events(&[])).unwrap();
    p.copy(&b0, 4, &a1, 0, 32, 2, After::Device).unwrap();
    p.copy(&a0, 0, &s0, 0, 64, 1, After::Device).unwrap();
    p.copy(&a0, 64, &s0, 128, 32, 1, After::Device).unwrap();
    let kc = q0.launch(&k0, nd, After::Events(&[])).unwrap();
    p.copy(
        &a0,
        0,
        &a1,
        0,
        256,
        1,
        After::Events(std::slice::from_ref(&kc)),
    )
    .unwrap();
    q1.launch(&k1, nd, After::Events(&[])).unwrap();
    p.copy(&s0, 0, &b0, 256, 64, 1, After::Events(&[ka]))
        .unwrap();
    let m = c0.enqueue_marker();
    c0.enqueue_read(
        &b0,
        Region::At(0),
        &mut out[..64],
        1,
        false,
        After::Events(&[m]),
    )
    .unwrap();
    q0.enqueue_fill(&s0, 0.5, After::Device).unwrap();
    q1.enqueue_read(&b1, Region::Whole, &mut out, 2, false, After::Device)
        .unwrap();
    q1.enqueue_read(&a1, Region::At(8), &mut out[..16], 1, false, After::Device)
        .unwrap();
    q0.enqueue_read(&b0, Region::At(0), &mut out[..32], 1, true, After::Device)
        .unwrap();
    q1.launch(&k1, nd, After::Events(&[])).unwrap();
    q1.enqueue_read(&b1, Region::Whole, &mut out, 1, true, After::Device)
        .unwrap();
    q0.launch(&k0, nd, After::Device).unwrap();
    q0.finish();
    let last: Event = c0
        .enqueue_write(&a0, Region::Whole, &host, 1, After::Events(&[]))
        .unwrap();
    assert_eq!(last.seq, 26);

    let trace: Vec<String> = p
        .take_timeline_trace()
        .iter()
        .map(|r| fingerprint(r, &names))
        .collect();
    assert_eq!(trace, EXPECTED_TRACE);
    assert_eq!(p.stats_snapshot() - before, expected_stats());
}

const EXPECTED_TRACE: &[&str] = &[
    "1 d0 Copy sSome(0) 3fc62a4213f35f28..3fc62a9c9257efb1 enq=3fc62a4213f35f28 sync=0000000000000000 H2D ser deps=[] r= w=a0[0..4096] h2d",
    "2 d0 Copy sSome(1) 3fc62a9c9257efb1..3fc62af710bc803a enq=3fc62a4213f35f28 sync=0000000000000000 H2D ser deps=[] r= w=s0[0..4096] h2d",
    "3 d0 Compute sSome(0) 3fc62a9c9257efb1..3fc636e292463a1d enq=3fc62a4213f35f28 sync=0000000000000000 Kernel async deps=[1] r=a0[0..4096] w=b0[0..4096] double",
    "4 d0 Copy sSome(1) 3fc62af710bc803a..3fc62b518f2110c3 enq=3fc62a4213f35f28 sync=0000000000000000 H2D async deps=[] r= w=s0[0..4096] h2d",
    "5 d0 Copy sSome(1) 3fc62b518f2110c3..3fc62ba5dbb01b20 enq=3fc62a4213f35f28 sync=0000000000000000 H2D async deps=[4] r= w=s0[64..320] h2d",
    "6 d1 Copy sSome(2) 3fc62a4213f35f28..3fc62a96ca3b5055 enq=3fc62a4213f35f28 sync=0000000000000000 H2D ser deps=[] r= w=a1[32..544] h2d",
    "7 d1 Compute sSome(2) 3fc62a96ca3b5055..3fc636dcca299ac1 enq=3fc62a4213f35f28 sync=0000000000000000 Kernel ser deps=[] r=a1[0..4096] w=b1[0..4096] double",
    "8 d0 Copy sNone 3fc636e292463a1d..3fc637978f0f5b2f enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r=b0[0..4096] w=b1[0..4096] d2d",
    "8 d1 Copy sNone 3fc636e292463a1d..3fc637978f0f5b2f enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r= w= d2d",
    "9 d1 Compute sSome(2) 3fc637978f0f5b2f..3fc643dd8efda59b enq=3fc62a4213f35f28 sync=0000000000000000 Kernel async deps=[] r=a1[0..4096] w=b1[0..4096] double",
    "10 d0 Copy sNone 3fc643dd8efda59b..3fc64485be62d386 enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r=b0[16..144] w=a1[0..128] d2d",
    "10 d1 Copy sNone 3fc643dd8efda59b..3fc64485be62d386 enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r= w= d2d",
    "11 d0 Copy sNone 3fc64485be62d386..3fc644862c5652ed enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r=a0[0..256] w=s0[0..256] d2d",
    "12 d0 Copy sNone 3fc644862c5652ed..3fc64486635012a1 enq=3fc62a4213f35f28 sync=0000000000000000 D2D ser deps=[] r=a0[256..384] w=s0[512..640] d2d",
    "13 d0 Compute sSome(0) 3fc636e292463a1d..3fc6432892348489 enq=3fc62a4213f35f28 sync=0000000000000000 Kernel async deps=[] r=a0[0..4096] w=b0[0..4096] double",
    "14 d0 Copy sNone 3fc64486635012a1..3fc6453176c3903a enq=3fc62a4213f35f28 sync=0000000000000000 D2D async deps=[13] r=a0[0..1024] w=a1[0..1024] d2d",
    "14 d1 Copy sNone 3fc64486635012a1..3fc6453176c3903a enq=3fc62a4213f35f28 sync=0000000000000000 D2D async deps=[] r= w= d2d",
    "15 d1 Compute sSome(2) 3fc64485be62d386..3fc650cbbe511df2 enq=3fc62a4213f35f28 sync=0000000000000000 Kernel async deps=[] r=a1[0..4096] w=b1[0..4096] double",
    "16 d0 Copy sNone 3fc6453176c3903a..3fc64531e4b70fa1 enq=3fc62a4213f35f28 sync=0000000000000000 D2D async deps=[3] r=s0[0..256] w=b0[1024..1280] d2d",
    "17 d0 Compute sSome(1) 3fc64531e4b70fa1..3fc64531e4b70fa1 enq=3fc62a4213f35f28 sync=0000000000000000 Marker ser deps=[] r= w= marker",
    "18 d0 Copy sSome(1) 3fc64531e4b70fa1..3fc64586314619fe enq=3fc62a4213f35f28 sync=0000000000000000 D2H async deps=[17] r=b0[0..256] w= d2h",
    "19 d0 Copy sSome(0) 3fc64586314619fe..3fc64589a0e21539 enq=3fc62a4213f35f28 sync=0000000000000000 Fill ser deps=[] r= w=s0[0..4096] fill",
    "20 d1 Copy sSome(2) 3fc650cbbe511df2..3fc651263cb5ae7b enq=3fc62a4213f35f28 sync=0000000000000000 D2H ser deps=[] r=b1[0..4096] w= d2h",
    "21 d1 Copy sSome(2) 3fc651263cb5ae7b..3fc6517a39fa0bbd enq=3fc62a4213f35f28 sync=0000000000000000 D2H ser deps=[] r=a1[32..96] w= d2h",
    "22 d0 Copy sSome(0) 3fc64589a0e21539..3fc645ddb894ac2e enq=3fc62a4213f35f28 sync=0000000000000000 D2H ser deps=[] r=b0[0..128] w= d2h",
    "23 d1 Compute sSome(2) 3fc6517a39fa0bbd..3fc65dc039e85629 enq=3fc645ddb894ac2e sync=3fc645ddb894ac2e Kernel async deps=[] r=a1[0..4096] w=b1[0..4096] double",
    "24 d1 Copy sSome(2) 3fc65dc039e85629..3fc65e1ab84ce6b2 enq=3fc645ddb894ac2e sync=3fc645ddb894ac2e D2H ser deps=[] r=b1[0..4096] w= d2h",
    "25 d0 Compute sSome(0) 3fc65e1ab84ce6b2..3fc66a60b83b311e enq=3fc65e1ab84ce6b2 sync=3fc65e1ab84ce6b2 Kernel ser deps=[] r=a0[0..4096] w=b0[0..4096] double",
    "26 d0 Copy sSome(1) 3fc66a60b83b311e..3fc66abb369fc1a7 enq=3fc66a60b83b311e sync=3fc66a60b83b311e H2D async deps=[] r= w=a0[0..4096] h2d",
];

fn expected_stats() -> StatsSnapshot {
    StatsSnapshot {
        h2d_transfers: 6,
        h2d_bytes: 17152,
        d2h_transfers: 5,
        d2h_bytes: 8640,
        d2d_transfers: 3,
        d2d_bytes: 5248,
        kernel_launches: 7,
        kernel_cu_cycles: 1792000,
        kernel_global_bytes: 57344,
        kernel_busy_ns: 2621892,
        source_builds: 1,
        cache_loads: 1,
        build_virtual_ns: 173164615,
    }
}
