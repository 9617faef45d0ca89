//! Command queues ("streams"), events, and the one command primitive.
//!
//! A queue belongs to one device and carries one [`DriverProfile`] — the
//! same virtual hardware behaves as an "OpenCL device", a "CUDA device" or a
//! "SkelCL device" depending on the profile of the queue driving it, which
//! is exactly the comparison the paper performs on its single testbed.
//!
//! A device can drive **multiple in-order queues** over one shared timeline
//! with separate compute and copy engines (see [`crate::timing`]): each
//! [`Platform::queue`](crate::Platform::queue) call creates a fresh stream.
//! There is one entry point per command kind — [`CommandQueue::enqueue_write`],
//! [`CommandQueue::enqueue_read`], [`CommandQueue::enqueue_fill`],
//! [`CommandQueue::launch`] and [`Platform::copy`](crate::Platform::copy) —
//! and each takes an [`After`] policy saying what the command waits for:
//!
//! * [`After::Device`] is **device-serializing**: the command starts only
//!   when *everything* previously scheduled on its device has finished,
//!   which reproduces the pre-stream single-clock timeline exactly;
//! * [`After::Events`] waits only for the listed events and starts at
//!   `max(queue-ready, dependency-ready, engine-availability, enqueue time)`
//!   — so a transfer on a copy stream genuinely runs under a kernel when no
//!   dependency links them. An empty list waits for no event at all; it is
//!   *not* the device-serializing rule.
//!
//! Either way the *data* moves immediately (the simulator executes commands
//! eagerly); only the modeled timeline differs. Every command returns an
//! [`Event`] carrying its `CL_PROFILING_COMMAND_START/END`-style interval,
//! usable as a dependency for later commands on any queue.

use crate::buffer::Buffer;
use crate::compiler::{BuildOutcome, CompiledKernel, Program};
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::{self, LaunchStats};
use crate::kernel::{KernelBody, NDRange};
use crate::platform::PlatformShared;
use crate::profiling::{AccessRange, CmdKind, CommandRecord};
use crate::timing::{ready_s, DriverProfile, EngineKind, VirtualClock};
use crate::types::{DeviceId, Scalar};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What a finished command was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    WriteBuffer,
    ReadBuffer,
    FillBuffer,
    Kernel,
    CopyD2D,
    /// A zero-duration join point over everything already scheduled on the
    /// device (`clEnqueueMarker`): the anchor event-ordered commands wait on
    /// when their inputs were produced by device-serializing commands.
    Marker,
}

/// A completed command with its virtual-timeline timestamps, like an OpenCL
/// event queried with `CL_PROFILING_COMMAND_START/END`. Pass events in
/// [`After::Events`] to build cross-stream dependency graphs.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    /// The device whose engine ran the command (for staged D2D copies, the
    /// source device; both copy engines are occupied either way).
    pub device: DeviceId,
    /// Which engine of the device the command occupied.
    pub engine: EngineKind,
    pub start_s: f64,
    pub end_s: f64,
    /// Process-wide command sequence number — the identity the timeline
    /// trace records, so checkers can resolve dependency lists back to the
    /// commands they name.
    pub seq: u64,
    /// Present for kernel events: the executor's counters.
    pub launch: Option<LaunchStats>,
}

impl Event {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The dependency policy of a command: what it waits for besides its
/// stream's in-order tail, its engine and the host's enqueue time.
#[derive(Debug, Clone, Copy)]
pub enum After<'a> {
    /// Device-serializing (the classic single-clock rule): wait for
    /// everything previously scheduled on the device — both engines — and,
    /// for a cross-device copy, on the destination device too.
    Device,
    /// Event-ordered: wait only for these events. `Events(&[])` waits for
    /// no event, so the command may overlap unrelated work on the other
    /// engine.
    Events(&'a [Event]),
}

/// Which part of a buffer a host transfer covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The whole buffer: the host slice must have exactly its length.
    Whole,
    /// `[offset, offset + host slice length)`, which must fit the buffer.
    At(usize),
}

/// One command as the scheduler sees it: where it runs, for how long, and
/// what the timeline trace should say about it.
pub(crate) struct Command<'a> {
    pub(crate) kind: EventKind,
    pub(crate) device: &'a Device,
    pub(crate) engine: EngineKind,
    pub(crate) duration_s: f64,
    /// The destination device of a cross-device copy, whose copy engine the
    /// copy occupies for the same interval.
    pub(crate) peer: Option<&'a Device>,
    /// The in-order stream (tail clock, id) it was enqueued on; platform
    /// copies are streamless.
    pub(crate) stream: Option<(&'a VirtualClock, u64)>,
    pub(crate) reads: Vec<AccessRange>,
    pub(crate) writes: Vec<AccessRange>,
    pub(crate) label: &'a str,
    pub(crate) launch: Option<LaunchStats>,
}

impl<'a> Command<'a> {
    pub(crate) fn new(
        kind: EventKind,
        device: &'a Device,
        engine: EngineKind,
        duration_s: f64,
        label: &'a str,
    ) -> Self {
        Command {
            kind,
            device,
            engine,
            duration_s,
            peer: None,
            stream: None,
            reads: Vec::new(),
            writes: Vec::new(),
            label,
            launch: None,
        }
    }
}

/// The scheduler: place `cmd` on the virtual timeline under `after` and
/// log it to the timeline trace (and any online checker) when a record
/// sink is active.
///
/// The command starts at the latest of the host enqueue time, its stream's
/// tail, and what `after` demands — every engine of its device(s) under
/// [`After::Device`], the listed events plus the destination copy engine
/// under [`After::Events`] — and then at its own engine's availability.
/// A marker is a join point and occupies no engine. Completion of a
/// cross-device copy is observed by the whole destination device under
/// `Device`, by its copy engine only under `Events`.
pub(crate) fn schedule(shared: &PlatformShared, cmd: Command<'_>, after: After<'_>) -> Event {
    let enqueue_host_s = shared.host_clock.now_s();
    let mut not_before = enqueue_host_s;
    if let Some((tail, _)) = cmd.stream {
        not_before = not_before.max(tail.now_s());
    }
    match after {
        After::Device => {
            not_before = not_before.max(cmd.device.clock().now_s());
            if let Some(peer) = cmd.peer {
                not_before = not_before.max(peer.clock().now_s());
            }
        }
        After::Events(deps) => {
            not_before = not_before.max(ready_s(deps.iter().map(|e| e.end_s)));
            if let Some(peer) = cmd.peer {
                not_before = not_before.max(peer.clock().engine(EngineKind::Copy).now_s());
            }
        }
    }
    let (start_s, end_s) = if cmd.kind == EventKind::Marker {
        (not_before, not_before)
    } else {
        cmd.device
            .clock()
            .engine(cmd.engine)
            .advance_from(not_before, cmd.duration_s)
    };
    if let Some(peer) = cmd.peer {
        match after {
            After::Device => peer.clock().sync_to(end_s),
            After::Events(_) => peer.clock().engine(EngineKind::Copy).sync_to(end_s),
        }
    }
    if let Some((tail, _)) = cmd.stream {
        tail.sync_to(end_s);
    }
    let seq = shared.stats.next_seq();
    if shared.stats.sink_active() {
        let (deps, serializing) = match after {
            After::Device => (Vec::new(), true),
            After::Events(deps) => (deps.iter().map(|e| e.seq).collect(), false),
        };
        let host_sync_s = shared.stats.host_synced_s();
        let kind = CmdKind::from_event(cmd.kind);
        let record = |device: &Device| {
            let rec = CommandRecord::interval(device.id(), cmd.engine, start_s, end_s)
                .with_seq(seq)
                .with_kind(kind)
                .at_enqueue(enqueue_host_s)
                .with_host_sync(host_sync_s)
                .with_label(cmd.label);
            if serializing {
                rec
            } else {
                rec.asynchronous()
            }
        };
        let mut primary = record(cmd.device)
            .with_deps(deps)
            .with_reads(cmd.reads)
            .with_writes(cmd.writes);
        if let Some((_, id)) = cmd.stream {
            primary = primary.on_stream(id);
        }
        // A cross-device copy logs one record per device under one `seq`:
        // two engine occupancies of a single command. Dependencies and
        // access ranges live on the primary (source-device) record only.
        let mut group = vec![primary];
        group.extend(cmd.peer.map(record));
        shared.stats.record_group(&group);
    }
    Event {
        kind: cmd.kind,
        device: cmd.device.id(),
        engine: cmd.engine,
        start_s,
        end_s,
        seq,
        launch: cmd.launch,
    }
}

/// An in-order command queue ("stream") on one device. Cloning yields a
/// second handle to the *same* stream; [`crate::Platform::queue`] creates a
/// new independent stream each call.
#[derive(Clone)]
pub struct CommandQueue {
    device: Arc<Device>,
    profile: DriverProfile,
    shared: Arc<PlatformShared>,
    /// This stream's in-order tail: commands on one queue never reorder.
    tail: VirtualClock,
    /// Platform-unique stream identity (clones share it — same stream).
    stream_id: u64,
}

impl CommandQueue {
    pub(crate) fn new(
        device: Arc<Device>,
        profile: DriverProfile,
        shared: Arc<PlatformShared>,
    ) -> Self {
        let tail = device.clock().register_stream();
        let stream_id = shared.next_stream.fetch_add(1, Ordering::Relaxed);
        CommandQueue {
            device,
            profile,
            shared,
            tail,
            stream_id,
        }
    }

    /// Platform-unique identity of this in-order stream.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub fn profile(&self) -> &DriverProfile {
        &self.profile
    }

    /// A command on this queue's device, `engine` and stream.
    fn command<'a>(
        &'a self,
        kind: EventKind,
        engine: EngineKind,
        duration_s: f64,
        label: &'a str,
    ) -> Command<'a> {
        Command {
            stream: Some((&self.tail, self.stream_id)),
            ..Command::new(kind, &self.device, engine, duration_s, label)
        }
    }

    /// A zero-duration join point over everything already scheduled on this
    /// device (`clEnqueueMarker` semantics): later commands that wait for
    /// the marker in [`After::Events`] are ordered after every command — on
    /// any stream, either engine — enqueued before it.
    pub fn enqueue_marker(&self) -> Event {
        let marker = self.command(EventKind::Marker, EngineKind::Compute, 0.0, "marker");
        schedule(&self.shared, marker, After::Device)
    }

    fn check_device<T: Scalar>(&self, buf: &Buffer<T>) -> Result<()> {
        if buf.device() != self.device.id() {
            return Err(Error::WrongDevice {
                expected: buf.device(),
                actual: self.device.id(),
            });
        }
        Ok(())
    }

    /// Upload a host slice into `region` of a device buffer
    /// (`clEnqueueWriteBuffer`). `concurrent` is the number of transfers
    /// sharing the host bus right now (multi-device upload batches pass
    /// their batch size).
    pub fn enqueue_write<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        region: Region,
        src: &[T],
        concurrent: usize,
        after: After<'_>,
    ) -> Result<Event> {
        self.check_device(buf)?;
        let offset = match region {
            Region::Whole => {
                buf.write_from_host(src)?;
                0
            }
            Region::At(o) => {
                buf.write_range_from_host(o, src)?;
                o
            }
        };
        let bytes = std::mem::size_of_val(src);
        self.shared.stats.add_h2d(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (offset * std::mem::size_of::<T>()) as u64;
        let write = Command {
            writes: vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)],
            ..self.command(EventKind::WriteBuffer, EngineKind::Copy, dur, "h2d")
        };
        Ok(schedule(&self.shared, write, after))
    }

    /// Download `region` of a device buffer into a host slice
    /// (`clEnqueueReadBuffer`). A `blocking` read makes the host clock wait
    /// for completion; otherwise the caller synchronises later (e.g. with
    /// [`CommandQueue::finish`]).
    pub fn enqueue_read<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        region: Region,
        dst: &mut [T],
        concurrent: usize,
        blocking: bool,
        after: After<'_>,
    ) -> Result<Event> {
        self.check_device(buf)?;
        let offset = match region {
            Region::Whole => {
                buf.read_into_host(dst)?;
                0
            }
            Region::At(o) => {
                buf.read_range_into_host(o, dst)?;
                o
            }
        };
        let bytes = std::mem::size_of_val(dst);
        self.shared.stats.add_d2h(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (offset * std::mem::size_of::<T>()) as u64;
        let read = Command {
            reads: vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)],
            ..self.command(EventKind::ReadBuffer, EngineKind::Copy, dur, "d2h")
        };
        let ev = schedule(&self.shared, read, after);
        if blocking {
            self.shared.host_clock.sync_to(ev.end_s);
            self.shared.stats.note_host_sync(ev.end_s);
        }
        Ok(ev)
    }

    /// Device-side fill (`clEnqueueFillBuffer`): costs global-memory
    /// bandwidth but no PCIe traffic.
    pub fn enqueue_fill<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        v: T,
        after: After<'_>,
    ) -> Result<Event> {
        self.check_device(buf)?;
        buf.fill(v);
        let dur = buf.size_bytes() as f64 / self.device.spec().mem_bandwidth_bytes_s;
        let fill = Command {
            writes: vec![AccessRange::whole(buf.id(), buf.size_bytes())],
            ..self.command(EventKind::FillBuffer, EngineKind::Copy, dur, "fill")
        };
        Ok(schedule(&self.shared, fill, after))
    }

    /// Build a program into an executable kernel under this queue's driver
    /// profile, reporting whether the binary cache served the build and
    /// what it cost (experiment E6). Runtime compilation (or cache loading)
    /// happens on the host, so the cost lands on the *host* clock.
    pub fn build_kernel(
        &self,
        program: &Program,
        body: KernelBody,
    ) -> Result<(CompiledKernel, BuildOutcome)> {
        let (kernel, outcome) = self.shared.compiler.build(program, body, &self.profile)?;
        if outcome.from_cache {
            self.shared
                .stats
                .cache_loads
                .fetch_add(1, Ordering::Relaxed);
        } else if self.profile.runtime_compile {
            self.shared
                .stats
                .source_builds
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared
            .stats
            .build_virtual_ns
            .fetch_add((outcome.virtual_s * 1e9) as u64, Ordering::Relaxed);
        let now = self.shared.host_clock.now_s();
        self.shared.host_clock.advance_from(now, outcome.virtual_s);
        Ok((kernel, outcome))
    }

    /// Launch a kernel over an ND-range; real execution happens on host
    /// threads, the modeled duration occupies this device's compute engine.
    pub fn launch(&self, kernel: &CompiledKernel, nd: NDRange, after: After<'_>) -> Result<Event> {
        // Track per-buffer access envelopes only when someone will consume
        // them — tracking costs a few branches per element access.
        let track = self.shared.stats.sink_active();
        let (stats, access) = exec::execute_traced(
            self.device.spec(),
            &kernel.body,
            nd,
            self.profile.compute_efficiency,
            track,
        )?;
        let dur = stats.duration_s + self.profile.launch_cost_s(kernel.n_args);
        self.shared
            .stats
            .add_kernel(stats.max_cu_cycles, stats.global_bytes, dur);
        let launch = Command {
            reads: access.reads,
            writes: access.writes,
            launch: Some(stats),
            ..self.command(EventKind::Kernel, EngineKind::Compute, dur, &kernel.name)
        };
        Ok(schedule(&self.shared, launch, after))
    }

    /// Wait until every command on this queue is done (`clFinish`): the
    /// host clock catches up with the device timeline.
    pub fn finish(&self) {
        let now = self.device.clock().now_s();
        self.shared.host_clock.sync_to(now);
        self.shared.stats.note_host_sync(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::WorkGroup;
    use crate::platform::{Platform, PlatformConfig};
    use crate::profiling::StatsSnapshot;

    fn platform(n: usize) -> Platform {
        Platform::new(
            PlatformConfig::default()
                .devices(n)
                .spec(DeviceSpec::tiny())
                .cache_tag("queue-tests"),
        )
    }

    #[test]
    fn write_then_read_roundtrips() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<f32>(4).unwrap();
        q.enqueue_write(&buf, Region::Whole, &[1.0, 2.0, 3.0, 4.0], 1, After::Device)
            .unwrap();
        let mut out = [0.0f32; 4];
        q.enqueue_read(&buf, Region::Whole, &mut out, 1, true, After::Device)
            .unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrong_device_is_rejected() {
        let p = platform(2);
        let q0 = p.queue(0, DriverProfile::opencl());
        let buf1 = p.device(1).alloc::<f32>(4).unwrap();
        assert!(matches!(
            q0.enqueue_write(&buf1, Region::Whole, &[0.0; 4], 1, After::Device),
            Err(Error::WrongDevice { .. })
        ));
    }

    #[test]
    fn whole_buffer_transfers_reject_a_wrong_length() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<f32>(4).unwrap();
        let before = p.stats_snapshot();
        for len in [3, 5] {
            let mut host = vec![1.0f32; len];
            assert!(matches!(
                q.enqueue_write(&buf, Region::Whole, &host, 1, After::Device),
                Err(Error::SizeMismatch {
                    expected: 4,
                    actual
                }) if actual == len
            ));
            assert!(matches!(
                q.enqueue_read(&buf, Region::Whole, &mut host, 1, true, After::Device),
                Err(Error::SizeMismatch {
                    expected: 4,
                    actual
                }) if actual == len
            ));
        }
        // Rejected transfers move no data and account nothing.
        assert_eq!(buf.to_vec(), vec![0.0; 4]);
        assert_eq!(p.stats_snapshot() - before, StatsSnapshot::default());
        // The same short slice is a valid ranged transfer at offset 0.
        q.enqueue_write(&buf, Region::At(0), &[1.0; 3], 1, After::Device)
            .unwrap();
        assert_eq!(buf.to_vec(), vec![1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn transfers_advance_the_device_clock() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![7u8; 1 << 20];
        let before = p.device(0).clock().now_s();
        let ev = q
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Device)
            .unwrap();
        assert!(ev.duration_s() > 0.0);
        assert!(p.device(0).clock().now_s() > before);
        // Blocking read syncs the host clock too.
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read(&buf, Region::Whole, &mut out, 1, true, After::Device)
            .unwrap();
        assert_eq!(p.host_now_s(), p.device(0).clock().now_s());
    }

    #[test]
    fn launch_runs_kernel_and_charges_overhead() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u32>(100).unwrap();
        let program = Program::from_source(
            "inc",
            "__kernel void inc(__global uint* x){x[get_global_id(0)]++;}",
        );
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let v = it.read(&buf, i);
                    it.write(&buf, i, v + 1);
                    it.work(1);
                });
            })
        };
        let (kernel, _) = q.build_kernel(&program, body).unwrap();
        let ev = q
            .launch(&kernel, NDRange::linear(100, 32), After::Device)
            .unwrap();
        assert!(buf.to_vec().iter().all(|&v| v == 1));
        let stats = ev.launch.unwrap();
        assert_eq!(stats.n_active_items, 100);
        // Duration includes the fixed launch overhead.
        assert!(ev.duration_s() >= DriverProfile::opencl().launch_overhead_s);
    }

    #[test]
    fn cuda_launches_cost_less_overhead_than_opencl() {
        let p = platform(1);
        let program = Program::from_source("k", "void k() {}").with_arg_count(2);
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|it| it.work(1));
        });
        let ocl = p.queue(0, DriverProfile::opencl());
        let cuda = p.queue(0, DriverProfile::cuda());
        let (k_ocl, _) = ocl.build_kernel(&program, body.clone()).unwrap();
        let (k_cuda, _) = cuda.build_kernel(&program, body).unwrap();
        let nd = NDRange::linear(32, 32);
        let e_ocl = ocl.launch(&k_ocl, nd, After::Device).unwrap();
        let e_cuda = cuda.launch(&k_cuda, nd, After::Device).unwrap();
        assert!(e_cuda.duration_s() < e_ocl.duration_s());
    }

    #[test]
    fn build_charges_the_host_clock_and_counts_stats() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        p.compiler().clear_cache().unwrap();
        let program = Program::from_source("k", "__kernel void k() { /* unique-1 */ }");
        let body: KernelBody = Arc::new(|_wg: &WorkGroup| {});
        let t0 = p.host_now_s();
        let (_, o1) = q.build_kernel(&program, body.clone()).unwrap();
        assert!(!o1.from_cache);
        assert!(p.host_now_s() > t0);
        let (_, o2) = q.build_kernel(&program, body).unwrap();
        assert!(o2.from_cache);
        let snap = p.stats_snapshot();
        assert_eq!(snap.source_builds, 1);
        assert_eq!(snap.cache_loads, 1);
        p.compiler().clear_cache().unwrap();
    }

    #[test]
    fn ranged_transfers_roundtrip_and_count() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u32>(10).unwrap();
        let before = p.stats_snapshot();
        q.enqueue_write(&buf, Region::At(3), &[7, 8, 9], 1, After::Device)
            .unwrap();
        let mut out = [0u32; 3];
        q.enqueue_read(&buf, Region::At(3), &mut out, 1, true, After::Device)
            .unwrap();
        assert_eq!(out, [7, 8, 9]);
        assert_eq!(buf.get(2), 0);
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.h2d_bytes, 12);
        assert_eq!(delta.d2h_bytes, 12);
        // Out-of-range is rejected.
        assert!(q
            .enqueue_write(&buf, Region::At(9), &[1, 2], 1, After::Device)
            .is_err());
        assert!(q
            .enqueue_read(&buf, Region::At(9), &mut out, 1, true, After::Device)
            .is_err());
    }

    #[test]
    fn non_blocking_read_defers_host_sync() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read(&buf, Region::Whole, &mut out, 1, false, After::Device)
            .unwrap();
        assert!(
            p.host_now_s() < p.device(0).clock().now_s(),
            "non-blocking read must leave the host clock behind the device"
        );
        q.finish();
        assert_eq!(p.host_now_s(), p.device(0).clock().now_s());
    }

    /// A one-argument no-op kernel body used by the stream tests.
    fn nop_kernel(q: &CommandQueue, tag: &str) -> CompiledKernel {
        let program = Program::from_source("nop", format!("__kernel void nop() {{ /* {tag} */ }}"));
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|it| it.work(200_000));
        });
        q.build_kernel(&program, body).unwrap().0
    }

    #[test]
    fn async_transfer_overlaps_a_kernel_on_another_stream() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![1u8; 1 << 20];

        let kernel = nop_kernel(&compute, "overlap");
        let k = compute
            .launch(&kernel, NDRange::linear(1 << 16, 64), After::Events(&[]))
            .unwrap();
        let w = copy
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        assert!(
            w.start_s < k.end_s && k.start_s < w.end_s,
            "copy [{}, {}] must run under the kernel [{}, {}]",
            w.start_s,
            w.end_s,
            k.start_s,
            k.end_s
        );
        assert_eq!(w.engine, EngineKind::Copy);
        assert_eq!(k.engine, EngineKind::Compute);
    }

    #[test]
    fn wait_for_orders_across_streams() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![2u8; 1 << 20];

        let w = copy
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        let kernel = nop_kernel(&compute, "dep");
        let k = compute
            .launch(
                &kernel,
                NDRange::linear(64, 64),
                After::Events(std::slice::from_ref(&w)),
            )
            .unwrap();
        assert!(
            k.start_s >= w.end_s,
            "dependent kernel ({}) must wait for the upload ({})",
            k.start_s,
            w.end_s
        );
    }

    #[test]
    fn one_stream_stays_in_order_even_async() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![3u8; 1 << 20];
        let kernel = nop_kernel(&q, "inorder");
        let k = q
            .launch(&kernel, NDRange::linear(1 << 16, 64), After::Events(&[]))
            .unwrap();
        // Same stream: the write may not pass the kernel, despite running
        // on the other engine and having no event dependency.
        let w = q
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        assert!(w.start_s >= k.end_s, "in-order queue must not reorder");
    }

    #[test]
    fn same_engine_commands_serialize() {
        let p = platform(1);
        let a = p.queue(0, DriverProfile::opencl());
        let b = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![4u8; 1 << 20];
        let w1 = a
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        let w2 = b
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        assert!(
            w2.start_s >= w1.end_s,
            "two transfers share one copy engine"
        );
    }

    #[test]
    fn marker_joins_both_engines() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![5u8; 1 << 20];
        let kernel = nop_kernel(&compute, "marker");
        let k = compute
            .launch(&kernel, NDRange::linear(1 << 16, 64), After::Events(&[]))
            .unwrap();
        let w = copy
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Events(&[]))
            .unwrap();
        let m = copy.enqueue_marker();
        assert_eq!(m.kind, EventKind::Marker);
        assert_eq!(m.duration_s(), 0.0);
        assert!(m.end_s >= k.end_s && m.end_s >= w.end_s);
    }

    #[test]
    fn legacy_commands_serialize_against_async_work() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![6u8; 1 << 20];
        let kernel = nop_kernel(&compute, "legacy");
        let k = compute
            .launch(&kernel, NDRange::linear(1 << 16, 64), After::Events(&[]))
            .unwrap();
        // A device-serializing write waits for the in-flight kernel even
        // though the copy engine itself is idle.
        let w = copy
            .enqueue_write(&buf, Region::Whole, &data, 1, After::Device)
            .unwrap();
        assert!(w.start_s >= k.end_s, "legacy commands keep the old rule");
    }

    #[test]
    fn reset_clocks_rewinds_stream_tails() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        q.enqueue_write(&buf, Region::Whole, &vec![7u8; 1 << 20], 1, After::Device)
            .unwrap();
        p.reset_clocks();
        // A fresh command must start at the epoch again — including the
        // queue's own in-order tail, not just the engine clocks.
        let w = q
            .enqueue_write(&buf, Region::Whole, &vec![8u8; 1 << 20], 1, After::Device)
            .unwrap();
        assert_eq!(w.start_s, 0.0);
    }

    #[test]
    fn timeline_trace_records_engines() {
        let p = platform(1);
        p.enable_timeline_trace();
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1024).unwrap();
        q.enqueue_write(&buf, Region::Whole, &vec![9u8; 1024], 1, After::Device)
            .unwrap();
        let kernel = nop_kernel(&q, "trace");
        q.launch(&kernel, NDRange::linear(64, 64), After::Device)
            .unwrap();
        let trace = p.take_timeline_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].engine, EngineKind::Copy);
        assert_eq!(trace[1].engine, EngineKind::Compute);
        assert!(trace[1].start_s >= trace[0].end_s);
        // The trace was taken; the next snapshot starts empty.
        assert!(p.take_timeline_trace().is_empty());
    }

    #[test]
    fn fill_touches_no_pcie() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<f32>(256).unwrap();
        let before = p.stats_snapshot();
        q.enqueue_fill(&buf, 3.0, After::Device).unwrap();
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
        assert!(buf.to_vec().iter().all(|&v| v == 3.0));
    }
}
