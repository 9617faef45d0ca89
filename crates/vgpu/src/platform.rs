//! The platform: device list, interconnect, host clock, compiler cache.

use crate::compiler::Compiler;
use crate::device::{Device, DeviceSpec};
use crate::error::{Error, Result};
use crate::profiling::{AccessRange, CommandObserver, CommandRecord, Stats, StatsSnapshot};
use crate::queue::{schedule, After, Command, CommandQueue, Event, EventKind};
use crate::timing::{DriverProfile, EngineKind, VirtualClock};
use crate::topology::Topology;
use crate::types::Scalar;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for [`Platform::new`]. The default is the paper's testbed:
/// Tesla-C1060-class devices behind a dual-PCIe host interface.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub n_devices: usize,
    pub spec: DeviceSpec,
    pub topology: Topology,
    pub cache_dir: PathBuf,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            n_devices: 1,
            spec: DeviceSpec::default(),
            topology: Topology::default(),
            cache_dir: std::env::temp_dir().join("vgpu-kernel-cache"),
        }
    }
}

impl PlatformConfig {
    /// Number of devices (the paper's system has 4).
    pub fn devices(mut self, n: usize) -> Self {
        self.n_devices = n;
        self
    }

    pub fn spec(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    pub fn cache_dir(mut self, dir: PathBuf) -> Self {
        self.cache_dir = dir;
        self
    }

    /// Use a per-purpose cache directory under the system temp dir —
    /// keeps concurrently running test binaries from sharing cache state.
    pub fn cache_tag(self, tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("vgpu-kernel-cache-{tag}"));
        self.cache_dir(dir)
    }
}

pub(crate) struct PlatformShared {
    pub(crate) devices: Vec<Arc<Device>>,
    pub(crate) topology: Topology,
    pub(crate) host_clock: VirtualClock,
    pub(crate) stats: Stats,
    pub(crate) compiler: Compiler,
    /// Bumped by [`Platform::reset_clocks`]: [`crate::Event`] timestamps
    /// from before a reset belong to a different epoch and must not be
    /// used as dependencies afterwards (holders compare
    /// [`Platform::clock_epoch`] to decide).
    pub(crate) clock_epoch: AtomicU64,
    /// Platform-unique id for each created stream (see
    /// [`CommandQueue::stream_id`]).
    pub(crate) next_stream: AtomicU64,
}

/// A virtual host with its attached devices.
#[derive(Clone)]
pub struct Platform {
    shared: Arc<PlatformShared>,
}

impl Platform {
    pub fn new(config: PlatformConfig) -> Self {
        assert!(config.n_devices >= 1, "platform needs at least one device");
        let devices = (0..config.n_devices)
            .map(|i| Arc::new(Device::new(crate::types::DeviceId(i), config.spec)))
            .collect();
        Platform {
            shared: Arc::new(PlatformShared {
                devices,
                topology: config.topology,
                host_clock: VirtualClock::new(),
                stats: Stats::default(),
                compiler: Compiler::new(config.cache_dir),
                clock_epoch: AtomicU64::new(0),
                next_stream: AtomicU64::new(0),
            }),
        }
    }

    pub fn n_devices(&self) -> usize {
        self.shared.devices.len()
    }

    /// Device `i`; panics if out of range (see [`Platform::try_device`]).
    pub fn device(&self, i: usize) -> Arc<Device> {
        self.try_device(i).expect("device index out of range")
    }

    pub fn try_device(&self, i: usize) -> Result<Arc<Device>> {
        self.shared
            .devices
            .get(i)
            .cloned()
            .ok_or(Error::NoSuchDevice {
                device: i,
                available: self.shared.devices.len(),
            })
    }

    pub fn devices(&self) -> &[Arc<Device>] {
        &self.shared.devices
    }

    /// Create an in-order queue ("stream") on device `i` under the given
    /// runtime flavour. Every call creates a *new* stream: commands on one
    /// queue never reorder, but async commands on two different queues of
    /// the same device may overlap across its compute and copy engines.
    pub fn queue(&self, i: usize, profile: DriverProfile) -> CommandQueue {
        CommandQueue::new(self.device(i), profile, Arc::clone(&self.shared))
    }

    /// Start recording the per-engine timeline trace (see
    /// [`CommandRecord`]); clears any previous trace. Benches and the
    /// overlap property tests use this to assert that no two commands ever
    /// occupy the same engine of one device at once.
    pub fn enable_timeline_trace(&self) {
        self.shared.stats.enable_trace();
    }

    /// Take the recorded timeline trace (empty unless tracing is enabled).
    pub fn take_timeline_trace(&self) -> Vec<CommandRecord> {
        self.shared.stats.take_trace()
    }

    /// Number of commands recorded so far (0 when tracing is disabled).
    pub fn timeline_trace_len(&self) -> usize {
        self.shared.stats.trace_len()
    }

    /// Install (or remove) a [`CommandObserver`] invoked with every
    /// scheduled command's record group as it is enqueued — the hook the
    /// online hazard checker hangs off. Works with or without the timeline
    /// trace enabled.
    pub fn set_command_observer(&self, obs: Option<CommandObserver>) {
        self.shared.stats.set_observer(obs);
    }

    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    pub fn compiler(&self) -> &Compiler {
        &self.shared.compiler
    }

    /// Current virtual host time.
    pub fn host_now_s(&self) -> f64 {
        self.shared.host_clock.now_s()
    }

    /// Advance the host clock by a host-side cost (e.g. SkelCL's one-time
    /// code generation).
    pub fn charge_host(&self, seconds: f64) {
        let now = self.shared.host_clock.now_s();
        self.shared.host_clock.advance_from(now, seconds);
    }

    /// Host waits for *all* devices (multi-GPU join point).
    pub fn sync_all(&self) {
        let max = self
            .shared
            .devices
            .iter()
            .map(|d| d.clock().now_s())
            .fold(self.host_now_s(), f64::max);
        self.shared.host_clock.sync_to(max);
        self.shared.stats.note_host_sync(max);
    }

    /// Reset every virtual clock to the epoch (between bench repetitions):
    /// host, both engines of every device, and all registered stream
    /// clocks. Any recorded timeline trace is cleared with them.
    pub fn reset_clocks(&self) {
        self.shared.host_clock.reset();
        for d in &self.shared.devices {
            d.clock().reset();
        }
        self.shared.stats.clear_trace();
        self.shared.stats.reset_host_sync();
        self.shared.clock_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The current clock epoch: incremented by every
    /// [`Platform::reset_clocks`]. Holders of [`Event`]s that outlive a
    /// reset (e.g. recorded upload chunks) compare epochs to discard
    /// timestamps from before the rewind instead of waiting on them.
    pub fn clock_epoch(&self) -> u64 {
        self.shared.clock_epoch.load(Ordering::Relaxed)
    }

    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Copy `len` elements from `src[src_off..]` into `dst[dst_off..]` under
    /// the dependency policy `after`. Between two buffers of one device this
    /// is a local copy costing global-memory bandwidth (read + write) and no
    /// PCIe traffic. Between devices it stages through the host, as the
    /// S1070 requires (no peer-to-peer), and occupies both devices' copy
    /// engines for the full duration; `concurrent` is the most transfers
    /// that can be in flight on the host bus at once alongside this one —
    /// not the size of the batch it belongs to. Since a cross-device copy
    /// holds two copy engines, a batch over `n` devices has at most `⌊n/2⌋`
    /// in flight (paper Section III-D).
    ///
    /// Under [`After::Events`] callers are responsible for passing the
    /// events that produced the source region (and, if the destination is
    /// re-read later, its last readers).
    #[allow(clippy::too_many_arguments)]
    pub fn copy<T: Scalar>(
        &self,
        src: &crate::Buffer<T>,
        src_off: usize,
        dst: &crate::Buffer<T>,
        dst_off: usize,
        len: usize,
        concurrent: usize,
        after: After<'_>,
    ) -> Result<Event> {
        if src_off + len > src.len() {
            return Err(Error::OutOfBounds {
                index: src_off + len,
                len: src.len(),
            });
        }
        if dst_off + len > dst.len() {
            return Err(Error::OutOfBounds {
                index: dst_off + len,
                len: dst.len(),
            });
        }
        for i in 0..len {
            dst.set(dst_off + i, src.get(src_off + i));
        }
        let src_dev = self.device(src.device().0);
        let bytes = len * std::mem::size_of::<T>();
        let (dur, peer) = if src.device() == dst.device() {
            (
                2.0 * bytes as f64 / src_dev.spec().mem_bandwidth_bytes_s,
                None,
            )
        } else {
            self.shared.stats.add_d2d(bytes);
            (
                self.shared
                    .topology
                    .d2d_transfer_s(bytes, concurrent.max(1)),
                Some(self.device(dst.device().0)),
            )
        };
        let elem = std::mem::size_of::<T>() as u64;
        let (src_lo, dst_lo) = (src_off as u64 * elem, dst_off as u64 * elem);
        let copy = Command {
            peer: peer.as_deref(),
            reads: vec![AccessRange::new(src.id(), src_lo, src_lo + bytes as u64)],
            writes: vec![AccessRange::new(dst.id(), dst_lo, dst_lo + bytes as u64)],
            ..Command::new(EventKind::CopyD2D, &src_dev, EngineKind::Copy, dur, "d2d")
        };
        Ok(schedule(&self.shared, copy, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(n: usize) -> Platform {
        Platform::new(
            PlatformConfig::default()
                .devices(n)
                .spec(DeviceSpec::tiny())
                .cache_tag("platform-tests"),
        )
    }

    #[test]
    fn devices_are_enumerable() {
        let p = platform(4);
        assert_eq!(p.n_devices(), 4);
        assert_eq!(p.device(3).id().0, 3);
        assert!(p.try_device(4).is_err());
    }

    #[test]
    fn d2d_copy_moves_data_and_time() {
        let p = platform(2);
        let a = p.device(0).alloc_from(&[1.0f32, 2.0, 3.0]).unwrap();
        let b = p.device(1).alloc::<f32>(3).unwrap();
        let ev = p.copy(&a, 0, &b, 0, 3, 1, After::Device).unwrap();
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
        assert!(ev.duration_s() > 0.0);
        // Both devices observed the copy on their timelines.
        assert!(p.device(0).clock().now_s() >= ev.end_s);
        assert!(p.device(1).clock().now_s() >= ev.end_s);
        let snap = p.stats_snapshot();
        assert_eq!(snap.d2d_transfers, 1);
        assert_eq!(snap.d2d_bytes, 12);
    }

    #[test]
    fn d2d_range_copy() {
        let p = platform(2);
        let a = p.device(0).alloc_from(&[1u32, 2, 3, 4, 5, 6]).unwrap();
        let b = p.device(1).alloc::<u32>(4).unwrap();
        p.copy(&a, 2, &b, 1, 3, 1, After::Device).unwrap();
        assert_eq!(b.to_vec(), vec![0, 3, 4, 5]);
        assert!(p.copy(&a, 4, &b, 0, 3, 1, After::Device).is_err());
    }

    #[test]
    fn concurrent_transfers_take_longer_per_transfer() {
        let p = platform(4);
        let n = 1 << 20;
        let a = p.device(0).alloc::<u8>(n).unwrap();
        let b = p.device(1).alloc::<u8>(n).unwrap();
        let copy = |concurrent| {
            p.copy(&a, 0, &b, 0, n, concurrent, After::Device)
                .unwrap()
                .duration_s()
        };
        let (solo, crowded) = (copy(1), copy(4));
        assert!(crowded > solo, "bus contention must slow transfers");
    }

    #[test]
    fn sync_all_joins_the_slowest_device() {
        let p = platform(2);
        p.device(1).clock().sync_to(5.0);
        assert_eq!(p.host_now_s(), 0.0);
        p.sync_all();
        assert_eq!(p.host_now_s(), 5.0);
    }

    #[test]
    fn reset_clocks_zeroes_everything() {
        let p = platform(2);
        p.device(0).clock().sync_to(3.0);
        p.charge_host(1.0);
        p.reset_clocks();
        assert_eq!(p.host_now_s(), 0.0);
        assert_eq!(p.device(0).clock().now_s(), 0.0);
    }

    #[test]
    fn copy_on_device_moves_data_without_pcie() {
        let p = platform(1);
        let a = p.device(0).alloc_from(&[1u32, 2, 3, 4]).unwrap();
        let b = p.device(0).alloc::<u32>(3).unwrap();
        let before = p.stats_snapshot();
        let ev = p.copy(&a, 1, &b, 0, 3, 1, After::Device).unwrap();
        assert_eq!(b.to_vec(), vec![2, 3, 4]);
        assert!(ev.duration_s() > 0.0);
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0, "no PCIe traffic");
        // Bounds checks.
        assert!(p.copy(&a, 3, &b, 0, 3, 1, After::Device).is_err());
    }

    #[test]
    fn same_device_d2d_range_degrades_to_local_copy() {
        let p = platform(1);
        let a = p.device(0).alloc_from(&[5u32, 6, 7, 8]).unwrap();
        let b = p.device(0).alloc::<u32>(4).unwrap();
        let before = p.stats_snapshot();
        p.copy(&a, 0, &b, 0, 4, 1, After::Device).unwrap();
        assert_eq!(b.to_vec(), vec![5, 6, 7, 8]);
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "local copy must not cross PCIe");
    }

    #[test]
    fn mismatched_d2d_is_rejected() {
        let p = platform(2);
        let a = p.device(0).alloc::<f32>(5).unwrap();
        let b = p.device(1).alloc::<f32>(4).unwrap();
        // Copying all of `a`'s 5 elements overruns `b`.
        assert!(p.copy(&a, 0, &b, 0, a.len(), 1, After::Device).is_err());
    }
}
