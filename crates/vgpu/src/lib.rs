//! # vgpu — a virtual OpenCL-like multi-GPU platform
//!
//! This crate is the **substrate** of the SkelCL reproduction: a software
//! model of the OpenCL platform the paper runs on (a host with one or more
//! GPU-like devices), faithful enough that everything the paper evaluates —
//! lazy host↔device transfers, multi-device data distribution, runtime kernel
//! compilation with an on-disk binary cache, work-group execution with
//! barriers and local memory — runs **for real**, while wall-clock-independent
//! *virtual time* is accounted by an explicit cost model.
//!
//! ## Execution model
//!
//! A [`Device`] consists of `compute_units` CUs, each with `pes_per_cu`
//! processing elements executing 32-lane warps in lock-step. Kernels are
//! launched over an [`NDRange`] of work-items organised into work-groups.
//! Each work-group executes as one sequential task on a host thread (the
//! classic "loop fission" technique used by CPU OpenCL implementations):
//! the kernel body iterates over the group's items with
//! [`WorkGroup::for_each_item`], and [`WorkGroup::barrier`] separates phases.
//! Work-groups are assigned round-robin to virtual CUs; the kernel's virtual
//! duration is the maximum per-CU queue length under a roofline model
//! (compute cycles with warp divergence vs. global-memory traffic).
//!
//! ## Virtual time
//!
//! Every device owns a dual-engine timeline (independent compute and copy
//! clocks, seconds, f64) and the host owns a clock of its own. Commands
//! enqueued on a [`CommandQueue`] advance their engine's clock by their
//! modeled duration; `finish()` synchronises the host clock to the device.
//! Two devices enqueued back-to-back overlap in virtual time even though
//! the simulation executes them one after the other — this is what makes
//! the multi-GPU speedup experiments (paper Fig. 2) meaningful on a CPU.
//! Every command kind has one entry point — write, read, fill, launch,
//! and [`Platform::copy`] — taking an [`After`] dependency policy. Under
//! [`After::Device`] a command serializes against everything prior on its
//! device (the pre-stream behaviour); under [`After::Events`] it waits only
//! for the listed [`Event`]s, so a transfer can run on the copy engine
//! *under* a kernel on the compute engine — see [`timing`] for the
//! scheduling rule and [`queue`] for the API.
//!
//! The model's constants live in [`timing::DriverProfile`] (one profile per
//! runtime flavour: OpenCL, CUDA, and SkelCL-over-OpenCL) and
//! [`DeviceSpec`] (one per device type; the default is a Tesla-C1060-like
//! device matching the paper's Tesla S1070 blades). There are **no
//! per-experiment fudge factors**: all workloads share the same constants.
//!
//! ## Quick example
//!
//! ```
//! use vgpu::{After, NDRange, Platform, PlatformConfig, Region};
//!
//! let platform = Platform::new(PlatformConfig::default().devices(1));
//! let dev = platform.device(0);
//! let queue = platform.queue(0, vgpu::timing::DriverProfile::opencl());
//!
//! let buf = dev.alloc::<f32>(1024).unwrap();
//! queue.enqueue_write(&buf, Region::Whole, &vec![1.0f32; 1024], 1, After::Device).unwrap();
//!
//! let program = vgpu::Program::from_source("square", "__kernel void square(__global float* x) { ... }");
//! let (kernel, _) = queue.build_kernel(&program, {
//!     let buf = buf.clone();
//!     std::sync::Arc::new(move |wg: &vgpu::WorkGroup| {
//!         wg.for_each_item(|item| {
//!             if !item.in_bounds() { return; }
//!             let i = item.global_id(0);
//!             let v = item.read(&buf, i);
//!             item.write(&buf, i, v * v);
//!             item.work(1);
//!         });
//!     })
//! }).unwrap();
//!
//! // Device-serializing: the kernel waits for everything before it.
//! let done = queue.launch(&kernel, NDRange::linear(1024, 256), After::Device).unwrap();
//! // Event-ordered: the blocking read waits only for the kernel's event.
//! let mut out = vec![0.0f32; 1024];
//! queue.enqueue_read(&buf, Region::Whole, &mut out, 1, true, After::Events(&[done])).unwrap();
//! assert!(out.iter().all(|&v| v == 1.0));
//! ```

pub mod buffer;
pub mod compiler;
pub mod device;
pub mod error;
pub mod exec;
pub mod kernel;
pub mod local;
pub mod platform;
pub mod pool;
pub mod profiling;
pub mod queue;
pub mod timing;
pub mod topology;
pub mod types;

pub use buffer::Buffer;
pub use compiler::{BuildOutcome, CompiledKernel, Program};
pub use device::{Device, DeviceSpec, DeviceTimeline};
pub use error::{Error, Result};
pub use exec::{AccessSummary, LaunchStats};
pub use kernel::{Item, KernelBody, NDRange, WorkGroup};
pub use local::LocalBuf;
pub use platform::{Platform, PlatformConfig};
pub use profiling::{
    compute_copy_overlap_s, engine_usage, trace_window, verify_engine_exclusive,
    verify_engine_utilization, AccessRange, CmdKind, CommandObserver, CommandRecord, EngineUsage,
    StatsSnapshot,
};
pub use queue::{After, CommandQueue, Event, EventKind, Region};
pub use timing::{DriverProfile, EngineKind};
pub use types::{BufferId, DeviceId, Scalar};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        Buffer, CommandQueue, Device, DeviceId, DeviceSpec, DriverProfile, Error, Item, NDRange,
        Platform, PlatformConfig, Program, Result, Scalar, WorkGroup,
    };
}
