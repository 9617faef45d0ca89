//! A Rust facsimile of the CUDA runtime API over the virtual platform.
//!
//! Differences from the [`crate::opencl`] module mirror the real-world
//! differences the paper leans on:
//!
//! * **Offline compilation** — kernels live in a [`CudaModule`] "compiled by
//!   nvcc"; creating one costs nothing at runtime (`DriverProfile::cuda()`
//!   charges no build time and its launches are cheaper).
//! * **Typed launch syntax** — `cuda_launch_kernel(&k, grid, block, args)`
//!   is the `<<<grid, block>>>` analogue; arguments are passed at launch,
//!   not via separate `clSetKernelArg` calls.
//! * **Per-device current context** — `cudaSetDevice` selects the device
//!   subsequent calls operate on; multi-GPU programs must juggle it (or one
//!   host thread per device, as the paper's CUDA OSEM does).

use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;
use vgpu::{
    After, Buffer, CommandQueue, CompiledKernel, DriverProfile, KernelBody, NDRange, Platform,
    Program, Region, Result, Scalar, WorkGroup,
};

/// The CUDA "current device" state: one runtime handle per host thread in
/// real CUDA; here an explicit object the application passes around.
pub struct CudaRuntime {
    platform: Platform,
    current: Mutex<usize>,
    queues: Vec<CommandQueue>,
}

impl CudaRuntime {
    /// `cudaInit`-ish: attach the runtime to a platform.
    pub fn new(platform: &Platform) -> Self {
        let queues = (0..platform.n_devices())
            .map(|d| platform.queue(d, DriverProfile::cuda()))
            .collect();
        CudaRuntime {
            platform: platform.clone(),
            current: Mutex::new(0),
            queues,
        }
    }

    /// `cudaSetDevice`.
    pub fn set_device(&self, device: usize) -> Result<()> {
        self.platform.try_device(device)?;
        *self.current.lock() = device;
        Ok(())
    }

    /// `cudaGetDevice`.
    pub fn current_device(&self) -> usize {
        *self.current.lock()
    }

    fn queue(&self) -> &CommandQueue {
        &self.queues[self.current_device()]
    }

    /// `cudaMalloc` on the current device.
    pub fn malloc<T: Scalar>(&self, len: usize) -> Result<CudaDevPtr<T>> {
        let dev = self.platform.device(self.current_device());
        Ok(CudaDevPtr {
            buffer: dev.alloc::<T>(len)?,
        })
    }

    /// `cudaMemcpy(..., cudaMemcpyHostToDevice)`.
    pub fn memcpy_h2d<T: Scalar>(&self, dst: &CudaDevPtr<T>, src: &[T]) -> Result<()> {
        let q = &self.queues[dst.buffer.device().0];
        q.enqueue_write(&dst.buffer, Region::Whole, src, 1, After::Device)?;
        Ok(())
    }

    /// `cudaMemcpy(..., cudaMemcpyDeviceToHost)`.
    pub fn memcpy_d2h<T: Scalar>(&self, dst: &mut [T], src: &CudaDevPtr<T>) -> Result<()> {
        let q = &self.queues[src.buffer.device().0];
        q.enqueue_read(&src.buffer, Region::Whole, dst, 1, true, After::Device)?;
        Ok(())
    }

    /// `cudaMemcpy` into a destination offset (pointer arithmetic on the
    /// device pointer).
    pub fn memcpy_h2d_range<T: Scalar>(
        &self,
        dst: &CudaDevPtr<T>,
        offset: usize,
        src: &[T],
    ) -> Result<()> {
        let q = &self.queues[dst.buffer.device().0];
        q.enqueue_write(&dst.buffer, Region::At(offset), src, 1, After::Device)?;
        Ok(())
    }

    /// `cudaMemcpy` from a source offset.
    pub fn memcpy_d2h_range<T: Scalar>(
        &self,
        dst: &mut [T],
        src: &CudaDevPtr<T>,
        offset: usize,
    ) -> Result<()> {
        let q = &self.queues[src.buffer.device().0];
        q.enqueue_read(&src.buffer, Region::At(offset), dst, 1, true, After::Device)?;
        Ok(())
    }

    /// `cudaMemset`-ish fill.
    pub fn memset<T: Scalar>(&self, dst: &CudaDevPtr<T>, v: T) -> Result<()> {
        self.queues[dst.buffer.device().0].enqueue_fill(&dst.buffer, v, After::Device)?;
        Ok(())
    }

    /// `cudaDeviceSynchronize` for the current device.
    pub fn device_synchronize(&self) {
        self.queue().finish();
    }

    /// Synchronize every device (join point of multi-GPU phases).
    pub fn synchronize_all(&self) {
        self.platform.sync_all();
    }

    /// The `<<<grid, block>>>` launch, 1-D.
    pub fn launch_kernel(
        &self,
        kernel: &CudaKernel,
        grid: usize,
        block: usize,
        args: CudaArgs,
    ) -> Result<()> {
        self.launch(kernel, NDRange::linear(grid * block, block), args)
    }

    /// The `<<<dim3(gx,gy), dim3(bx,by)>>>` launch, 2-D.
    pub fn launch_kernel_2d(
        &self,
        kernel: &CudaKernel,
        grid: (usize, usize),
        block: (usize, usize),
        args: CudaArgs,
    ) -> Result<()> {
        self.launch(
            kernel,
            NDRange::two_d((grid.0 * block.0, grid.1 * block.1), block),
            args,
        )
    }

    fn launch(&self, kernel: &CudaKernel, nd: NDRange, args: CudaArgs) -> Result<()> {
        let args = Arc::new(args);
        let body = Arc::clone(&kernel.body);
        let bound: KernelBody = Arc::new(move |wg: &WorkGroup| body(wg, &args));
        self.queue()
            .launch(&kernel.compiled.with_body(bound), nd, After::Device)?;
        Ok(())
    }
}

/// `T*` in device memory. Cloning copies the *pointer*, not the data —
/// CUDA device pointers are plain values.
#[derive(Clone)]
pub struct CudaDevPtr<T: Scalar> {
    buffer: Buffer<T>,
}

impl<T: Scalar> CudaDevPtr<T> {
    pub fn buffer(&self) -> &Buffer<T> {
        &self.buffer
    }

    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }
}

/// Arguments of one launch (CUDA passes them in the launch statement).
#[derive(Default)]
pub struct CudaArgs {
    slots: Vec<CudaArgValue>,
}

enum CudaArgValue {
    Scalar(Box<dyn Any + Send + Sync>),
    Ptr(Box<dyn Any + Send + Sync>),
}

impl CudaArgs {
    pub fn new() -> Self {
        CudaArgs::default()
    }

    pub fn ptr<T: Scalar>(mut self, p: &CudaDevPtr<T>) -> Self {
        self.slots
            .push(CudaArgValue::Ptr(Box::new(p.buffer.clone())));
        self
    }

    pub fn scalar<T: Scalar>(mut self, v: T) -> Self {
        self.slots.push(CudaArgValue::Scalar(Box::new(v)));
        self
    }

    /// Inside kernels: the device pointer at position `idx`.
    pub fn get_ptr<T: Scalar>(&self, idx: usize) -> &Buffer<T> {
        match &self.slots[idx] {
            CudaArgValue::Ptr(p) => p
                .downcast_ref::<Buffer<T>>()
                .expect("kernel parameter pointer type mismatch"),
            CudaArgValue::Scalar(_) => panic!("kernel parameter {idx} is a scalar"),
        }
    }

    /// Inside kernels: the scalar at position `idx`.
    pub fn get_scalar<T: Scalar>(&self, idx: usize) -> T {
        match &self.slots[idx] {
            CudaArgValue::Scalar(s) => *s
                .downcast_ref::<T>()
                .expect("kernel parameter scalar type mismatch"),
            CudaArgValue::Ptr(_) => panic!("kernel parameter {idx} is a pointer"),
        }
    }
}

/// The executable body of a `__global__` function.
pub type CudaKernelBody = Arc<dyn Fn(&WorkGroup, &CudaArgs) + Send + Sync>;

/// One `__global__` kernel of a module.
pub struct CudaKernel {
    compiled: CompiledKernel,
    body: CudaKernelBody,
}

/// An offline-compiled module (what nvcc produced at build time).
pub struct CudaModule {
    runtime_queue: CommandQueue,
}

impl CudaModule {
    /// Load the module — free at runtime (nvcc did the work offline).
    pub fn new(rt: &CudaRuntime) -> Self {
        CudaModule {
            runtime_queue: rt.queues[0].clone(),
        }
    }

    /// Register a `__global__` function: `source` is its CUDA-C text (for
    /// the program-size accounting), `body` its executable twin.
    pub fn kernel(&self, name: &str, source: &str, body: CudaKernelBody) -> Result<CudaKernel> {
        let program = Program::from_source(name, source);
        let placeholder: KernelBody =
            Arc::new(|_wg: &WorkGroup| unreachable!("module kernel body is bound at launch"));
        let (compiled, _) = self.runtime_queue.build_kernel(&program, placeholder)?;
        Ok(CudaKernel { compiled, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{DeviceSpec, PlatformConfig};

    fn platform(n: usize) -> Platform {
        Platform::new(
            PlatformConfig::default()
                .devices(n)
                .spec(DeviceSpec::tiny())
                .cache_tag("baseline-cuda-tests"),
        )
    }

    #[test]
    fn cuda_workflow_vector_add() {
        let platform = platform(1);
        let rt = CudaRuntime::new(&platform);
        rt.set_device(0).unwrap();

        let n = 500usize;
        let a = rt.malloc::<f32>(n).unwrap();
        let b = rt.malloc::<f32>(n).unwrap();
        let c = rt.malloc::<f32>(n).unwrap();
        let ha: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let hb: Vec<f32> = vec![10.0; n];
        rt.memcpy_h2d(&a, &ha).unwrap();
        rt.memcpy_h2d(&b, &hb).unwrap();

        let module = CudaModule::new(&rt);
        let add = module
            .kernel(
                "vec_add",
                "__global__ void vec_add(float* a, float* b, float* c, unsigned n) {\n\
                   unsigned i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   if (i < n) c[i] = a[i] + b[i];\n\
                 }",
                Arc::new(|wg: &WorkGroup, args: &CudaArgs| {
                    let a = args.get_ptr::<f32>(0);
                    let b = args.get_ptr::<f32>(1);
                    let c = args.get_ptr::<f32>(2);
                    let n = args.get_scalar::<u32>(3) as usize;
                    wg.for_each_item(|it| {
                        if !it.in_bounds() {
                            return;
                        }
                        let i = it.global_id(0);
                        if i < n {
                            let v = it.read(a, i) + it.read(b, i);
                            it.write(c, i, v);
                            it.work(1);
                        }
                    });
                }),
            )
            .unwrap();

        let block = 128usize;
        let grid = n.div_ceil(block);
        rt.launch_kernel(
            &add,
            grid,
            block,
            CudaArgs::new().ptr(&a).ptr(&b).ptr(&c).scalar(n as u32),
        )
        .unwrap();
        rt.device_synchronize();

        let mut out = vec![0.0f32; n];
        rt.memcpy_d2h(&mut out, &c).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 10.0);
        }
    }

    #[test]
    fn module_load_is_free_no_runtime_compiles() {
        let platform = platform(1);
        let rt = CudaRuntime::new(&platform);
        let module = CudaModule::new(&rt);
        let before = platform.stats_snapshot();
        let t0 = platform.host_now_s();
        module
            .kernel(
                "k",
                "__global__ void k() {}",
                Arc::new(|_: &WorkGroup, _: &CudaArgs| {}),
            )
            .unwrap();
        assert_eq!(platform.host_now_s(), t0, "nvcc compiled offline");
        let delta = platform.stats_snapshot() - before;
        assert_eq!(delta.source_builds, 0);
        assert_eq!(delta.cache_loads, 0);
    }

    #[test]
    fn set_device_routes_allocations() {
        let platform = platform(2);
        let rt = CudaRuntime::new(&platform);
        rt.set_device(1).unwrap();
        let p = rt.malloc::<f32>(16).unwrap();
        assert_eq!(p.buffer().device().0, 1);
        assert!(rt.set_device(5).is_err());
    }

    #[test]
    fn multi_gpu_with_host_threads() {
        // The paper: "In CUDA, we have to create one CPU thread for each
        // device to be managed."
        let platform = platform(2);
        let rt = Arc::new(CudaRuntime::new(&platform));
        let module = CudaModule::new(&rt);
        let fill = Arc::new(
            module
                .kernel(
                    "fill7",
                    "__global__ void fill7(float* p, unsigned n) { \
                       unsigned i = blockIdx.x*blockDim.x+threadIdx.x; if (i<n) p[i] = 7.0f; }",
                    Arc::new(|wg: &WorkGroup, args: &CudaArgs| {
                        let p = args.get_ptr::<f32>(0);
                        let n = args.get_scalar::<u32>(1) as usize;
                        wg.for_each_item(|it| {
                            if it.in_bounds() && it.global_id(0) < n {
                                it.write(p, it.global_id(0), 7.0);
                                it.work(1);
                            }
                        });
                    }),
                )
                .unwrap(),
        );

        let handles: Vec<_> = (0..2)
            .map(|d| {
                let platform = platform.clone();
                let fill = Arc::clone(&fill);
                std::thread::spawn(move || {
                    // Each host thread owns its own runtime handle, as real
                    // multi-GPU CUDA code of that era did.
                    let rt = CudaRuntime::new(&platform);
                    rt.set_device(d).unwrap();
                    let p = rt.malloc::<f32>(64).unwrap();
                    rt.launch_kernel(&fill, 1, 64, CudaArgs::new().ptr(&p).scalar(64u32))
                        .unwrap();
                    rt.device_synchronize();
                    let mut out = vec![0.0f32; 64];
                    rt.memcpy_d2h(&mut out, &p).unwrap();
                    assert!(out.iter().all(|&v| v == 7.0));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
