//! Passing additional arguments to skeletons (paper Section III-C).
//!
//! *"SkelCL allows the user to pass an arbitrary number of arguments to the
//! function called inside of a skeleton [...] The additional argument is
//! packaged into an `Arguments` object that is passed to the skeleton. [...]
//! It is particularly easy to pass vectors as arguments because no
//! information about the size has to be provided. The arguments will be
//! passed to the skeleton in the same order in which they are added to the
//! `Arguments` object."*
//!
//! Scalars are captured by value; vectors are captured as handles and
//! resolved **per device** at launch time: a `Block`-distributed vector
//! argument resolves to the executing device's local part, a `Copy`/`Single`
//! vector to the full local buffer — which is what makes the OSEM kernel
//! (reading the event block, scatter-adding into the replicated error
//! image) expressible.

use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;
use std::any::Any;
use std::sync::Arc;
use vgpu::{Buffer, Item, Scalar};

/// Type-erased scalar slot.
#[doc(hidden)]
pub trait AnyScalarArg: Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn type_name(&self) -> &'static str;
}

struct ScalarHolder<T: Scalar>(T);

impl<T: Scalar> AnyScalarArg for ScalarHolder<T> {
    fn as_any(&self) -> &dyn Any {
        &self.0
    }
    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }
}

/// Type-erased vector slot: resolves to a device-local buffer at launch.
#[doc(hidden)]
pub trait AnyVectorArg: Send + Sync {
    fn ensure_on_devices(&self) -> Result<()>;
    /// `(buffer as Any, local_len)` for the executing device.
    fn resolve(&self, device: usize) -> Result<(Box<dyn Any + Send + Sync>, usize)>;
    fn global_len(&self) -> usize;
    fn type_name(&self) -> &'static str;
}

impl<T: Scalar> AnyVectorArg for Vector<T> {
    fn ensure_on_devices(&self) -> Result<()> {
        Vector::ensure_on_devices(self)
    }

    fn resolve(&self, device: usize) -> Result<(Box<dyn Any + Send + Sync>, usize)> {
        let parts = self.parts()?;
        let part = parts.iter().find(|p| p.device == device).ok_or_else(|| {
            Error::BadArgument(format!(
                "vector argument has no data on device {device} under {:?}",
                self.distribution()
            ))
        })?;
        Ok((Box::new(part.buffer.clone()), part.rows))
    }

    fn global_len(&self) -> usize {
        self.len()
    }

    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }
}

/// Type-erased matrix slot: resolves to this device's row span at launch.
#[doc(hidden)]
pub trait AnyMatrixArg: Send + Sync {
    fn ensure_on_devices(&self) -> Result<()>;
    /// `(buffer as Any, cols, span_rows, first_span_global_row, n_rows)`
    /// for the executing device.
    fn resolve(&self, device: usize) -> Result<(Box<dyn Any + Send + Sync>, MatrixArgMeta)>;
    fn type_name(&self) -> &'static str;
}

/// Geometry of one device's view of a matrix argument.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct MatrixArgMeta {
    /// Matrix width (global).
    pub cols: usize,
    pub span_rows: usize,
    /// Global row held by span row 0.
    pub row_offset: usize,
    /// Rows stored above the owned block (wrapped at matrix edges).
    pub halo_above: usize,
    pub n_rows: usize,
    /// First column held by this part (0 for row-based distributions).
    pub col_offset: usize,
    /// Columns held by this part — also the buffer's row stride (equals
    /// `cols` for full-width parts, a column slice under `ColBlock`).
    pub span_cols: usize,
}

impl<T: Scalar> AnyMatrixArg for Matrix<T> {
    fn ensure_on_devices(&self) -> Result<()> {
        Matrix::ensure_on_devices(self)
    }

    fn resolve(&self, device: usize) -> Result<(Box<dyn Any + Send + Sync>, MatrixArgMeta)> {
        let parts = self.parts_with_fresh_halos()?;
        let part = parts
            .iter()
            .find(|p| p.device == device && p.rows > 0 && p.cols > 0)
            .ok_or_else(|| {
                Error::BadArgument(format!(
                    "matrix argument has no data on device {device} under {:?}",
                    self.distribution()
                ))
            })?;
        let meta = MatrixArgMeta {
            cols: self.cols(),
            span_rows: part.span_rows(),
            row_offset: part.row_offset,
            halo_above: part.halo_above,
            n_rows: self.rows(),
            col_offset: part.col_offset,
            span_cols: part.cols,
        };
        Ok((Box::new(part.buffer.clone()), meta))
    }

    fn type_name(&self) -> &'static str {
        T::TYPE_NAME
    }
}

#[doc(hidden)]
pub enum Slot {
    Scalar(Arc<dyn AnyScalarArg>),
    Vector(Arc<dyn AnyVectorArg>),
    Matrix(Arc<dyn AnyMatrixArg>),
}

impl Clone for Slot {
    fn clone(&self) -> Self {
        match self {
            Slot::Scalar(s) => Slot::Scalar(Arc::clone(s)),
            Slot::Vector(v) => Slot::Vector(Arc::clone(v)),
            Slot::Matrix(m) => Slot::Matrix(Arc::clone(m)),
        }
    }
}

/// Converts values into argument slots; implemented for every [`Scalar`]
/// and for vectors, so `args.push(x)` works uniformly as in the paper.
pub trait IntoArg {
    fn into_slot(self) -> Slot;
}

impl<T: Scalar> IntoArg for T {
    fn into_slot(self) -> Slot {
        Slot::Scalar(Arc::new(ScalarHolder(self)))
    }
}

impl<T: Scalar> IntoArg for &Vector<T> {
    fn into_slot(self) -> Slot {
        Slot::Vector(Arc::new(self.clone()))
    }
}

impl<T: Scalar> IntoArg for Vector<T> {
    fn into_slot(self) -> Slot {
        Slot::Vector(Arc::new(self))
    }
}

impl<T: Scalar> IntoArg for &Matrix<T> {
    fn into_slot(self) -> Slot {
        Slot::Matrix(Arc::new(self.clone()))
    }
}

impl<T: Scalar> IntoArg for Matrix<T> {
    fn into_slot(self) -> Slot {
        Slot::Matrix(Arc::new(self))
    }
}

/// The ordered collection of extra arguments for one skeleton call.
#[derive(Clone, Default)]
pub struct Arguments {
    slots: Vec<Slot>,
}

impl Arguments {
    pub fn new() -> Self {
        Arguments::default()
    }

    /// Append an argument; order must match the customizing function's
    /// expectations (position-indexed access), exactly as in the paper.
    pub fn push(&mut self, arg: impl IntoArg) -> &mut Self {
        self.slots.push(arg.into_slot());
        self
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Upload every vector argument per its current distribution (the
    /// implicit transfers of Section III-A apply to arguments too).
    pub(crate) fn ensure_on_devices(&self) -> Result<()> {
        for s in &self.slots {
            match s {
                Slot::Vector(v) => v.ensure_on_devices()?,
                Slot::Matrix(m) => m.ensure_on_devices()?,
                Slot::Scalar(_) => {}
            }
        }
        Ok(())
    }

    /// Resolve all slots for the executing device.
    pub(crate) fn resolve(&self, device: usize) -> Result<ResolvedArgs> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            slots.push(match s {
                Slot::Scalar(sc) => ResolvedSlot::Scalar(Arc::clone(sc)),
                Slot::Vector(v) => {
                    let (buf, len) = v.resolve(device)?;
                    ResolvedSlot::Buffer {
                        buf: buf.into(),
                        len,
                        type_name: v.type_name(),
                    }
                }
                Slot::Matrix(m) => {
                    let (buf, meta) = m.resolve(device)?;
                    ResolvedSlot::Matrix {
                        buf: buf.into(),
                        meta,
                        type_name: m.type_name(),
                    }
                }
            });
        }
        Ok(ResolvedArgs { slots })
    }
}

impl std::fmt::Debug for Arguments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Arguments[{} slots]", self.slots.len())
    }
}

pub(crate) enum ResolvedSlot {
    Scalar(Arc<dyn AnyScalarArg>),
    Buffer {
        buf: Arc<dyn Any + Send + Sync>,
        len: usize,
        type_name: &'static str,
    },
    Matrix {
        buf: Arc<dyn Any + Send + Sync>,
        meta: MatrixArgMeta,
        type_name: &'static str,
    },
}

/// The per-device view of an [`Arguments`] object, held by kernel bodies.
pub(crate) struct ResolvedArgs {
    slots: Vec<ResolvedSlot>,
}

/// What a customizing function sees besides its element input: the extra
/// arguments plus counted access to the executing work-item.
pub struct KernelEnv<'a> {
    pub(crate) item: &'a Item<'a>,
    pub(crate) args: &'a ResolvedArgs,
}

impl<'a> KernelEnv<'a> {
    /// The scalar argument at `idx`. Panics on index or type mismatch —
    /// the same failure mode as mismatched `clSetKernelArg` calls.
    pub fn scalar<T: Scalar>(&self, idx: usize) -> T {
        match self.args.slots.get(idx) {
            Some(ResolvedSlot::Scalar(s)) => *s.as_any().downcast_ref::<T>().unwrap_or_else(|| {
                panic!(
                    "argument {idx} is a {} scalar, requested {}",
                    s.type_name(),
                    T::TYPE_NAME
                )
            }),
            Some(ResolvedSlot::Buffer { type_name, .. }) => {
                panic!("argument {idx} is a {type_name} vector, requested scalar")
            }
            Some(ResolvedSlot::Matrix { type_name, .. }) => {
                panic!("argument {idx} is a {type_name} matrix, requested scalar")
            }
            None => panic!("argument index {idx} out of range"),
        }
    }

    /// The vector argument at `idx`, as a counted device-local view.
    pub fn vec<T: Scalar>(&self, idx: usize) -> ArgVec<'_, T> {
        match self.args.slots.get(idx) {
            Some(ResolvedSlot::Buffer {
                buf,
                len,
                type_name,
            }) => {
                let buffer = buf.downcast_ref::<Buffer<T>>().unwrap_or_else(|| {
                    panic!(
                        "argument {idx} is a {type_name} vector, requested {}",
                        T::TYPE_NAME
                    )
                });
                ArgVec {
                    buf: buffer,
                    len: *len,
                    item: self.item,
                }
            }
            Some(ResolvedSlot::Scalar(s)) => {
                panic!(
                    "argument {idx} is a {} scalar, requested vector",
                    s.type_name()
                )
            }
            Some(ResolvedSlot::Matrix { type_name, .. }) => {
                panic!("argument {idx} is a {type_name} matrix, requested vector")
            }
            None => panic!("argument index {idx} out of range"),
        }
    }

    /// The matrix argument at `idx`, as a counted device-local 2D view
    /// addressed by *global* `(row, col)`. Under `RowBlock` only this
    /// device's owned-plus-halo rows are addressable; out-of-span access
    /// panics, the 2D analogue of a Block vector argument's local part.
    pub fn mat<T: Scalar>(&self, idx: usize) -> ArgMat<'_, T> {
        match self.args.slots.get(idx) {
            Some(ResolvedSlot::Matrix {
                buf,
                meta,
                type_name,
            }) => {
                let buffer = buf.downcast_ref::<Buffer<T>>().unwrap_or_else(|| {
                    panic!(
                        "argument {idx} is a {type_name} matrix, requested {}",
                        T::TYPE_NAME
                    )
                });
                ArgMat {
                    buf: buffer,
                    meta: *meta,
                    item: self.item,
                }
            }
            Some(ResolvedSlot::Scalar(s)) => {
                panic!(
                    "argument {idx} is a {} scalar, requested matrix",
                    s.type_name()
                )
            }
            Some(ResolvedSlot::Buffer { type_name, .. }) => {
                panic!("argument {idx} is a {type_name} vector, requested matrix")
            }
            None => panic!("argument index {idx} out of range"),
        }
    }

    /// Report dynamic arithmetic work (equivalent to [`crate::work`] but
    /// charged directly to the item, bypassing the meter).
    pub fn work(&self, ops: u64) {
        self.item.work(ops);
    }

    /// Charge extra read traffic for uncoalesced access (full memory
    /// segments; see [`vgpu::Item::traffic_read`]).
    pub fn traffic_read(&self, bytes: usize) {
        self.item.traffic_read(bytes);
    }

    /// Charge extra write traffic for uncoalesced access.
    pub fn traffic_write(&self, bytes: usize) {
        self.item.traffic_write(bytes);
    }

    /// The executing work-item (IDs etc.).
    pub fn item(&self) -> &Item<'a> {
        self.item
    }
}

/// Device-local view of a vector argument with traffic-counted access.
pub struct ArgVec<'a, T: Scalar> {
    buf: &'a Buffer<T>,
    len: usize,
    item: &'a Item<'a>,
}

impl<'a, T: Scalar> ArgVec<'a, T> {
    /// The *device-local* length (a Block-distributed argument exposes just
    /// this device's part).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counted load.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.item.read(self.buf, i)
    }

    /// Counted store.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        self.item.write(self.buf, i, v)
    }
}

impl<'a> ArgVec<'a, f32> {
    /// Counted atomic add — the operation the paper's OSEM kernel uses to
    /// accumulate the error image.
    #[inline]
    pub fn atomic_add(&self, i: usize, v: f32) {
        self.item.atomic_add_f32(self.buf, i, v);
    }
}

impl<'a> ArgVec<'a, u32> {
    /// Counted atomic add; returns the previous value.
    #[inline]
    pub fn atomic_add(&self, i: usize, v: u32) -> u32 {
        self.item.atomic_add_u32(self.buf, i, v)
    }
}

/// Device-local 2D view of a matrix argument with traffic-counted access.
pub struct ArgMat<'a, T: Scalar> {
    buf: &'a Buffer<T>,
    meta: MatrixArgMeta,
    item: &'a Item<'a>,
}

impl<'a, T: Scalar> ArgMat<'a, T> {
    /// Matrix width.
    pub fn cols(&self) -> usize {
        self.meta.cols
    }

    /// Matrix height (global).
    pub fn rows(&self) -> usize {
        self.meta.n_rows
    }

    /// Rows addressable on this device (owned + halos).
    pub fn span_rows(&self) -> usize {
        self.meta.span_rows
    }

    /// Columns addressable on this device (the full width for row-based
    /// distributions, this part's column block under `ColBlock`).
    pub fn span_cols(&self) -> usize {
        self.meta.span_cols
    }

    /// First addressable column on this device.
    pub fn col_offset(&self) -> usize {
        self.meta.col_offset
    }

    fn span_index(&self, row: usize, col: usize) -> usize {
        assert!(
            col < self.meta.cols,
            "matrix argument column {col} out of range"
        );
        assert!(
            row < self.meta.n_rows,
            "matrix argument row {row} out of range"
        );
        // Columns are addressed globally; only this part's column block is
        // resident — the column analogue of the span-row check below.
        let lc = col.wrapping_sub(self.meta.col_offset);
        assert!(
            lc < self.meta.span_cols,
            "matrix argument column {col} not on this device (cols {}..{})",
            self.meta.col_offset,
            self.meta.col_offset + self.meta.span_cols
        );
        // Span rows hold consecutive global rows (mod n_rows) starting
        // `halo_above` above `row_offset`.
        let n = self.meta.n_rows;
        let first = (self.meta.row_offset + n - self.meta.halo_above.min(n)) % n;
        let s = (row + n - first) % n;
        assert!(
            s < self.meta.span_rows,
            "matrix argument row {row} not on this device (span {} rows from {first})",
            self.meta.span_rows
        );
        s * self.meta.span_cols + lc
    }

    /// Counted load at global `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.item.read(self.buf, self.span_index(row, col))
    }

    /// Counted store at global `(row, col)`.
    #[inline]
    pub fn set(&self, row: usize, col: usize, v: T) {
        self.item.write(self.buf, self.span_index(row, col), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Context, ContextConfig};
    use crate::vector::Distribution;

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("skelcl-args-tests"),
        )
    }

    #[test]
    fn push_preserves_order_and_kinds() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, vec![1.0f32, 2.0]);
        let mut args = Arguments::new();
        args.push(5u32).push(&v).push(2.5f32);
        assert_eq!(args.len(), 3);
        let resolved = args.resolve(0).unwrap();
        assert!(matches!(resolved.slots[0], ResolvedSlot::Scalar(_)));
        assert!(matches!(resolved.slots[1], ResolvedSlot::Buffer { .. }));
        assert!(matches!(resolved.slots[2], ResolvedSlot::Scalar(_)));
    }

    #[test]
    fn block_vector_argument_resolves_to_local_part() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, (0..10).map(|i| i as f32).collect());
        v.set_distribution(Distribution::Block).unwrap();
        let mut args = Arguments::new();
        args.push(&v);
        args.ensure_on_devices().unwrap();
        let r0 = args.resolve(0).unwrap();
        let r1 = args.resolve(1).unwrap();
        match (&r0.slots[0], &r1.slots[0]) {
            (ResolvedSlot::Buffer { len: l0, .. }, ResolvedSlot::Buffer { len: l1, .. }) => {
                assert_eq!(*l0, 5);
                assert_eq!(*l1, 5);
            }
            _ => panic!("expected buffers"),
        }
    }

    #[test]
    fn single_vector_argument_fails_on_other_devices() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, vec![1.0f32; 4]);
        v.set_distribution(Distribution::Single(0)).unwrap();
        let mut args = Arguments::new();
        args.push(&v);
        args.ensure_on_devices().unwrap();
        assert!(args.resolve(0).is_ok());
        assert!(args.resolve(1).is_err());
    }

    #[test]
    fn matrix_argument_resolves_to_local_span() {
        let c = ctx(2);
        let m = Matrix::from_fn(&c, 6, 4, |r, c| (r * 10 + c) as f32);
        m.set_distribution(crate::MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let mut args = Arguments::new();
        args.push(&m);
        args.ensure_on_devices().unwrap();
        for d in 0..2 {
            let r = args.resolve(d).unwrap();
            match &r.slots[0] {
                ResolvedSlot::Matrix { meta, .. } => {
                    assert_eq!(meta.cols, 4);
                    assert_eq!(meta.n_rows, 6);
                    assert_eq!(meta.span_rows, 5, "3 owned + halo above/below");
                }
                _ => panic!("expected matrix slot"),
            }
        }
    }

    #[test]
    fn matrix_argument_is_readable_from_a_kernel() {
        // A Copy-distributed lookup table addressed by global (row, col)
        // from a Map kernel — the 2D analogue of the vector gather test.
        let c = ctx(2);
        let table = Matrix::from_fn(&c, 4, 4, |r, col| (r * 4 + col) as f32);
        table
            .set_distribution(crate::MatrixDistribution::Copy)
            .unwrap();
        let gather = crate::UserFn::new(
            "gather2d",
            "float gather2d(uint i, __global float* t, uint cols) { return t[(i/4)*cols + i%4]; }",
            |i: u32, env: &KernelEnv<'_>| {
                let t = env.mat::<f32>(0);
                t.get(i as usize / 4, i as usize % 4)
            },
        );
        let m = crate::MapArgs::new(gather, 1);
        let idx = crate::Vector::from_vec(&c, (0..16u32).rev().collect());
        let mut args = Arguments::new();
        args.push(&table);
        let out = m.apply(&idx, &args).unwrap();
        let want: Vec<f32> = (0..16).rev().map(|i| i as f32).collect();
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn copy_vector_argument_resolves_everywhere() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, vec![7u32; 6]);
        v.set_distribution(Distribution::Copy).unwrap();
        let mut args = Arguments::new();
        args.push(&v);
        args.ensure_on_devices().unwrap();
        for d in 0..3 {
            let r = args.resolve(d).unwrap();
            match &r.slots[0] {
                ResolvedSlot::Buffer { len, .. } => assert_eq!(*len, 6),
                _ => panic!("expected buffer"),
            }
        }
    }
}
