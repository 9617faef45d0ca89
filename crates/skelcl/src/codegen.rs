//! OpenCL-C source generation: merging user functions into skeleton
//! templates.
//!
//! The paper (Section III): *"SkelCL generates OpenCL code (kernel
//! functions) from skeletons which is then compiled by OpenCL at runtime.
//! User-defined customizing functions passed to the skeletons are merged
//! with pre-implemented skeleton code during code generation. Since OpenCL
//! is not able to pass function pointers to GPU functions, user-defined
//! functions are passed as strings in SkelCL."*
//!
//! In this Rust reproduction every customizing function is a **twin**: an
//! OpenCL-C-style source string (driving code generation, the binary cache
//! and the LoC experiments) plus a Rust closure (driving execution). The
//! [`crate::skel_fn!`] macro produces both from a single definition, so user
//! code still writes the function exactly once, as in the paper's Listing 1.

use vgpu::Program;

/// A customizing function: name + source string + executable twin.
///
/// `F` is the Rust closure type; its call signature is fixed by the
/// skeleton that consumes the function (unary for Map, binary for
/// Zip/Reduce/Scan, ...).
#[derive(Clone)]
pub struct UserFn<F> {
    name: String,
    source: String,
    /// Issue-cost estimate for one call, derived from the source text.
    static_ops: u64,
    f: F,
}

impl<F> UserFn<F> {
    /// Build from an explicit name, source string and closure — the direct
    /// analogue of SkelCL's plain-string constructor:
    /// `Zip<float> mult("float mult(float x,float y){return x*y;}")`.
    pub fn new(name: impl Into<String>, source: impl Into<String>, f: F) -> Self {
        let name = name.into();
        let source = source.into();
        let static_ops = estimate_static_ops(&source);
        UserFn {
            name,
            source,
            static_ops,
            f,
        }
    }

    /// The function's name, spliced into kernel templates as the call site.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's source string.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Static per-call cost estimate (see [`estimate_static_ops`]).
    pub fn static_ops(&self) -> u64 {
        self.static_ops
    }

    /// The executable twin.
    pub fn func(&self) -> &F {
        &self.f
    }

    /// Override the static cost estimate (test-only: loops report their
    /// cost dynamically via [`crate::work`]).
    #[cfg(test)]
    fn with_static_ops(mut self, ops: u64) -> Self {
        self.static_ops = ops;
        self
    }
}

impl<F> std::fmt::Debug for UserFn<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserFn")
            .field("name", &self.name)
            .field("static_ops", &self.static_ops)
            .field("source_len", &self.source.len())
            .finish()
    }
}

/// Defines a customizing function once, yielding both its executable Rust
/// form and its source string (the paper passes the latter to the skeleton
/// constructors).
///
/// ```
/// let mult = skelcl::skel_fn!(fn mult(x: f32, y: f32) -> f32 { x * y });
/// assert_eq!(mult.name(), "mult");
/// assert!(mult.source().contains("x * y"));
/// assert_eq!((mult.func())(3.0, 4.0), 12.0);
/// ```
#[macro_export]
macro_rules! skel_fn {
    (fn $name:ident ( $($arg:ident : $at:ty),* $(,)? ) -> $rt:ty $body:block) => {{
        fn $name($($arg: $at),*) -> $rt $body
        $crate::UserFn::new(
            stringify!($name),
            stringify!(fn $name($($arg: $at),*) -> $rt $body),
            $name as fn($($at),*) -> $rt,
        )
    }};
}

/// Estimate the issue cost of one call of a user function from its source:
/// one unit per arithmetic/comparison token, with a floor of 1. Loops must
/// report their dynamic cost through [`crate::work`]; this static estimate
/// covers straight-line bodies like `x * y` or a saturation clamp.
pub fn estimate_static_ops(source: &str) -> u64 {
    let mut ops = 0u64;
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '-' if chars.peek() == Some(&'>') => {
                // Return-type arrow, not a subtraction.
                chars.next();
            }
            '/' if chars.peek() == Some(&'/') || chars.peek() == Some(&'*') => {
                // Comment opener, not a division.
                chars.next();
            }
            '+' | '-' | '*' | '/' | '%' => ops += 1,
            _ => {}
        }
    }
    ops.max(1)
}

/// Names a generated program uniquely: skeleton kind + user function name +
/// element types.
fn program_name(skeleton: &str, fn_name: &str, types: &[&str]) -> String {
    format!("skelcl_{}_{}_{}", skeleton, fn_name, types.join("_"))
}

/// Generate the Map skeleton program for a user function `U f(T)`.
///
/// The emitted source mirrors SkelCL's real template: the user function is
/// pasted verbatim above a wrapper kernel that applies it per work-item.
pub fn map_program(
    fn_name: &str,
    fn_source: &str,
    in_t: &str,
    out_t: &str,
    extra_args: usize,
) -> Program {
    let extras: String = (0..extra_args)
        .map(|i| format!(", __global const char* restrict arg{i}"))
        .collect();
    let source = format!(
        "// generated by SkelCL codegen: Map skeleton\n\
         {fn_source}\n\
         __kernel void skelcl_map(__global const {in_t}* restrict in,\n\
                                  __global {out_t}* restrict out,\n\
                                  const uint n{extras}) {{\n\
             uint gid = get_global_id(0);\n\
             if (gid < n) {{\n\
                 out[gid] = {fn_name}(in[gid]);\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("map", fn_name, &[in_t, out_t]), source)
        .with_arg_count(3 + extra_args)
}

/// Generate the Zip skeleton program for `U f(T1, T2)`.
pub fn zip_program(
    fn_name: &str,
    fn_source: &str,
    in1_t: &str,
    in2_t: &str,
    out_t: &str,
    extra_args: usize,
) -> Program {
    let extras: String = (0..extra_args)
        .map(|i| format!(", __global const char* restrict arg{i}"))
        .collect();
    let source = format!(
        "// generated by SkelCL codegen: Zip skeleton\n\
         {fn_source}\n\
         __kernel void skelcl_zip(__global const {in1_t}* restrict lhs,\n\
                                  __global const {in2_t}* restrict rhs,\n\
                                  __global {out_t}* restrict out,\n\
                                  const uint n{extras}) {{\n\
             uint gid = get_global_id(0);\n\
             if (gid < n) {{\n\
                 out[gid] = {fn_name}(lhs[gid], rhs[gid]);\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("zip", fn_name, &[in1_t, in2_t, out_t]), source)
        .with_arg_count(4 + extra_args)
}

/// Generate the two-level Reduce skeleton program for an associative
/// `T f(T, T)` (paper Section III-B: intermediate results in local memory).
pub fn reduce_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: Reduce skeleton (local-memory tree)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce(__global const {t}* restrict in,\n\
                                     __global {t}* restrict partials,\n\
                                     const uint n,\n\
                                     __local {t}* scratch) {{\n\
             uint gid = get_global_id(0);\n\
             uint lid = get_local_id(0);\n\
             uint group = get_group_id(0);\n\
             uint lsize = get_local_size(0);\n\
             scratch[lid] = (gid < n) ? in[gid] : ({t})0;\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             for (uint s = lsize / 2; s > 0; s >>= 1) {{\n\
                 if (lid < s) {{\n\
                     scratch[lid] = {fn_name}(scratch[lid], scratch[lid + s]);\n\
                 }}\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
             }}\n\
             if (lid == 0) partials[group] = scratch[0];\n\
         }}\n"
    );
    Program::from_source(program_name("reduce", fn_name, &[t]), source).with_arg_count(4)
}

/// Generate the Scan skeleton program: work-efficient Blelloch scan with
/// bank-conflict-avoiding padding (modified from Harris et al., GPU Gems 3
/// ch. 39, as the paper states).
pub fn scan_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: Scan skeleton (Blelloch, CONFLICT_FREE_OFFSET)\n\
         #define CONFLICT_FREE_OFFSET(i) ((i) + ((i) >> 4))\n\
         {fn_source}\n\
         __kernel void skelcl_scan_block(__global const {t}* restrict in,\n\
                                         __global {t}* restrict out,\n\
                                         __global {t}* restrict block_sums,\n\
                                         const uint n,\n\
                                         const {t} identity,\n\
                                         __local {t}* temp) {{\n\
             uint lid = get_local_id(0);\n\
             uint group = get_group_id(0);\n\
             uint lsize = get_local_size(0);\n\
             uint base = group * lsize * 2;\n\
             uint ai = lid, bi = lid + lsize;\n\
             temp[CONFLICT_FREE_OFFSET(ai)] = (base + ai < n) ? in[base + ai] : identity;\n\
             temp[CONFLICT_FREE_OFFSET(bi)] = (base + bi < n) ? in[base + bi] : identity;\n\
             uint offset = 1;\n\
             for (uint d = lsize; d > 0; d >>= 1) {{ // up-sweep\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 if (lid < d) {{\n\
                     uint i = offset * (2 * lid + 1) - 1;\n\
                     uint j = offset * (2 * lid + 2) - 1;\n\
                     temp[CONFLICT_FREE_OFFSET(j)] = {fn_name}(temp[CONFLICT_FREE_OFFSET(i)], temp[CONFLICT_FREE_OFFSET(j)]);\n\
                 }}\n\
                 offset <<= 1;\n\
             }}\n\
             if (lid == 0) {{\n\
                 block_sums[group] = temp[CONFLICT_FREE_OFFSET(2 * lsize - 1)];\n\
                 temp[CONFLICT_FREE_OFFSET(2 * lsize - 1)] = identity;\n\
             }}\n\
             for (uint d = 1; d <= lsize; d <<= 1) {{ // down-sweep\n\
                 offset >>= 1;\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 if (lid < d) {{\n\
                     uint i = offset * (2 * lid + 1) - 1;\n\
                     uint j = offset * (2 * lid + 2) - 1;\n\
                     {t} tmp = temp[CONFLICT_FREE_OFFSET(i)];\n\
                     temp[CONFLICT_FREE_OFFSET(i)] = temp[CONFLICT_FREE_OFFSET(j)];\n\
                     temp[CONFLICT_FREE_OFFSET(j)] = {fn_name}(tmp, temp[CONFLICT_FREE_OFFSET(j)]);\n\
                 }}\n\
             }}\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             if (base + ai < n) out[base + ai] = temp[CONFLICT_FREE_OFFSET(ai)];\n\
             if (base + bi < n) out[base + bi] = temp[CONFLICT_FREE_OFFSET(bi)];\n\
         }}\n\
         __kernel void skelcl_scan_add_offsets(__global {t}* restrict data,\n\
                                               __global const {t}* restrict offsets,\n\
                                               const uint n) {{\n\
             uint gid = get_global_id(0);\n\
             if (gid < n) data[gid] = {fn_name}(offsets[get_group_id(0) / 2], data[gid]);\n\
         }}\n"
    );
    Program::from_source(program_name("scan", fn_name, &[t]), source).with_arg_count(6)
}

/// The index-resolution snippet of `stencil_at` for one boundary mode:
/// `neumann` clamps, `wrap` is toroidal, `zero` returns the element type's
/// zero before indexing.
fn stencil_boundary_resolve(boundary: &str, in_t: &str) -> String {
    match boundary {
        "neumann" => "int rr = clamp(row + dr, 0, (int)n_rows - 1);\n\
                      int cc = clamp(col + dc, 0, (int)n_cols - 1);"
            .to_string(),
        "wrap" => "int rr = (row + dr + n_rows) % n_rows;\n\
                   int cc = (col + dc + n_cols) % n_cols;"
            .to_string(),
        _ => format!(
            "int rr = row + dr; int cc = col + dc;\n\
             if (rr < 0 || rr >= (int)n_rows || cc < 0 || cc >= (int)n_cols)\n\
                 return ({in_t})0;"
        ),
    }
}

/// Generate the row-segmented 2D Reduce program behind
/// [`crate::ReduceRows`]: one work-item per matrix row folds that row's
/// column segment in **ascending column order** from a seed — the identity
/// on the first (or only) segment, the previous segment's per-row partial
/// when column-block parts are chained. The fixed fold order is what makes
/// the result bit-identical across device counts and distributions.
pub fn reduce_rows_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: ReduceRows skeleton (row-segmented fold)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce_rows(__global const {t}* restrict in,\n\
                                          __global const {t}* restrict seed,\n\
                                          __global {t}* restrict out,\n\
                                          const uint n_rows,\n\
                                          const uint n_cols,\n\
                                          const uint row_stride,\n\
                                          const uint has_seed,\n\
                                          const {t} identity) {{\n\
             uint row = get_global_id(0);\n\
             if (row < n_rows) {{\n\
                 {t} acc = has_seed ? seed[row] : identity;\n\
                 for (uint c = 0; c < n_cols; ++c) {{\n\
                     acc = {fn_name}(acc, in[row * row_stride + c]);\n\
                 }}\n\
                 out[row] = acc;\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("reduce_rows", fn_name, &[t]), source).with_arg_count(8)
}

/// Generate the column-strided 2D Reduce program behind
/// [`crate::ReduceCols`]: one work-item per matrix column folds that
/// column's row segment in **ascending row order** from a seed (identity,
/// or the previous row-block's per-column partial when parts are chained).
/// Reads stride by the part's row pitch — the column-strided twin of
/// [`reduce_rows_program`], with its own cache key.
pub fn reduce_cols_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: ReduceCols skeleton (column-strided fold)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce_cols(__global const {t}* restrict in,\n\
                                          __global const {t}* restrict seed,\n\
                                          __global {t}* restrict out,\n\
                                          const uint n_rows,\n\
                                          const uint n_cols,\n\
                                          const uint row_stride,\n\
                                          const uint has_seed,\n\
                                          const {t} identity) {{\n\
             uint col = get_global_id(0);\n\
             if (col < n_cols) {{\n\
                 {t} acc = has_seed ? seed[col] : identity;\n\
                 for (uint r = 0; r < n_rows; ++r) {{\n\
                     acc = {fn_name}(acc, in[r * row_stride + col]);\n\
                 }}\n\
                 out[col] = acc;\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("reduce_cols", fn_name, &[t]), source).with_arg_count(8)
}

/// Generate the index-carrying row reduction behind
/// [`crate::ReduceRowsArg`]: per row, a strictly-better comparison scan in
/// ascending column order keeps the best value **and its global column
/// index** (lowest index wins ties because only a strict improvement
/// replaces the incumbent). Chained column-block parts seed from the
/// previous segment's (value, index) pair.
pub fn reduce_rows_arg_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: ReduceRowsArg skeleton (argbest scan)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce_rows_arg(__global const {t}* restrict in,\n\
                                              __global const {t}* restrict seed_val,\n\
                                              __global const uint* restrict seed_idx,\n\
                                              __global {t}* restrict out_val,\n\
                                              __global uint* restrict out_idx,\n\
                                              const uint n_rows,\n\
                                              const uint n_cols,\n\
                                              const uint row_stride,\n\
                                              const uint col_offset,\n\
                                              const uint has_seed) {{\n\
             uint row = get_global_id(0);\n\
             if (row < n_rows) {{\n\
                 {t} best = has_seed ? seed_val[row] : in[row * row_stride];\n\
                 uint best_i = has_seed ? seed_idx[row] : col_offset;\n\
                 for (uint c = has_seed ? 0 : 1; c < n_cols; ++c) {{\n\
                     {t} x = in[row * row_stride + c];\n\
                     if ({fn_name}(x, best)) {{ best = x; best_i = col_offset + c; }}\n\
                 }}\n\
                 out_val[row] = best;\n\
                 out_idx[row] = best_i;\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("reduce_rows_arg", fn_name, &[t]), source).with_arg_count(10)
}

/// Generate the index-carrying column reduction behind
/// [`crate::ReduceColsArg`]: per column, a strictly-better comparison scan
/// in ascending row order keeps the best value **and its global row
/// index** (lowest index wins ties). Chained row-block parts seed from the
/// previous segment's (value, index) pair — the column-strided twin of
/// [`reduce_rows_arg_program`], with its own cache key.
pub fn reduce_cols_arg_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: ReduceColsArg skeleton (argbest scan)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce_cols_arg(__global const {t}* restrict in,\n\
                                              __global const {t}* restrict seed_val,\n\
                                              __global const uint* restrict seed_idx,\n\
                                              __global {t}* restrict out_val,\n\
                                              __global uint* restrict out_idx,\n\
                                              const uint n_rows,\n\
                                              const uint n_cols,\n\
                                              const uint row_stride,\n\
                                              const uint row_offset,\n\
                                              const uint has_seed) {{\n\
             uint col = get_global_id(0);\n\
             if (col < n_cols) {{\n\
                 {t} best = has_seed ? seed_val[col] : in[col];\n\
                 uint best_i = has_seed ? seed_idx[col] : row_offset;\n\
                 for (uint r = has_seed ? 0 : 1; r < n_rows; ++r) {{\n\
                     {t} x = in[r * row_stride + col];\n\
                     if ({fn_name}(x, best)) {{ best = x; best_i = row_offset + r; }}\n\
                 }}\n\
                 out_val[col] = best;\n\
                 out_idx[col] = best_i;\n\
             }}\n\
         }}\n"
    );
    Program::from_source(program_name("reduce_cols_arg", fn_name, &[t]), source).with_arg_count(10)
}

// ---------------------------------------------------------------------------
// Matrix skeleton programs: one builder per kernel shape.
//
// Every 2D element-wise and stencil kernel comes from the `Pipeline` planner
// (see `crate::skeletons::pipeline`); a single `Map`, `Zip` or `Stencil2D`
// call on a matrix is a one-stage chain. The planner collapses a chain of
// element-wise stages into the body of a neighbouring stencil / reduce /
// map kernel, and the builders below generate one program for the whole
// group from its stage list: every stage's user-function source is pasted
// once and the kernel body chains the calls, so no intermediate buffer ever
// appears in the emitted code. The joined stage names (and, for stencils,
// radius and boundary mode) go into the program name; the program is cached
// in the context's program registry under its source hash like any other
// program.
// The emitted kernel and program names keep their `fused` spelling: the
// source text is the cache key, and its length sets the modeled build cost.

/// One stage of a fused pipeline group, as codegen sees it.
#[derive(Clone, Debug)]
pub struct FusedStage {
    /// `"map"`, `"zip"`, `"stencil"` or `"stencil_pair"` — determines the
    /// call shape in the emitted chain and the extra kernel arguments
    /// (each `zip` stage threads one more operand buffer).
    pub kind: &'static str,
    /// The user function's name (call site in the chain).
    pub name: String,
    /// The user function's source, pasted above the kernel.
    pub source: String,
    /// Static per-call cost estimate (summed into the fused kernel's
    /// per-item issue cost by the pipeline launcher; codegen ignores it).
    pub static_ops: u64,
}

impl FusedStage {
    pub fn new(
        kind: &'static str,
        name: impl Into<String>,
        source: impl Into<String>,
        static_ops: u64,
    ) -> Self {
        FusedStage {
            kind,
            name: name.into(),
            source: source.into(),
            static_ops,
        }
    }

    /// The stage descriptor of a user function.
    pub fn of<F>(kind: &'static str, user: &UserFn<F>) -> Self {
        FusedStage::new(kind, user.name(), user.source(), user.static_ops())
    }
}

/// The `+`-joined stage names — the structural part of a fused program's
/// cache key (`a+b+c` differs from `a+c+b`: fusion order matters).
fn fused_chain_name(stages: &[FusedStage]) -> String {
    stages
        .iter()
        .map(|s| s.name.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

/// Concatenated user-function sources, one paste per stage.
fn fused_sources(stages: &[FusedStage]) -> String {
    stages
        .iter()
        .map(|s| s.source.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The nested call chain `s_n(...s_1(s_0(expr))...)` for an element-wise
/// stage run. Each `zip` stage reads its own operand buffer at the same
/// index, so it shows up as a two-argument call.
fn fused_value_chain(stages: &[FusedStage], seed: &str) -> String {
    let mut expr = seed.to_string();
    for (i, s) in stages.iter().enumerate() {
        expr = match s.kind {
            "zip" => format!("{}({expr}, op{i}[i])", s.name),
            _ => format!("{}({expr})", s.name),
        };
    }
    expr
}

/// The extra `__global` operand-buffer parameters a stage list needs: one
/// per `zip` stage (named `op<stage index>`).
fn fused_zip_params(stages: &[FusedStage], elem_t: &str) -> (String, usize) {
    let mut params = String::new();
    let mut count = 0;
    for (i, s) in stages.iter().enumerate() {
        if s.kind == "zip" {
            params.push_str(&format!(
                ",\n                                  __global const {elem_t}* restrict op{i}"
            ));
            count += 1;
        }
    }
    (params, count)
}

/// Generate the 2D element-wise program: an N-stage `map`/`zip` chain
/// collapsed into one 2D-NDRange kernel — one launch, zero intermediate
/// buffers, however long the chain (`Map::apply_matrix` and
/// `Zip::apply_matrix` are the one-stage chains).
pub fn map2d_program(stages: &[FusedStage], in_t: &str, out_t: &str) -> Program {
    let chain = fused_value_chain(stages, "in[i]");
    let (zip_params, n_zips) = fused_zip_params(stages, in_t);
    let source = format!(
        "// generated by SkelCL codegen: fused element-wise pipeline ({} stages)\n\
         {}\n\
         __kernel void skelcl_fused_map2d(__global const {in_t}* restrict in,\n\
                                  __global {out_t}* restrict out{zip_params},\n\
                                  const uint n_rows,\n\
                                  const uint n_cols) {{\n\
             uint col = get_global_id(0);\n\
             uint row = get_global_id(1);\n\
             if (row < n_rows && col < n_cols) {{\n\
                 uint i = row * n_cols + col;\n\
                 out[i] = {chain};\n\
             }}\n\
         }}\n",
        stages.len(),
        fused_sources(stages),
    );
    Program::from_source(
        program_name("fused_map2d", &fused_chain_name(stages), &[in_t, out_t]),
        source,
    )
    .with_arg_count(4 + n_zips)
}

/// Generate the Stencil2D program: exactly one `stencil`/`stencil_pair`
/// stage whose neighbourhood reads run the *pre* element-wise chain and
/// whose result runs the *post* chain before the single write. `pre`,
/// `stencil` and `post` together are the launch's stage list; the split is
/// positional (stages before/after the stencil stage). `Stencil2D` builds
/// the one-stage form once and launches it for `apply`, `apply_streamed`
/// and every round of `iterate` (with its two buffers rebound). The
/// boundary mode changes the emitted index arithmetic, so it is part of the
/// source and thus the cache key.
pub fn stencil2d_program(
    stages: &[FusedStage],
    in_t: &str,
    out_t: &str,
    radius: usize,
    boundary: &str,
) -> Program {
    let si = stages
        .iter()
        .position(|s| s.kind.starts_with("stencil"))
        .expect("a fused stencil group contains a stencil stage");
    let (pre, rest) = stages.split_at(si);
    let (stencil, post) = (&rest[0], &rest[1..]);
    let resolve = stencil_boundary_resolve(boundary, in_t);
    let read_chain = fused_value_chain(pre, "in[rr * n_cols + cc]");
    let write_chain = fused_value_chain(
        post,
        &format!("{}(in, row, col, n_rows, n_cols)", stencil.name),
    );
    let (zip_params, n_zips) = fused_zip_params(stages, in_t);
    let source = format!(
        "// generated by SkelCL codegen: fused stencil pipeline, radius {radius}, {boundary} boundary\n\
         // {} pre-stage(s) fused into the neighbourhood reads, {} post-stage(s) into the write.\n\
         inline {in_t} stencil_at(__global const {in_t}* in, int row, int col,\n\
                                  uint n_rows, uint n_cols, int dr, int dc) {{\n\
             {resolve}\n\
             return {read_chain};\n\
         }}\n\
         {}\n\
         __kernel void skelcl_fused_stencil2d(__global const {in_t}* restrict in,\n\
                                  __global {out_t}* restrict out{zip_params},\n\
                                  const uint n_rows,\n\
                                  const uint n_cols,\n\
                                  const uint row_offset) {{\n\
             uint col = get_global_id(0);\n\
             uint row = get_global_id(1) + row_offset;\n\
             if (row < n_rows && col < n_cols) {{\n\
                 out[row * n_cols + col] = {write_chain};\n\
             }}\n\
         }}\n",
        pre.len(),
        post.len(),
        fused_sources(stages),
    );
    Program::from_source(
        program_name(
            &format!("fused_stencil2d_r{radius}_{boundary}"),
            &fused_chain_name(stages),
            &[in_t, out_t],
        ),
        source,
    )
    .with_arg_count(5 + n_zips)
}

/// Generate the pipeline's row-reduction program: the element-wise chain
/// runs on every element *as it is folded*, so the whole map→…→reduce-rows
/// pipeline is one launch with zero intermediate buffers. The fold is the
/// same ascending-column left fold as [`reduce_rows_program`], which keeps
/// the result bit-identical to the unfused chain.
pub fn map_reduce_rows_program(
    stages: &[FusedStage],
    reduce_name: &str,
    reduce_source: &str,
    in_t: &str,
    out_t: &str,
) -> Program {
    let chain = fused_value_chain(stages, "in[row * n_cols + c]");
    let (zip_params, n_zips) = fused_zip_params(stages, in_t);
    let full_name = if stages.is_empty() {
        reduce_name.to_string()
    } else {
        format!("{}+{reduce_name}", fused_chain_name(stages))
    };
    let source = format!(
        "// generated by SkelCL codegen: fused reduce-rows pipeline ({} fused stages)\n\
         {}\n\
         {reduce_source}\n\
         __kernel void skelcl_fused_reduce_rows(__global const {in_t}* restrict in,\n\
                                  __global {out_t}* restrict out{zip_params},\n\
                                  const uint n_rows,\n\
                                  const uint n_cols,\n\
                                  const {out_t} identity) {{\n\
             uint row = get_global_id(0);\n\
             if (row < n_rows) {{\n\
                 {out_t} acc = identity;\n\
                 for (uint c = 0; c < n_cols; ++c) {{\n\
                     acc = {reduce_name}(acc, {chain});\n\
                 }}\n\
                 out[row] = acc;\n\
             }}\n\
         }}\n",
        stages.len(),
        fused_sources(stages),
    );
    Program::from_source(
        program_name("fused_reduce_rows", &full_name, &[in_t, out_t]),
        source,
    )
    .with_arg_count(5 + n_zips)
}

/// Generate the AllPairs skeleton program: `C[i][j]` folds
/// `zip(A[i][k], B[k][j])` across the inner dimension with `reduce` in
/// ascending `k` (SkelCL's later `AllPairs(M, N)` skeleton restricted to
/// the zip-reduce form), then runs the `post` element-wise chain on the
/// folded value before the single write — `AllPairs::with_post` fuses e.g.
/// the square root of a pairwise Euclidean distance this way.
///
/// `tile == 0` is the naive form, one work-item per output element. A
/// positive `tile` is the tiled form: each `tile × tile` work-group stages
/// an A-row-strip tile and a B-col-strip tile in local memory and every
/// item combines from there, cutting global traffic by a factor of `tile`
/// (the classic blocked matrix-multiply scheme). The tile dimension changes
/// the emitted code — and the local-memory footprint — so it is part of the
/// source and thus the kernel cache key.
#[allow(clippy::too_many_arguments)]
pub fn allpairs_program(
    zip_name: &str,
    zip_source: &str,
    reduce_name: &str,
    reduce_source: &str,
    post: &[FusedStage],
    in_t: &str,
    out_t: &str,
    tile: usize,
) -> Program {
    let write = fused_value_chain(post, "acc");
    let post_sources: String = post.iter().map(|s| format!("{}\n", s.source)).collect();
    let (fused, fn_name) = if post.is_empty() {
        (String::new(), format!("{zip_name}_{reduce_name}"))
    } else {
        (
            ", fused post chain".to_string(),
            format!("{zip_name}_{reduce_name}+{}", fused_chain_name(post)),
        )
    };
    let (strategy, skeleton, n_args, define, kernel) = if tile == 0 {
        (
            "naive".to_string(),
            "allpairs".to_string(),
            7,
            String::new(),
            format!(
                "__kernel void skelcl_allpairs(__global const {in_t}* restrict a,\n\
                                              __global const {in_t}* restrict b,\n\
                                              __global {out_t}* restrict c,\n\
                                              const uint m,\n\
                                              const uint k,\n\
                                              const uint n,\n\
                                              const {out_t} identity) {{\n\
                     uint col = get_global_id(0);\n\
                     uint row = get_global_id(1);\n\
                     if (row < m && col < n) {{\n\
                         {out_t} acc = identity;\n\
                         for (uint kk = 0; kk < k; ++kk) {{\n\
                             acc = {reduce_name}(acc, {zip_name}(a[row * k + kk], b[kk * n + col]));\n\
                         }}\n\
                         c[row * n + col] = {write};\n\
                     }}\n\
                 }}\n"
            ),
        )
    } else {
        (
            format!("tiled, {tile}x{tile} local tiles"),
            format!("allpairs_tiled{tile}"),
            9,
            format!("#define TILE {tile}\n"),
            format!(
                "__kernel void skelcl_allpairs_tiled(__global const {in_t}* restrict a,\n\
                                                    __global const {in_t}* restrict b,\n\
                                                    __global {out_t}* restrict c,\n\
                                                    const uint m,\n\
                                                    const uint k,\n\
                                                    const uint n,\n\
                                                    const {out_t} identity,\n\
                                                    __local {in_t}* a_tile,\n\
                                                    __local {in_t}* b_tile) {{\n\
                     uint col = get_global_id(0);\n\
                     uint row = get_global_id(1);\n\
                     uint lx = get_local_id(0);\n\
                     uint ly = get_local_id(1);\n\
                     {out_t} acc = identity;\n\
                     for (uint t = 0; t < (k + TILE - 1) / TILE; ++t) {{\n\
                         uint ka = t * TILE + lx;\n\
                         uint kb = t * TILE + ly;\n\
                         a_tile[ly * TILE + lx] = (row < m && ka < k) ? a[row * k + ka] : identity;\n\
                         b_tile[ly * TILE + lx] = (col < n && kb < k) ? b[kb * n + col] : identity;\n\
                         barrier(CLK_LOCAL_MEM_FENCE);\n\
                         uint span = min((uint)TILE, k - t * TILE);\n\
                         for (uint kk = 0; kk < span; ++kk) {{\n\
                             acc = {reduce_name}(acc, {zip_name}(a_tile[ly * TILE + kk], b_tile[kk * TILE + lx]));\n\
                         }}\n\
                         barrier(CLK_LOCAL_MEM_FENCE);\n\
                     }}\n\
                     if (row < m && col < n) c[row * n + col] = {write};\n\
                 }}\n"
            ),
        )
    };
    let source = format!(
        "// generated by SkelCL codegen: AllPairs skeleton ({strategy}{fused})\n\
         {define}{zip_source}\n\
         {reduce_source}\n\
         {post_sources}{kernel}"
    );
    Program::from_source(program_name(&skeleton, &fn_name, &[in_t, out_t]), source)
        .with_arg_count(n_args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skel_fn_macro_produces_both_twins() {
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        assert_eq!(mult.name(), "mult");
        assert!(mult.source().contains("fn mult"));
        assert!(mult.source().contains("x * y"));
        assert_eq!((mult.func())(6.0, 7.0), 42.0);
        assert_eq!(mult.static_ops(), 1);
    }

    #[test]
    fn static_ops_counts_arithmetic() {
        assert_eq!(estimate_static_ops("x * y"), 1);
        assert_eq!(estimate_static_ops("a + b * c - d"), 3);
        // floor of 1 for pure data movement
        assert_eq!(estimate_static_ops("x"), 1);
    }

    #[test]
    fn map_program_embeds_user_source_and_callsite() {
        let p = map_program(
            "square",
            "float square(float x){return x*x;}",
            "float",
            "float",
            0,
        );
        assert!(p.source.contains("float square(float x)"));
        assert!(p.source.contains("square(in[gid])"));
        assert!(p.source.contains("__kernel void skelcl_map"));
        assert_eq!(p.n_args, 3);
    }

    #[test]
    fn extra_args_extend_the_signature() {
        let p = map_program("f", "float f(float x){return x;}", "float", "float", 2);
        assert!(p.source.contains("arg0"));
        assert!(p.source.contains("arg1"));
        assert_eq!(p.n_args, 5);
    }

    #[test]
    fn zip_reduce_scan_programs_are_distinct() {
        let z = zip_program(
            "mult",
            "float mult(float x,float y){return x*y;}",
            "float",
            "float",
            "float",
            0,
        );
        let r = reduce_program("sum", "float sum(float x,float y){return x+y;}", "float");
        let s = scan_program("sum", "float sum(float x,float y){return x+y;}", "float");
        assert_ne!(z.hash(), r.hash());
        assert_ne!(r.hash(), s.hash());
        assert!(r.source.contains("scratch"));
        assert!(s.source.contains("CONFLICT_FREE_OFFSET"));
    }

    #[test]
    fn same_user_fn_same_types_same_program_hash() {
        let a = map_program("f", "float f(float x){return x+1;}", "float", "float", 0);
        let b = map_program("f", "float f(float x){return x+1;}", "float", "float", 0);
        assert_eq!(a.hash(), b.hash());
        // and a different body changes the hash (cache key correctness)
        let c = map_program("f", "float f(float x){return x+2;}", "float", "float", 0);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn with_static_ops_overrides_estimate() {
        let f = UserFn::new("g", "loop body", |x: f32| x).with_static_ops(64);
        assert_eq!(f.static_ops(), 64);
    }
}
