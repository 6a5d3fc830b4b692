//! Convolution and pooling kernels.
//!
//! The 2-D convolution is implemented with the classic im2col lowering:
//! patches of the input feature map are unrolled into the columns of a
//! matrix so that the convolution becomes one matrix multiplication — the
//! dataflow the `nds-hw` accelerator model assumes for its
//! latency/resource estimates.
//!
//! # Performance notes
//!
//! [`conv2d`] lowers **per image** onto the cache-blocked
//! [`crate::ops::gemm_acc`] kernel: each batch item's `[C·K·K, OH·OW]`
//! patch matrix is materialised into a [`Workspace`]-pooled scratch slab
//! and multiplied against the weight matrix directly into that image's
//! `[OC, OH·OW]` output slab, already in NCHW layout. The scratch holds
//! one image per task, so it stays cache-resident, and warm forwards
//! allocate no scratch.
//!
//! The batch is split across the worker pool **by image**: one pool batch
//! per conv call, each task owning a contiguous range of images and its
//! own patch slab, running im2col and a serial gemm for each. The task
//! count follows the gemm kernels' ~64k-MAC per-task floor, so small
//! convs stay on the caller's thread. Only a batch that fits one task
//! (an n = 1 call, say) splits each image's gemm by output-channel row
//! instead. A row split of every image's gemm would leave im2col serial
//! on the caller and pay one pool round trip per image; on a 2-core host
//! that made most ResNet18-w8 conv shapes slower with two workers than
//! with one.
//!
//! The bias is folded in by seeding each output row before accumulation,
//! and accumulation order over `(channel, ky, kx)` is fixed and ascending,
//! so results are **bit-identical for any worker count** and bit-identical
//! to the naive [`conv2d_direct`] oracle (property-tested in
//! `tests/conv_props.rs`).
//!
//! [`im2col_image`] walks taps outermost: each `(ky, kx)` tap's valid
//! output range is computed once per image and shared by every channel,
//! and its rows are copied in fixed 8-float chunks. The rows are short —
//! LeNet conv2's are 8 floats — so the lowering was costing more than
//! its gemm when each row paid a `memcpy` call and the range divisions.
//!
//! Max pooling has one window walk, [`max_pool2d`] with argmax for
//! training and [`max_pool2d_ws`] without it for inference. It walks an
//! output row's windows together, one window row at a time, so the inner
//! loop runs over independent windows; padding reads as `-inf`, so edge
//! windows take the same loop. Its NaN-wins compare is a select rather
//! than a branch on the data. Both entry points are property-tested
//! against a naive reference in `tests/pool_props.rs`.

use crate::ops::{gemm_acc, rows_per_task};
use crate::parallel::{run_scoped, worker_count};
use crate::{Result, Shape, Tensor, TensorError, Workspace};

/// Spatial geometry of a convolution or pooling window.
///
/// # Examples
///
/// ```
/// use nds_tensor::conv::ConvGeometry;
/// let g = ConvGeometry::new(3, 1, 1); // 3x3 kernel, stride 1, pad 1: "same"
/// assert_eq!(g.out_dim(32), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        ConvGeometry {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of size `dim`.
    ///
    /// Returns 0 when the kernel does not fit.
    pub fn out_dim(&self, dim: usize) -> usize {
        let padded = dim + 2 * self.padding;
        if padded < self.kernel {
            0
        } else {
            (padded - self.kernel) / self.stride + 1
        }
    }
}

/// The output positions `o` in `0..out_len` whose input tap
/// `o·stride + tap − padding` lands inside `0..in_len`, as a half-open
/// range `lo..hi` (empty when `lo == hi`). Positions outside it read
/// padding.
fn valid_range(out_len: usize, in_len: usize, tap: usize, g: ConvGeometry) -> (usize, usize) {
    let lo = g
        .padding
        .saturating_sub(tap)
        .div_ceil(g.stride)
        .min(out_len);
    let hi = if in_len + g.padding > tap {
        ((in_len + g.padding - tap - 1) / g.stride + 1).min(out_len)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Unrolls one `[C, H, W]` image into an im2col patch matrix on raw
/// slices: `out` receives `[C*K*K, OH*OW]` row-major, every element
/// written (padded positions as zero).
///
/// This is the per-image building block [`conv2d`] loops over; the
/// whole-batch [`im2col`] remains for callers that need the batched
/// layout. The walk is tap-major: `(ky, kx)` is the outer loop, so each
/// tap's in-bounds output range is computed once per call and shared by
/// every channel. A row whose tap reads padding is zeroed once, then its
/// interior is copied over the zeros; a row with no padding is copied
/// without zeroing. Interior copies at stride 1 move fixed 8-float
/// chunks plus a scalar tail — output rows are short (8 floats for LeNet
/// conv2), where a `memcpy` call per row would cost more than the copy —
/// and a strided gather otherwise, with no per-element bounds test.
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree with the
/// dimensions.
pub fn im2col_image(img: &[f32], c: usize, h: usize, w: usize, g: ConvGeometry, out: &mut [f32]) {
    let k = g.kernel;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    let plane = oh * ow;
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(out.len(), c * k * k * plane);
    for ky in 0..k {
        let (oy_lo, oy_hi) = valid_range(oh, h, ky, g);
        for kx in 0..k {
            let (ox_lo, ox_hi) = valid_range(ow, w, kx, g);
            let span = ox_hi - ox_lo;
            let padded = oy_lo > 0 || oy_hi < oh || span < ow;
            for ci in 0..c {
                let row = (ci * k + ky) * k + kx;
                let orow = &mut out[row * plane..(row + 1) * plane];
                if padded {
                    orow.fill(0.0);
                }
                if span == 0 {
                    continue;
                }
                let chan = &img[ci * h * w..(ci + 1) * h * w];
                for oy in oy_lo..oy_hi {
                    let src = oy * g.stride + ky - g.padding;
                    let src = &chan[src * w + ox_lo * g.stride + kx - g.padding..(src + 1) * w];
                    let dst = &mut orow[oy * ow + ox_lo..oy * ow + ox_hi];
                    if g.stride == 1 {
                        copy_short(dst, &src[..span]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(g.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Copies a short row in fixed 8-float chunks plus a scalar tail. The
/// fixed-size chunks compile to register moves; a slice copy of a
/// runtime length would call `memcpy` for every few floats.
#[inline(always)]
fn copy_short(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let dc: &mut [f32; 8] = dc.try_into().expect("chunk of 8");
        let sc: &[f32; 8] = sc.try_into().expect("chunk of 8");
        *dc = *sc;
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv = sv;
    }
}

/// Scatters one image's im2col-shaped gradient back onto its feature map
/// (the per-image adjoint of [`im2col_image`]): `cols` is
/// `[C*K*K, OH*OW]`, contributions are **accumulated** into `img`
/// (callers zero it first).
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree with the
/// dimensions.
pub fn col2im_image(cols: &[f32], c: usize, h: usize, w: usize, g: ConvGeometry, img: &mut [f32]) {
    let k = g.kernel;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    for ci in 0..c {
        let chan = &mut img[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let srow = &cols[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = &mut chan[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, &s) in srow[oy * ow..(oy + 1) * ow].iter().enumerate() {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[ix as usize] += s;
                    }
                }
            }
        }
    }
}

/// Unrolls an NCHW batch into an im2col matrix.
///
/// For an input `[N, C, H, W]` and geometry `g`, the result is a matrix of
/// shape `[C*K*K, N*OH*OW]`: each column holds one receptive-field patch.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs and
/// [`TensorError::InvalidArgument`] when the kernel does not fit.
pub fn im2col(input: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "im2col",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "im2col",
            msg: format!(
                "kernel {}x{} does not fit input {h}x{w} with padding {}",
                g.kernel, g.kernel, g.padding
            ),
        });
    }
    let k = g.kernel;
    let rows = c * k * k;
    let cols = n * oh * ow;
    let x = input.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    // Row-major output: out[row * cols + col].
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for ni in 0..n {
                    let img = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        let col_base = (ni * oh + oy) * ow;
                        if iy < 0 || iy >= h as isize {
                            continue; // zero padding: leave zeros in place
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[col_base + ox] = img[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d2(rows, cols))
}

/// Scatters an im2col-shaped gradient back onto the input feature map
/// (the adjoint of [`im2col`]).
///
/// `cols` must have shape `[C*K*K, N*OH*OW]`; the result has shape
/// `[N, C, H, W]` given by `input_shape`.
///
/// # Errors
///
/// Returns shape errors mirroring [`im2col`].
pub fn col2im(cols: &Tensor, input_shape: &Shape, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw().ok_or(TensorError::RankMismatch {
        op: "col2im",
        expected: 4,
        actual: input_shape.rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    let k = g.kernel;
    let rows = c * k * k;
    let ncols = n * oh * ow;
    if cols.shape() != &Shape::d2(rows, ncols) {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: Shape::d2(rows, ncols),
            rhs: cols.shape().clone(),
        });
    }
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let src_row = &src[row * ncols..(row + 1) * ncols];
                for ni in 0..n {
                    let img_base = (ni * c + ci) * h * w;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        let col_base = (ni * oh + oy) * ow;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out[img_base + iy * w + ix as usize] += src_row[col_base + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, input_shape.clone())
}

/// Operand and output dimensions of one validated conv call.
struct ConvDims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    g: ConvGeometry,
}

impl ConvDims {
    /// Output positions per channel, `OH·OW`.
    fn spatial(&self) -> usize {
        self.oh * self.ow
    }

    /// Floats in one image's `[C·K·K, OH·OW]` patch matrix.
    fn patch_len(&self) -> usize {
        self.c * self.g.kernel * self.g.kernel * self.spatial()
    }

    /// Floats in the `[N, OC, OH, OW]` output.
    fn out_len(&self) -> usize {
        self.n * self.oc * self.spatial()
    }
}

/// Validates conv2d operand shapes.
fn conv2d_check(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<ConvDims> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "conv2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let (oc, wc, kh, kw) = weight.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "conv2d(weight)",
        expected: 4,
        actual: weight.shape().rank(),
    })?;
    if wc != c || kh != g.kernel || kw != g.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: Shape::d4(oc, c, g.kernel, g.kernel),
            rhs: weight.shape().clone(),
        });
    }
    if let Some(b) = bias {
        if b.len() != oc {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d(bias)",
                lhs: Shape::d1(oc),
                rhs: b.shape().clone(),
            });
        }
    }
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: format!(
                "kernel {}x{} does not fit input {h}x{w} with padding {}",
                g.kernel, g.kernel, g.padding
            ),
        });
    }
    Ok(ConvDims {
        n,
        c,
        h,
        w,
        oc,
        oh,
        ow,
        g,
    })
}

/// 2-D convolution: weights `[OC, C, K, K]`, input `[N, C, H, W]`,
/// optional bias `[OC]`, producing `[N, OC, OH, OW]`.
///
/// Lowered per image through [`im2col_image`] + the blocked
/// [`gemm_acc`] kernel, the batch split across the pool by image (see
/// the module docs). Equivalent to
/// [`conv2d_ws`] with a throwaway [`Workspace`]; hot loops should call
/// that directly so the im2col scratch is reused across calls.
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<Tensor> {
    conv2d_ws(input, weight, bias, g, &mut Workspace::new())
}

/// [`conv2d`] with an explicit scratch [`Workspace`]: the im2col scratch
/// and the output are taken from the pool, so once the caller recycles
/// consumed outputs, repeated forwards allocate no buffers.
///
/// Accumulation order per output element is fixed (bias seed, then
/// `(channel, ky, kx)` ascending), so results are bit-identical across
/// worker counts and identical to [`conv2d_direct`].
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
    workspace: &mut Workspace,
) -> Result<Tensor> {
    conv2d_ws_workers(input, weight, bias, g, workspace, worker_count())
}

/// [`conv2d_ws`] with an explicit split factor: the batch is split into
/// at most `workers` tasks of contiguous images (see the module docs).
/// The output bytes do not depend on `workers`.
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d_ws_workers(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
    workspace: &mut Workspace,
    workers: usize,
) -> Result<Tensor> {
    let d = conv2d_check(input, weight, bias, g)?;
    let plan = Lowering::new(&d, workers, false);
    let mut cols = workspace.take_dirty(plan.cols_len(&d));
    // The output buffer also comes from the pool: under the Workspace
    // ownership contract the caller recycles consumed activations, so
    // steady-state forwards cycle the same buffers instead of draining
    // the pool. With a bias, every output row is seeded before the gemm
    // accumulates, so the zero-fill can be skipped entirely.
    let mut out = if bias.is_some() {
        workspace.take_dirty(d.out_len())
    } else {
        workspace.take(d.out_len())
    };
    lower_batch(input, weight, bias, &d, &plan, &mut cols, &mut out);
    workspace.recycle(cols);
    Tensor::from_vec(out, Shape::d4(d.n, d.oc, d.oh, d.ow))
}

/// [`conv2d_ws_workers`] that keeps every image's patches, for a training
/// forward whose backward needs them: `patches` (`N·C·K·K·OH·OW` floats,
/// contents unspecified on entry) receives the `N` per-image
/// `[C·K·K, OH·OW]` im2col matrices, image-major. Same lowering, same
/// bytes; the output is a fresh allocation, since it escapes to the
/// backward pass rather than cycling through a pool.
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
///
/// # Panics
///
/// Panics when `patches` has the wrong length.
pub fn conv2d_keep_patches(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
    patches: &mut [f32],
    workers: usize,
) -> Result<Tensor> {
    let d = conv2d_check(input, weight, bias, g)?;
    let plan = Lowering::new(&d, workers, true);
    assert_eq!(
        patches.len(),
        plan.cols_len(&d),
        "patch buffer must hold one [C*K*K, OH*OW] matrix per image"
    );
    let mut out = vec![0.0f32; d.out_len()];
    lower_batch(input, weight, bias, &d, &plan, patches, &mut out);
    Tensor::from_vec(out, Shape::d4(d.n, d.oc, d.oh, d.ow))
}

/// How one conv call runs: `tasks` contiguous ranges of `per_task`
/// images (the last one possibly shorter), and whether each image keeps
/// its own patch slab (`keep`) or each task reuses one.
struct Lowering {
    per_task: usize,
    tasks: usize,
    workers: usize,
    keep: bool,
}

impl Lowering {
    /// Images per task follow the gemm kernels' per-task work floor
    /// (~64k mul-adds), so small convs stay on the caller's thread.
    fn new(d: &ConvDims, workers: usize, keep: bool) -> Self {
        let per_task = rows_per_task(d.n, d.oc * d.patch_len(), workers).max(1);
        Lowering {
            per_task,
            tasks: d.n.div_ceil(per_task).max(1),
            workers,
            keep,
        }
    }

    /// Floats of patch buffer the call needs.
    fn cols_len(&self, d: &ConvDims) -> usize {
        let slabs = if self.keep { d.n } else { self.tasks };
        slabs * d.patch_len()
    }
}

/// The lowering behind every conv entry point: for each image, im2col
/// into a patch slab, seed the output rows with the bias, then
/// `[OC, CKK] × [CKK, OH·OW]` accumulated straight into the image's NCHW
/// output slab.
///
/// With one task the images run in turn on the caller's thread and each
/// gemm splits its output rows across the plan's workers (an n = 1 batch
/// keeps its parallelism this way). With several, the tasks are one pool
/// batch and each runs serial gemms.
fn lower_batch(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    d: &ConvDims,
    plan: &Lowering,
    cols: &mut [f32],
    out: &mut [f32],
) {
    let x = input.as_slice();
    let wt = weight.as_slice();
    let bias = bias.map(|b| b.as_slice());
    let (image_len, patch_len) = (d.c * d.h * d.w, d.patch_len());
    let (spatial, slab_len) = (d.spatial(), d.oc * d.spatial());
    let ckk = d.c * d.g.kernel * d.g.kernel;
    let run = |first: usize, count: usize, out: &mut [f32], cols: &mut [f32], workers: usize| {
        for li in 0..count {
            let ni = first + li;
            let slab = if plan.keep { li } else { 0 };
            let patches = &mut cols[slab * patch_len..(slab + 1) * patch_len];
            im2col_image(
                &x[ni * image_len..(ni + 1) * image_len],
                d.c,
                d.h,
                d.w,
                d.g,
                patches,
            );
            let out = &mut out[li * slab_len..(li + 1) * slab_len];
            if let Some(b) = bias {
                for (o, &bv) in b.iter().enumerate() {
                    out[o * spatial..(o + 1) * spatial].fill(bv);
                }
            }
            gemm_acc(wt, patches, d.oc, ckk, spatial, out, workers);
        }
    };
    if plan.tasks == 1 {
        run(0, d.n, out, cols, plan.workers);
        return;
    }
    let run = &run;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(plan.tasks);
    let (mut out_rest, mut cols_rest) = (out, cols);
    for t in 0..plan.tasks {
        let first = t * plan.per_task;
        let count = plan.per_task.min(d.n - first);
        let slabs = if plan.keep { count } else { 1 };
        let (task_out, rest) = std::mem::take(&mut out_rest).split_at_mut(count * slab_len);
        out_rest = rest;
        let (task_cols, rest) = std::mem::take(&mut cols_rest).split_at_mut(slabs * patch_len);
        cols_rest = rest;
        tasks.push(Box::new(move || run(first, count, task_out, task_cols, 1)));
    }
    run_scoped(tasks);
}

/// Naive direct convolution — the oracle the gemm-lowered [`conv2d`] is
/// property-tested against, kept deliberately close to the textbook
/// definition.
///
/// Accumulation runs over `(channel, ky, kx)` ascending from a bias seed,
/// padded taps multiply an explicit zero, and zero weights are skipped
/// (mirroring the gemm kernel's pruned-weight skip), so the result is
/// **bit-for-bit** equal to [`conv2d`].
///
/// # Errors
///
/// Returns shape errors when operand dimensions are inconsistent.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeometry,
) -> Result<Tensor> {
    let ConvDims {
        n,
        c,
        h,
        w,
        oc,
        oh,
        ow,
        ..
    } = conv2d_check(input, weight, bias, g)?;
    let k = g.kernel;
    let x = input.as_slice();
    let wt = weight.as_slice();
    let bias = bias.map(|b| b.as_slice());
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for ni in 0..n {
        for o in 0..oc {
            let seed = bias.map(|b| b[o]).unwrap_or(0.0);
            let out_base = (ni * oc + o) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = seed;
                    for ci in 0..c {
                        let chan = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                        for ky in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            for kx in 0..k {
                                let wv = wt[((o * c + ci) * k + ky) * k + kx];
                                if wv == 0.0 {
                                    continue; // mirrors the gemm zero-skip
                                }
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                let xv = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize
                                {
                                    0.0 // padding taps multiply an explicit zero
                                } else {
                                    chan[iy as usize * w + ix as usize]
                                };
                                acc += wv * xv;
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d4(n, oc, oh, ow))
}

/// Result of a max-pool forward pass: outputs plus argmax indices for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled feature map `[N, C, OH, OW]`.
    pub output: Tensor,
    /// Flat input index of the winning element for each output element.
    pub argmax: Vec<usize>,
}

/// Max pooling over an NCHW tensor, with the argmax indices the
/// backward pass routes gradients through.
///
/// Each window is walked in ascending `(ky, kx)` order over its
/// in-bounds taps with a NaN-wins select: a tap replaces the running
/// maximum when it is larger or NaN. So a poisoned window reports NaN
/// (the last NaN in walk order, payload included) rather than silently
/// picking a finite value, and among equal values (`-0.0` and `+0.0`,
/// or a window of `-inf`) the first is kept. The argmax is the flat
/// input index of the kept tap; a window that lies wholly in the
/// padding outputs `-inf` with argmax 0.
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn max_pool2d(input: &Tensor, g: ConvGeometry) -> Result<MaxPoolOutput> {
    let (n, c, h, w, oh, ow) = max_pool_dims(input, g)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    let mut padded = vec![0.0f32; padded_row_len(w, g)];
    let dims = [n * c, h, w];
    max_pool_planes::<true>(
        input.as_slice(),
        dims,
        g,
        &mut out,
        &mut argmax,
        &mut padded,
    );
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, Shape::d4(n, c, oh, ow))?,
        argmax,
    })
}

/// Inference-path max pooling: identical outputs to [`max_pool2d`] — the
/// same window walk and NaN-wins select, instantiated without the argmax
/// bookkeeping (backward never runs at inference) — with the output and
/// the padded-row scratch drawn from the workspace pool so steady-state
/// forwards do not allocate.
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn max_pool2d_ws(input: &Tensor, g: ConvGeometry, workspace: &mut Workspace) -> Result<Tensor> {
    let (n, c, h, w, oh, ow) = max_pool_dims(input, g)?;
    let mut out = workspace.take_dirty(n * c * oh * ow);
    let mut padded = workspace.take_dirty(padded_row_len(w, g));
    let dims = [n * c, h, w];
    max_pool_planes::<false>(input.as_slice(), dims, g, &mut out, &mut [], &mut padded);
    workspace.recycle(padded);
    Tensor::from_vec(out, Shape::d4(n, c, oh, ow))
}

/// Validates a max-pool input and returns `(n, c, h, w, oh, ow)`.
fn max_pool_dims(
    input: &Tensor,
    g: ConvGeometry,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "max_pool2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d",
            msg: format!("window {} does not fit input {h}x{w}", g.kernel),
        });
    }
    Ok((n, c, h, w, oh, ow))
}

/// Length of the padded-row scratch [`max_pool_walk`] needs: a row with
/// its padding on both sides, or nothing when there is no padding.
fn padded_row_len(w: usize, g: ConvGeometry) -> usize {
    if g.padding == 0 {
        0
    } else {
        w + 2 * g.padding
    }
}

/// Max-pools the `dims = [planes, H, W]` contiguous planes of `x` into `out`
/// (and, when `ARG`, their flat argmax into `argmax`), dispatching to a
/// walk specialised for windows of width and stride 2 (every pool in the
/// model zoo); any other geometry takes the runtime walk. `padded` is
/// scratch of [`padded_row_len`] floats.
fn max_pool_planes<const ARG: bool>(
    x: &[f32],
    dims: [usize; 3],
    g: ConvGeometry,
    out: &mut [f32],
    argmax: &mut [usize],
    padded: &mut [f32],
) {
    if g.kernel == 2 && g.stride == 2 {
        max_pool_walk::<2, ARG>(x, dims, g, out, argmax, padded);
    } else {
        max_pool_walk::<0, ARG>(x, dims, g, out, argmax, padded);
    }
}

/// The one max-pool window walk. `K` is the window width and stride
/// (0: read both from `g` at run time), so the tap loop unrolls and the
/// input step is a constant in the instantiated walk.
///
/// Each output row's windows are walked together, one window row at a
/// time: for every window row `y` in ascending order, each window folds
/// in its `k` taps of that row in ascending `kx`, so each window sees its
/// taps in ascending `(ky, kx)` order, exactly as a walk window by window
/// would, while the inner loop runs over independent windows. With
/// padding, the row is first copied between `-inf` borders into
/// `padded`; a `-inf` tap never wins the select, so edge windows need no
/// separate path.
fn max_pool_walk<const K: usize, const ARG: bool>(
    x: &[f32],
    dims: [usize; 3],
    g: ConvGeometry,
    out: &mut [f32],
    argmax: &mut [usize],
    padded: &mut [f32],
) {
    let [planes, h, w] = dims;
    let (k, step) = if K == 0 { (g.kernel, g.stride) } else { (K, K) };
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    let pad = g.padding;
    if pad > 0 {
        padded[..pad].fill(f32::NEG_INFINITY);
        padded[pad + w..].fill(f32::NEG_INFINITY);
    }
    for p in 0..planes {
        let base = p * h * w;
        let img = &x[base..base + h * w];
        for oy in 0..oh {
            let (iy, ys) = window_taps(oy, h, k, g);
            let o = (p * oh + oy) * ow;
            let best = &mut out[o..o + ow];
            best.fill(f32::NEG_INFINITY);
            let idx: &mut [usize] = if ARG { &mut argmax[o..o + ow] } else { &mut [] };
            // The argmax starts at each window's first in-bounds tap, so
            // a window of -inf reports that tap; a window wholly in the
            // padding reports 0.
            for (ox, i) in idx.iter_mut().enumerate() {
                let start = ox * step;
                let ix = start.max(pad) - pad;
                let inside = ys > 0 && start + k > pad && ix < w;
                *i = if inside { base + iy * w + ix } else { 0 };
            }
            for y in iy..iy + ys {
                let mut row = &img[y * w..(y + 1) * w];
                if pad > 0 {
                    padded[pad..pad + w].copy_from_slice(row);
                    row = padded;
                }
                // Flat index of the row's first tap; taps in the padding
                // wrap, but a -inf tap never wins.
                let first = (base + y * w).wrapping_sub(pad);
                if step == k {
                    fold_row::<ARG>(row.chunks_exact(k), first, step, best, idx);
                } else {
                    fold_row::<ARG>(row.windows(k).step_by(step), first, step, best, idx);
                }
            }
        }
    }
}

/// Folds one row of taps into the running maxima of a row of windows:
/// `windows` yields each window's taps in that row, which start at flat
/// index `first + ox * step` for window `ox`.
#[inline(always)]
fn fold_row<'a, const ARG: bool>(
    windows: impl Iterator<Item = &'a [f32]>,
    first: usize,
    step: usize,
    best: &mut [f32],
    idx: &mut [usize],
) {
    if ARG {
        // The zip starts from the slices: started from `windows`, this
        // loop ran about a quarter slower.
        for (ox, ((b, i), taps)) in best.iter_mut().zip(idx.iter_mut()).zip(windows).enumerate() {
            select_taps::<ARG>(taps, first.wrapping_add(ox * step), b, i);
        }
    } else {
        for (taps, b) in windows.zip(best) {
            select_taps::<ARG>(taps, 0, b, &mut 0);
        }
    }
}

/// The in-bounds taps of the window at output position `o` along a
/// dimension of length `len`: the first input index they read and how
/// many there are (0 for a window wholly in the padding).
fn window_taps(o: usize, len: usize, k: usize, g: ConvGeometry) -> (usize, usize) {
    let start = o * g.stride;
    let lo = g.padding.saturating_sub(start).min(k);
    let hi = (len + g.padding).saturating_sub(start).min(k).max(lo);
    ((start + lo).saturating_sub(g.padding), hi - lo)
}

/// Folds one window row into a running maximum with the NaN-wins
/// compare done as a select, not a branch: a tap wins when it is larger
/// than `best` or is NaN, so the last NaN wins and the first of equal
/// values is kept. With `ARG`, `idx` follows the winner (`first` is the
/// flat index of `taps[0]`).
#[inline(always)]
fn select_taps<const ARG: bool>(taps: &[f32], first: usize, best: &mut f32, idx: &mut usize) {
    for (t, &v) in taps.iter().enumerate() {
        let wins = v > *best || v.is_nan();
        *best = if wins { v } else { *best };
        if ARG {
            *idx = if wins { first.wrapping_add(t) } else { *idx };
        }
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "global_avg_pool",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let x = input.as_slice();
    let spatial = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let sum: f32 = x[base..base + h * w].iter().sum();
            out[ni * c + ci] = sum / spatial;
        }
    }
    Tensor::from_vec(out, Shape::d2(n, c))
}

/// [`global_avg_pool`] with the output drawn from the workspace pool —
/// bit-identical results, no allocation after warm-up.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs.
pub fn global_avg_pool_ws(input: &Tensor, workspace: &mut Workspace) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "global_avg_pool",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let x = input.as_slice();
    let spatial = (h * w) as f32;
    let mut out = workspace.take_dirty(n * c);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let sum: f32 = x[base..base + h * w].iter().sum();
            out[ni * c + ci] = sum / spatial;
        }
    }
    Tensor::from_vec(out, Shape::d2(n, c))
}

/// Average pooling over an NCHW tensor (counts padding as zeros, divides by
/// the full window area, matching common "count_include_pad" semantics).
///
/// # Errors
///
/// Returns shape errors when the window does not fit.
pub fn avg_pool2d(input: &Tensor, g: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
        op: "avg_pool2d",
        expected: 4,
        actual: input.shape().rank(),
    })?;
    let oh = g.out_dim(h);
    let ow = g.out_dim(w);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d",
            msg: format!("window {} does not fit input {h}x{w}", g.kernel),
        });
    }
    let x = input.as_slice();
    let area = (g.kernel * g.kernel) as f32;
    let mut out = vec![0.0f32; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let img_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut sum = 0.0f32;
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            sum += x[img_base + iy as usize * w + ix as usize];
                        }
                    }
                    out[out_base + oy * ow + ox] = sum / area;
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::d4(n, c, oh, ow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn out_dim_formula() {
        let g = ConvGeometry::new(3, 1, 1);
        assert_eq!(g.out_dim(32), 32);
        let g = ConvGeometry::new(2, 2, 0);
        assert_eq!(g.out_dim(32), 16);
        let g = ConvGeometry::new(5, 1, 0);
        assert_eq!(g.out_dim(28), 24);
        assert_eq!(g.out_dim(3), 0); // kernel larger than padded input
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 reproduces the input.
        let input = Tensor::arange(3 * 3)
            .reshape(Shape::d4(1, 1, 3, 3))
            .unwrap();
        let weight = Tensor::ones(Shape::d4(1, 1, 1, 1));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(1, 1, 0)).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_known_3x3() {
        // All-ones 3x3 kernel over a 3x3 all-ones image, no padding: sum = 9.
        let input = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let weight = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 0)).unwrap();
        assert_eq!(out.shape(), &Shape::d4(1, 1, 1, 1));
        assert_eq!(out.as_slice(), &[9.0]);
        // With padding 1 the corner receptive fields see only 4 ones.
        let out = conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 1)).unwrap();
        assert_eq!(out.shape(), &Shape::d4(1, 1, 3, 3));
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(4.0));
        assert_eq!(out.get(&[0, 0, 1, 1]), Some(9.0));
        assert_eq!(out.get(&[0, 0, 0, 1]), Some(6.0));
    }

    #[test]
    fn conv2d_bias_is_added_per_channel() {
        let input = Tensor::zeros(Shape::d4(2, 1, 2, 2));
        let weight = Tensor::zeros(Shape::d4(3, 1, 1, 1));
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::d1(3)).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), ConvGeometry::new(1, 1, 0)).unwrap();
        for ni in 0..2 {
            for o in 0..3 {
                assert_eq!(out.get(&[ni, o, 0, 0]), Some((o + 1) as f32));
            }
        }
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        // Two input channels, kernel picks each with weight 1: output = c0 + c1.
        let mut input = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        input.set(&[0, 0, 0, 0], 3.0).unwrap();
        input.set(&[0, 1, 0, 0], 4.0).unwrap();
        let weight = Tensor::ones(Shape::d4(1, 2, 1, 1));
        let out = conv2d(&input, &weight, None, ConvGeometry::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(7.0));
    }

    #[test]
    fn conv2d_rejects_wrong_weight_channels() {
        let input = Tensor::zeros(Shape::d4(1, 3, 4, 4));
        let weight = Tensor::zeros(Shape::d4(2, 2, 3, 3));
        assert!(conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 1)).is_err());
        assert!(conv2d_direct(&input, &weight, None, ConvGeometry::new(3, 1, 1)).is_err());
    }

    #[test]
    fn gemm_lowering_matches_direct_oracle_bitwise() {
        let mut rng = Rng64::new(40);
        for (n, c, oc, h, w, k, stride, pad) in [
            (1, 1, 1, 3, 3, 1, 1, 0),
            (2, 3, 4, 5, 7, 3, 1, 1),
            (3, 2, 5, 8, 8, 3, 2, 1),
            (1, 4, 2, 6, 5, 5, 1, 2),
            (2, 1, 3, 4, 4, 2, 2, 0),
        ] {
            let g = ConvGeometry::new(k, stride, pad);
            let input = Tensor::rand_normal(Shape::d4(n, c, h, w), 0.0, 1.0, &mut rng);
            let weight = Tensor::rand_normal(Shape::d4(oc, c, k, k), 0.0, 0.5, &mut rng);
            let bias = Tensor::rand_normal(Shape::d1(oc), 0.0, 0.5, &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), g).unwrap();
            let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "({n},{c},{oc},{h},{w},k{k},s{stride},p{pad})"
            );
        }
    }

    #[test]
    fn conv2d_ws_reuses_the_im2col_buffer() {
        let mut rng = Rng64::new(41);
        // ~166k MACs per image: above the per-task floor, so three
        // workers really run three tasks with a slab each.
        let input = Tensor::rand_normal(Shape::d4(4, 8, 12, 12), 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(Shape::d4(16, 8, 3, 3), 0.0, 1.0, &mut rng);
        let g = ConvGeometry::new(3, 1, 1);
        for workers in [1, 3] {
            let mut ws = Workspace::new();
            let first = conv2d_ws_workers(&input, &weight, None, g, &mut ws, workers).unwrap();
            ws.recycle_tensor(first);
            let allocations = ws.allocations();
            let second = conv2d_ws_workers(&input, &weight, None, g, &mut ws, workers).unwrap();
            assert_eq!(
                ws.allocations(),
                allocations,
                "steady-state conv2d forward must not allocate ({workers} workers)"
            );
            assert_eq!(second.shape(), &Shape::d4(4, 16, 12, 12));
        }
    }

    #[test]
    fn im2col_image_matches_batched_im2col() {
        let mut rng = Rng64::new(42);
        // Stride 1 (chunked copies) and 2–3 (strided gathers), padding
        // that leaves whole rows or columns out of bounds, and a kernel
        // wider than the padded edge.
        let mut cases = vec![
            (2, 5, 4, 3, 1, 1),
            (1, 7, 6, 3, 2, 1),
            (3, 8, 9, 1, 2, 0),
            (2, 5, 7, 3, 3, 2),
            (1, 2, 3, 5, 1, 2),
            (1, 1, 1, 3, 2, 2),
        ];
        // Output widths 1–17 on both sides of the 8-float copy chunk (plus
        // the padding's extra columns), at strides 1 and 2: unpadded, and
        // with kernels overhanging the padded edge — a 1-wide kernel in 2
        // of padding reads only zeros on its border outputs.
        for ow in 1usize..=17 {
            for stride in [1, 2] {
                let w = (ow - 1) * stride + 1;
                cases.push((2, 6, w + 4, 5, stride, 0));
                cases.push((1, 2, w, 3, stride, 1));
                cases.push((1, 3, w, 1, stride, 2));
            }
        }
        for (c, h, w, k, stride, pad) in cases {
            let g = ConvGeometry::new(k, stride, pad);
            let input = Tensor::rand_normal(Shape::d4(1, c, h, w), 0.0, 1.0, &mut rng);
            let batched = im2col(&input, g).unwrap();
            let mut per_image = vec![7.0f32; batched.len()]; // poisoned: every slot must be written
            im2col_image(input.as_slice(), c, h, w, g, &mut per_image);
            assert_eq!(
                per_image,
                batched.as_slice(),
                "({c},{h},{w},k{k},s{stride},p{pad})"
            );
        }
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // col2im(im2col(x)) counts each input position once per receptive
        // field it participates in; with a 1x1 kernel it is exactly x.
        let input = Tensor::arange(2 * 3 * 3)
            .reshape(Shape::d4(1, 2, 3, 3))
            .unwrap();
        let g = ConvGeometry::new(1, 1, 0);
        let cols = im2col(&input, g).unwrap();
        let back = col2im(&cols, input.shape(), g).unwrap();
        assert_eq!(back.as_slice(), input.as_slice());
        // Per-image variant agrees with the batched one.
        let mut img = vec![0.0f32; input.len()];
        col2im_image(cols.as_slice(), 2, 3, 3, g, &mut img);
        assert_eq!(img, back.as_slice());
    }

    #[test]
    fn max_pool_picks_maxima_and_argmax() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            Shape::d4(1, 1, 4, 4),
        )
        .unwrap();
        let MaxPoolOutput { output, argmax } =
            max_pool2d(&input, ConvGeometry::new(2, 2, 0)).unwrap();
        assert_eq!(output.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], Shape::d4(1, 1, 2, 2)).unwrap();
        let out = avg_pool2d(&input, ConvGeometry::new(2, 2, 0)).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial() {
        let input = Tensor::arange(2 * 3 * 2 * 2)
            .reshape(Shape::d4(2, 3, 2, 2))
            .unwrap();
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape(), &Shape::d2(2, 3));
        // Channel 0 of batch 0 holds 0,1,2,3 -> mean 1.5.
        assert_eq!(out.get(&[0, 0]), Some(1.5));
    }
}
