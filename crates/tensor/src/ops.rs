//! Linear-algebra and activation operations on [`Tensor`].
//!
//! # Performance notes
//!
//! The matrix kernels here are the workspace's hottest code: one
//! supernet evaluation runs S Monte-Carlo forward passes per input and
//! the evolutionary search performs hundreds of such evaluations. They
//! are therefore written as cache-blocked kernels parallelised over
//! output rows via [`crate::parallel`]:
//!
//! * [`Tensor::matmul`] — `[m, k] × [k, n]`, blocked over the `j`/`k`
//!   dimensions so a `B` panel is reused across every row of a worker's
//!   range instead of being re-streamed from memory per row,
//! * [`Tensor::matmul_transb`] — `A × Bᵀ` with `B` stored `[n, k]`
//!   row-major, the natural layout of linear-layer weights; computes
//!   contiguous dot products with unrolled accumulators and **no
//!   transposed copy of the weights**,
//! * [`Tensor::matmul_transa`] — `Aᵀ × B` by outer-product
//!   accumulation, used by linear backward passes (`dW = gradᵀ · x`),
//! * [`Tensor::matmul_bias`] / [`Tensor::matmul_transb_bias`] — fused
//!   bias-add variants that skip the extra output traversal.
//!
//! All kernels partition work by *output rows*, so every output element
//! is accumulated by exactly one thread in a fixed `k`-ascending order:
//! results are **bit-identical for any worker count**, which the MC
//! engine relies on for reproducible uncertainty estimates. The
//! slice-level entry points ([`gemm`], [`gemm_transb`], …) take an
//! explicit worker count so tests can sweep thread counts without
//! touching the `NDS_THREADS` environment variable.
//!
//! Row tasks are dispatched onto the persistent worker pool in
//! [`crate::parallel`] (no per-call thread spawns); a per-task work floor
//! of ~64k mul-adds keeps small matrices on the inline serial path where
//! even queueing would cost more than the multiply. `conv2d` lowers onto
//! [`gemm_acc`] per image (see [`crate::conv`]), so the convolutional
//! VGG/ResNet paths ride these same kernels.
//!
//! [`gemm_acc`] walks its output in register tiles of **4 rows × 32
//! columns** (then 4 × 16, then a scalar tail; rows left over after the
//! 4-row groups take 1 × 64 and 1 × 16 tiles). Each load of a `B` row
//! feeds four output rows, so a conv's `[OC, C·K·K] × [C·K·K, OH·OW]`
//! product reads its patch matrix a quarter as often as a row-at-a-time
//! walk. The zero-weight skip stays per row and `k` stays strictly
//! ascending per element, so the tile changes no bit: the results equal
//! the naive ikj walk. There is no FMA contraction, re-association or
//! `std::arch` code; the wide tiles are plain loops that LLVM vectorises
//! for the host's SIMD width.

use crate::parallel::{for_each_ragged_chunk_mut_workers, worker_count};
use crate::{Result, Shape, Tensor, TensorError};

/// Column-block width: output row segments of this many `f32`s (1 KiB)
/// stay resident in L1 while a `B` panel streams through.
const BLOCK_N: usize = 256;
/// Depth-block: `BLOCK_K × BLOCK_N` panels of `B` (128 KiB) fit in L2.
const BLOCK_K: usize = 128;
/// Below this many `f32`s (~512 KiB) the whole `B` operand is assumed
/// cache-resident and the kernels skip blocking entirely.
const L2_FLOATS: usize = 128 * 1024;

/// `out[m, n] = a[m, k] × b[k, n]` on raw row-major slices, parallelised
/// over output rows across `workers` threads.
///
/// Accumulation over `k` is ascending for every output element
/// regardless of blocking or worker count, so results are bit-identical
/// across thread counts.
///
/// # Panics
///
/// Panics (in debug builds) when the slice lengths disagree with the
/// dimensions; the safe [`Tensor::matmul`] wrapper validates shapes.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32], workers: usize) {
    out.fill(0.0);
    gemm_acc(a, b, m, k, n, out, workers);
}

/// Accumulating variant of [`gemm`]: `out += a × b`. Backward passes use
/// this to fold several gradient contributions into one buffer without
/// temporaries.
pub fn gemm_acc(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    workers: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        // An empty reduction adds nothing: `out` keeps its seed.
        return;
    }
    let rows_per_task = rows_per_task(m, k * n, workers);
    // When the whole B operand is L2-resident, blocking only adds loop
    // overhead — stream it row by row (plain ikj) instead.
    let block = k * n > L2_FLOATS;
    for_each_ragged_chunk_mut_workers(out, rows_per_task * n, workers, |task, out_rows| {
        let row0 = task * rows_per_task;
        let rows = out_rows.len() / n;
        let (bn, bk) = if block { (BLOCK_N, BLOCK_K) } else { (n, k) };
        for jb in (0..n).step_by(bn) {
            let jend = (jb + bn).min(n);
            for kb in (0..k).step_by(bk) {
                let kend = (kb + bk).min(k);
                let arow = |r: usize| &a[(row0 + r) * k + kb..(row0 + r) * k + kend];
                let mut r = 0;
                while r + 4 <= rows {
                    let arows = [arow(r), arow(r + 1), arow(r + 2), arow(r + 3)];
                    gemm_acc_panel(arows, b, kb, n, jb, jend, &mut out_rows[r * n..]);
                    r += 4;
                }
                for r in r..rows {
                    gemm_acc_panel([arow(r)], b, kb, n, jb, jend, &mut out_rows[r * n..]);
                }
            }
        }
    });
}

/// One `out[r] += arows[r]ᵀ · B[kb.., jb..jend]` panel of [`gemm_acc`]
/// for `R` output rows at once (`out` starts at row 0 of the group,
/// rows `n` floats apart). The rows are walked in register tiles — for
/// a 4-row group 32 columns, then 16; for a lone row 64, then 16 — and a
/// scalar tail. A tile accumulates every `k` contribution of the panel
/// before touching memory again, and in a 4-row group each load of a
/// `B` row feeds all four output rows. Wide tiles matter beyond the
/// saved traffic: each column's accumulator is a loop-carried
/// dependency with FP-add latency, so a tile of 4 × 32 (or 1 × 64)
/// columns gives the core several independent 16-lane chains to
/// interleave per `k` step. Zero `A` entries are skipped per row so
/// magnitude-pruned weights keep their discount.
///
/// **Bit-identical to the naive ikj walk**: each output element receives
/// its contributions one addition at a time in strictly ascending `k`
/// order — the tile holds one independent accumulator per element,
/// never a re-associated sum.
#[inline]
fn gemm_acc_panel<const R: usize>(
    arows: [&[f32]; R],
    b: &[f32],
    kb: usize,
    n: usize,
    jb: usize,
    jend: usize,
    out: &mut [f32],
) {
    let width = jend - jb;
    let mut j0 = 0;
    if R == 1 {
        while j0 + 64 <= width {
            gemm_acc_tile::<R, 64>(arows, b, kb * n + jb + j0, n, &mut out[jb + j0..]);
            j0 += 64;
        }
    } else {
        while j0 + 32 <= width {
            gemm_acc_tile::<R, 32>(arows, b, kb * n + jb + j0, n, &mut out[jb + j0..]);
            j0 += 32;
        }
    }
    while j0 + 16 <= width {
        gemm_acc_tile::<R, 16>(arows, b, kb * n + jb + j0, n, &mut out[jb + j0..]);
        j0 += 16;
    }
    if j0 < width {
        // Ragged tail narrower than a tile: plain per-k row walk.
        for (r, arow) in arows.iter().enumerate() {
            let orow = &mut out[r * n + jb + j0..r * n + jend];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let base = (kb + p) * n + jb;
                let brow = &b[base + j0..base + width];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One `R × T` register tile of [`gemm_acc_panel`]: loads `T` columns of
/// each of the `R` output rows once, folds in every `k` step in
/// ascending order (one `B` row load per step, shared by all `R` rows),
/// stores once. `bbase` is the flat index of the tile's first column in
/// the panel's first `B` row; successive `k` rows sit `n` floats apart,
/// as do the output rows in `out`.
#[inline]
fn gemm_acc_tile<const R: usize, const T: usize>(
    arows: [&[f32]; R],
    b: &[f32],
    bbase: usize,
    n: usize,
    out: &mut [f32],
) {
    let klen = arows[0].len();
    // Equal-length views let the compiler drop the per-k bounds checks.
    let arows = arows.map(|row| &row[..klen]);
    let mut acc = [[0.0f32; T]; R];
    for (r, tile) in acc.iter_mut().enumerate() {
        tile.copy_from_slice(&out[r * n..r * n + T]);
    }
    // `chunks(n)` walks the B rows without per-k offset arithmetic; the
    // last row may be a short chunk, but it still holds the tile.
    for (p, brow) in b[bbase..].chunks(n).take(klen).enumerate() {
        let brow: &[f32; T] = brow[..T].try_into().expect("the chunk holds the tile");
        // An index loop, not a zip over `acc`: with the iterator the
        // compiler kept the tile in memory, about 5× slower.
        for r in 0..R {
            axpy(&mut acc[r], arows[r][p], brow);
        }
    }
    for (r, tile) in acc.iter().enumerate() {
        out[r * n..r * n + T].copy_from_slice(tile);
    }
}

/// `tile += av · brow`, one element at a time. Skipping a zero `av`
/// keeps magnitude-pruned networks cheap and never reorders the k-sum.
/// Fixed-size arrays and forced inlining let the compiler keep the
/// whole `R × T` tile in registers across the k loop.
#[inline(always)]
fn axpy<const T: usize>(tile: &mut [f32; T], av: f32, brow: &[f32; T]) {
    if av != 0.0 {
        for (o, &bv) in tile.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

/// `out[m, n] = a[m, k] × bt[n, k]ᵀ` on raw row-major slices — `bt` holds
/// the *already transposed* right operand (one row per output column),
/// so each output element is a dot product of two contiguous rows.
///
/// This is the linear-layer forward kernel: weights are stored
/// `[out_features, in_features]` and never copied.
pub fn gemm_transb(
    a: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    workers: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let rows_per_task = rows_per_task(m, k * n, workers);
    for_each_ragged_chunk_mut_workers(out, rows_per_task * n, workers, |task, out_rows| {
        let row0 = task * rows_per_task;
        for (r, orow) in out_rows.chunks_mut(n).enumerate() {
            let arow = &a[(row0 + r) * k..(row0 + r) * k + k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    });
}

/// Accumulating variant of [`gemm_transb`]: `out += a × btᵀ`. The conv2d
/// backward uses this to fold per-image weight-gradient contributions
/// into one buffer without temporaries.
pub fn gemm_transb_acc(
    a: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    workers: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let rows_per_task = rows_per_task(m, k * n, workers);
    for_each_ragged_chunk_mut_workers(out, rows_per_task * n, workers, |task, out_rows| {
        let row0 = task * rows_per_task;
        for (r, orow) in out_rows.chunks_mut(n).enumerate() {
            let arow = &a[(row0 + r) * k..(row0 + r) * k + k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o += dot(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    });
}

/// `out[m, n] = at[r, m]ᵀ × b[r, n]` on raw row-major slices — the shared
/// leading dimension `r` of both operands is reduced by outer-product
/// accumulation. Used by linear backward passes (`dW = gradᵀ · x`)
/// without materialising the transposed gradient.
pub fn gemm_transa(
    at: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
    workers: usize,
) {
    out.fill(0.0);
    gemm_transa_acc(at, b, r, m, n, out, workers);
}

/// Accumulating variant of [`gemm_transa`]: `out += atᵀ × b`.
pub fn gemm_transa_acc(
    at: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
    workers: usize,
) {
    debug_assert_eq!(at.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let rows_per_task = rows_per_task(m, r * n, workers);
    for_each_ragged_chunk_mut_workers(out, rows_per_task * n, workers, |task, out_rows| {
        let row0 = task * rows_per_task;
        let rows = out_rows.len() / n;
        for i in 0..r {
            let brow = &b[i * n..(i + 1) * n];
            for r_local in 0..rows {
                let av = at[i * m + row0 + r_local];
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out_rows[r_local * n..(r_local + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// Contiguous dot product with eight independent accumulators (keeps the
/// FP dependency chain short enough for the compiler to vectorise;
/// `chunks_exact` removes the bounds checks from the hot loop).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let (mut a4, mut a5, mut a6, mut a7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut xs = a.chunks_exact(8);
    let mut ys = b.chunks_exact(8);
    for (x, y) in xs.by_ref().zip(ys.by_ref()) {
        a0 += x[0] * y[0];
        a1 += x[1] * y[1];
        a2 += x[2] * y[2];
        a3 += x[3] * y[3];
        a4 += x[4] * y[4];
        a5 += x[5] * y[5];
        a6 += x[6] * y[6];
        a7 += x[7] * y[7];
    }
    let tail: f32 = xs
        .remainder()
        .iter()
        .zip(ys.remainder().iter())
        .map(|(&x, &y)| x * y)
        .sum();
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) + tail
}

/// Picks how many output rows each parallel task should own: enough that
/// per-task work dominates dispatch overhead, while still splitting `m`
/// across all workers. `flops_per_row` approximates the work per row.
pub(crate) fn rows_per_task(m: usize, flops_per_row: usize, workers: usize) -> usize {
    if workers <= 1 {
        return m;
    }
    // Target at least ~64k mul-adds per task (tens of microseconds of
    // compute) so pool-queue overhead stays a small fraction and tiny
    // matrices run serial.
    let min_rows = 65_536usize.div_ceil(flops_per_row.max(1));
    m.div_ceil(workers).max(min_rows).min(m)
}

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Cache-blocked and parallelised over output rows (see the module
    /// docs); bit-identical across worker counts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other, "matmul")?;
        let mut out = vec![0.0f32; m * n];
        gemm(
            self.as_slice(),
            other.as_slice(),
            m,
            k,
            n,
            &mut out,
            worker_count(),
        );
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Reference single-threaded ikj matmul — the seed kernel, kept as
    /// the oracle the optimised kernels are property-tested against.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`].
    pub fn matmul_naive(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other, "matmul")?;
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Fused `self × otherᵀ` where `other` is stored `[n, k]` row-major:
    /// `[m, k] × [n, k]ᵀ → [m, n]` with **no transposed copy**.
    ///
    /// This is the natural orientation of linear-layer weights
    /// (`[out_features, in_features]`), so `x.matmul_transb(&w)` replaces
    /// the seed's `x.matmul(&w.transpose()?)` and its per-forward
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when the operands are incompatible.
    pub fn matmul_transb(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_transb_dims(self, other)?;
        let mut out = vec![0.0f32; m * n];
        gemm_transb(
            self.as_slice(),
            other.as_slice(),
            m,
            k,
            n,
            &mut out,
            worker_count(),
        );
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Fused `selfᵀ × other` where both operands share their leading
    /// dimension: `[r, m]ᵀ × [r, n] → [m, n]`.
    ///
    /// Linear backward uses this for `dW = gradᵀ · x` without
    /// materialising the transposed gradient.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when the operands are incompatible.
    pub fn matmul_transa(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 2 || other.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul_transa",
                expected: 2,
                actual: if self.shape().rank() != 2 {
                    self.shape().rank()
                } else {
                    other.shape().rank()
                },
            });
        }
        let (r, m) = (self.shape().dim(0), self.shape().dim(1));
        let (r2, n) = (other.shape().dim(0), other.shape().dim(1));
        if r != r2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transa",
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_transa(
            self.as_slice(),
            other.as_slice(),
            r,
            m,
            n,
            &mut out,
            worker_count(),
        );
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Fused `self × other + bias` (bias broadcast over rows), saving the
    /// separate [`Tensor::add_row_bias`] traversal.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when the operands are incompatible.
    pub fn matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other, "matmul_bias")?;
        check_bias(bias, n, "matmul_bias", self)?;
        let mut out = vec![0.0f32; m * n];
        gemm(
            self.as_slice(),
            other.as_slice(),
            m,
            k,
            n,
            &mut out,
            worker_count(),
        );
        add_bias_rows(&mut out, bias.as_slice(), n);
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Fused `self × otherᵀ + bias` — the complete linear-layer forward
    /// (`y = x · Wᵀ + b`) in one kernel: no weight transpose, no second
    /// pass for the bias.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors when the operands are incompatible.
    pub fn matmul_transb_bias(&self, other: &Tensor, bias: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_transb_dims(self, other)?;
        check_bias(bias, n, "matmul_transb_bias", self)?;
        let mut out = vec![0.0f32; m * n];
        gemm_transb(
            self.as_slice(),
            other.as_slice(),
            m,
            k,
            n,
            &mut out,
            worker_count(),
        );
        add_bias_rows(&mut out, bias.as_slice(), n);
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, Shape::d2(n, m))
    }

    /// Matrix–vector product: `[m, k] × [k] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns a rank or shape error when the operands are incompatible.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matvec",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        if v.shape().rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "matvec",
                expected: 1,
                actual: v.shape().rank(),
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        if v.len() != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape().clone(),
                rhs: v.shape().clone(),
            });
        }
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            out[i] = row.iter().zip(x.iter()).map(|(&r, &xv)| r * xv).sum();
        }
        Tensor::from_vec(out, Shape::d1(m))
    }

    /// Rectified linear unit, elementwise `max(0, x)`.
    ///
    /// NaN inputs propagate to the output (Rust's `f32::max` would launder
    /// them to zero, hiding numerical blow-ups from downstream checks).
    pub fn relu(&self) -> Tensor {
        self.map(|v| if v > 0.0 || v.is_nan() { v } else { 0.0 })
    }

    /// Numerically-stable softmax along the last axis of a rank-2 tensor.
    ///
    /// Each row is shifted by its max before exponentiation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f64;
            for j in 0..n {
                let e = (row[j] - max).exp();
                out[i * n + j] = e;
                sum += e as f64;
            }
            let inv = (1.0 / sum) as f32;
            for j in 0..n {
                out[i * n + j] *= inv;
            }
        }
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// In-place [`Tensor::softmax_rows`]: overwrites the tensor with its
    /// row-wise softmax without allocating an output buffer.
    ///
    /// Bit-identical to the allocating variant (same shift, exponential
    /// and `f64` row-sum order) — the allocation-free inference path uses
    /// this on logits it already owns.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 tensors.
    pub fn softmax_rows_inplace(&mut self) -> Result<()> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows_inplace",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let n = self.shape().dim(1);
        if n == 0 {
            return Ok(());
        }
        for row in self.as_mut_slice().chunks_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f64;
            for v in row.iter_mut() {
                let e = (*v - max).exp();
                *v = e;
                sum += e as f64;
            }
            let inv = (1.0 / sum) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        Ok(())
    }

    /// Log-softmax along the last axis of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs.
    pub fn log_softmax_rows(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "log_softmax_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &a[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f64 = row
                .iter()
                .map(|&v| ((v - max) as f64).exp())
                .sum::<f64>()
                .ln();
            for j in 0..n {
                out[i * n + j] = row[j] - max - log_sum as f32;
            }
        }
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// Sums a rank-2 tensor over its rows, producing a `[cols]` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                out[j] += a[i * n + j];
            }
        }
        Tensor::from_vec(out, Shape::d1(n))
    }

    /// Adds a `[cols]` bias vector to every row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns a rank/shape error when operands are incompatible.
    pub fn add_row_bias(&self, bias: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "add_row_bias",
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        if bias.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_bias",
                lhs: self.shape().clone(),
                rhs: bias.shape().clone(),
            });
        }
        let a = self.as_slice();
        let b = bias.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = a[i * n + j] + b[j];
            }
        }
        Tensor::from_vec(out, Shape::d2(m, n))
    }
}

fn matmul_dims(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: b.shape().rank(),
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    Ok((m, k, n))
}

fn matmul_transb_dims(a: &Tensor, bt: &Tensor) -> Result<(usize, usize, usize)> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul_transb",
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if bt.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul_transb",
            expected: 2,
            actual: bt.shape().rank(),
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (n, k2) = (bt.shape().dim(0), bt.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.shape().clone(),
            rhs: bt.shape().clone(),
        });
    }
    Ok((m, k, n))
}

fn check_bias(bias: &Tensor, n: usize, op: &'static str, lhs: &Tensor) -> Result<()> {
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.shape().clone(),
            rhs: bias.shape().clone(),
        });
    }
    Ok(())
}

/// Adds `bias` (length `n`) to every `n`-wide row of `out` — the bias
/// pass shared by the fused matmul variants and the pooled linear-layer
/// forward, kept in one place so both add in the same element order.
pub fn add_bias_rows(out: &mut [f32], bias: &[f32], n: usize) {
    for row in out.chunks_mut(n.max(1)) {
        for (o, &b) in row.iter_mut().zip(bias.iter()) {
            *o += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn t2(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::d2(rows, cols)).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_validates_shapes() {
        let a = t2(2, 3, &[0.0; 6]);
        let b = t2(2, 3, &[0.0; 6]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(Shape::d1(3));
        assert!(v.matmul(&b).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_across_block_boundaries() {
        let mut rng = Rng64::new(7);
        // Sizes straddling BLOCK_N / BLOCK_K boundaries and ragged shapes;
        // the last two exceed L2_FLOATS, so they take the blocked walk.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (17, 31, 13),
            (64, 128, 256),
            (65, 129, 257),
            (130, 300, 70),
            (9, 300, 501),
            (6, 700, 260),
        ] {
            let a = Tensor::rand_normal(Shape::d2(m, k), 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(Shape::d2(k, n), 0.0, 1.0, &mut rng);
            let fast = a.matmul(&b).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert_eq!(fast.as_slice(), slow.as_slice(), "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_is_bit_identical_across_worker_counts() {
        let mut rng = Rng64::new(8);
        let (m, k, n) = (37, 53, 29);
        let a = Tensor::rand_normal(Shape::d2(m, k), 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(Shape::d2(k, n), 0.0, 1.0, &mut rng);
        let mut reference = vec![0.0f32; m * n];
        gemm(a.as_slice(), b.as_slice(), m, k, n, &mut reference, 1);
        for workers in [2, 3, 5, 8, 16] {
            let mut out = vec![0.0f32; m * n];
            gemm(a.as_slice(), b.as_slice(), m, k, n, &mut out, workers);
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let mut rng = Rng64::new(9);
        for (m, k, n) in [(1, 4, 1), (5, 7, 3), (33, 65, 17)] {
            let a = Tensor::rand_normal(Shape::d2(m, k), 0.0, 1.0, &mut rng);
            let bt = Tensor::rand_normal(Shape::d2(n, k), 0.0, 1.0, &mut rng);
            let fused = a.matmul_transb(&bt).unwrap();
            let reference = a.matmul_naive(&bt.transpose().unwrap()).unwrap();
            assert_eq!(fused.shape(), &Shape::d2(m, n));
            for (x, y) in fused.iter().zip(reference.iter()) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let mut rng = Rng64::new(10);
        for (r, m, n) in [(1, 2, 3), (8, 5, 7), (40, 21, 11)] {
            let at = Tensor::rand_normal(Shape::d2(r, m), 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(Shape::d2(r, n), 0.0, 1.0, &mut rng);
            let fused = at.matmul_transa(&b).unwrap();
            let reference = at.transpose().unwrap().matmul_naive(&b).unwrap();
            assert_eq!(fused.shape(), &Shape::d2(m, n));
            for (x, y) in fused.iter().zip(reference.iter()) {
                assert!((x - y).abs() < 1e-4, "({r},{m},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn fused_bias_variants_match_two_step() {
        let mut rng = Rng64::new(11);
        let (m, k, n) = (9, 14, 6);
        let a = Tensor::rand_normal(Shape::d2(m, k), 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(Shape::d2(k, n), 0.0, 1.0, &mut rng);
        let bt = b.transpose().unwrap();
        let bias = Tensor::rand_normal(Shape::d1(n), 0.0, 1.0, &mut rng);
        let two_step = a.matmul(&b).unwrap().add_row_bias(&bias).unwrap();
        let fused = a.matmul_bias(&b, &bias).unwrap();
        let fused_t = a.matmul_transb_bias(&bt, &bias).unwrap();
        for ((x, y), z) in fused.iter().zip(two_step.iter()).zip(fused_t.iter()) {
            assert!((x - y).abs() < 1e-5);
            assert!((z - y).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_variants_validate_shapes() {
        let a = t2(2, 3, &[0.0; 6]);
        let good_bt = t2(4, 3, &[0.0; 12]);
        let bad_bt = t2(4, 2, &[0.0; 8]);
        assert!(a.matmul_transb(&good_bt).is_ok());
        assert!(a.matmul_transb(&bad_bt).is_err());
        let bad_bias = Tensor::zeros(Shape::d1(3));
        let good_bias = Tensor::zeros(Shape::d1(4));
        assert!(a.matmul_transb_bias(&good_bt, &good_bias).is_ok());
        assert!(a.matmul_transb_bias(&good_bt, &bad_bias).is_err());
        let b = t2(3, 4, &[0.0; 12]);
        assert!(a.matmul_bias(&b, &good_bias).is_ok());
        assert!(a.matmul_bias(&b, &bad_bias).is_err());
        // transa: leading dims must agree.
        let at = t2(5, 2, &[0.0; 10]);
        let bad = t2(4, 3, &[0.0; 12]);
        assert!(at.matmul_transa(&bad).is_err());
    }

    #[test]
    fn transpose_swaps_axes() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose().unwrap();
        assert_eq!(at.shape(), &Shape::d2(3, 2));
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = Tensor::from_vec(vec![1.0, 0.0, -1.0], Shape::d1(3)).unwrap();
        let got = a.matvec(&v).unwrap();
        assert_eq!(got.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Tensor::from_vec(vec![-1.0, 0.0, 2.0], Shape::d1(3)).unwrap();
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let row_sum: f32 = s.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {i} sums to {row_sum}");
        }
        // The huge-logit row must not overflow to NaN.
        assert!(s.all_finite());
        // Equal logits give the uniform distribution.
        for j in 0..3 {
            assert!((s.get(&[1, j]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_inplace_is_bit_identical_to_allocating() {
        let a = t2(
            3,
            4,
            &[
                1.0, 2.0, 3.0, 4.0, -1.5, 0.0, 7.25, -3.0, 1000.0, 999.0, 1000.0, 998.5,
            ],
        );
        let reference = a.softmax_rows().unwrap();
        let mut inplace = a.clone();
        inplace.softmax_rows_inplace().unwrap();
        assert_eq!(
            inplace.as_slice(),
            reference.as_slice(),
            "must match bitwise"
        );
        assert_eq!(inplace.shape(), reference.shape());
        let mut bad = Tensor::zeros(Shape::d1(3));
        assert!(bad.softmax_rows_inplace().is_err());
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let a = t2(1, 4, &[0.5, -0.5, 2.0, 0.0]);
        let s = a.softmax_rows().unwrap();
        let ls = a.log_softmax_rows().unwrap();
        for j in 0..4 {
            let expect = s.get(&[0, j]).unwrap().ln();
            assert!((ls.get(&[0, j]).unwrap() - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_rows_and_bias() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum_rows().unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        let bias = Tensor::from_vec(vec![10.0, 20.0, 30.0], Shape::d1(3)).unwrap();
        let c = a.add_row_bias(&bias).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }
}
