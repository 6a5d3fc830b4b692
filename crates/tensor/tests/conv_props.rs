//! Property-based equivalence tests for the gemm-lowered convolution.
//!
//! The im2col + gemm [`conv2d`] must be **bit-for-bit** equal to the
//! naive direct-convolution oracle [`conv2d_direct`] across ragged
//! shapes, strides and padding (both kernels fix the same
//! `(channel, ky, kx)` accumulation order from the same bias seed), and
//! bit-identical to itself for any image split, for any scratch
//! workspace state and whether or not it keeps its patches.

use nds_tensor::conv::{
    conv2d, conv2d_direct, conv2d_keep_patches, conv2d_ws, conv2d_ws_workers, im2col, im2col_image,
    ConvGeometry,
};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, Workspace};
use proptest::prelude::*;

/// Draws a random conv problem. Kernel/stride/padding are clamped so the
/// kernel always fits the padded input (`out_dim > 0`).
#[allow(clippy::too_many_arguments)]
fn rand_problem(
    seed: u64,
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor, Tensor, ConvGeometry) {
    let k = k.min(h + 2 * padding).min(w + 2 * padding).max(1);
    let g = ConvGeometry::new(k, stride, padding);
    let mut rng = Rng64::new(seed);
    let input = Tensor::rand_normal(Shape::d4(n, c, h, w), 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_normal(Shape::d4(oc, c, k, k), 0.0, 0.7, &mut rng);
    let bias = Tensor::rand_normal(Shape::d1(oc), 0.0, 0.5, &mut rng);
    (input, weight, bias, g)
}

/// A zero-channel input is an empty reduction: every output is its bias
/// seed (or zero), as the direct oracle computes.
#[test]
fn zero_channel_conv_is_the_bias() {
    let g = ConvGeometry::new(3, 1, 1);
    let input = Tensor::zeros(Shape::d4(2, 0, 4, 4));
    let weight = Tensor::zeros(Shape::d4(3, 0, 3, 3));
    let bias = Tensor::from_vec(vec![0.5, -1.0, 2.0], Shape::d1(3)).unwrap();
    for b in [None, Some(&bias)] {
        let slow = conv2d_direct(&input, &weight, b, g).unwrap();
        for workers in [1, 2, 3] {
            let fast =
                conv2d_ws_workers(&input, &weight, b, g, &mut Workspace::new(), workers).unwrap();
            assert_eq!(fast.shape(), &Shape::d4(2, 3, 4, 4));
            assert_eq!(fast.as_slice(), slow.as_slice(), "workers = {workers}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked-gemm conv2d is bit-for-bit equal to the direct oracle on
    /// ragged shapes, strides and padding — with and without bias.
    #[test]
    fn conv2d_matches_direct_bitwise(
        seed in 0u64..10_000,
        n in 1usize..4,
        c in 1usize..5,
        oc in 1usize..7,
        h in 1usize..11,
        w in 1usize..11,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, n, c, oc, h, w, k, stride, padding);
        let fast = conv2d(&input, &weight, Some(&bias), g).unwrap();
        let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
        prop_assert_eq!(
            fast.as_slice(),
            slow.as_slice(),
            "bias path diverged: n={} c={} oc={} {}x{} k{} s{} p{}",
            n, c, oc, h, w, g.kernel, stride, padding
        );
        let fast = conv2d(&input, &weight, None, g).unwrap();
        let slow = conv2d_direct(&input, &weight, None, g).unwrap();
        prop_assert_eq!(
            fast.as_slice(),
            slow.as_slice(),
            "bias-free path diverged: n={} c={} oc={} {}x{} k{} s{} p{}",
            n, c, oc, h, w, g.kernel, stride, padding
        );
    }

    /// Zero weights (pruned-network case) and all-zero inputs keep the
    /// bit-for-bit equivalence: the gemm kernel's zero-weight skip is
    /// mirrored by the oracle.
    #[test]
    fn conv2d_matches_direct_with_pruned_weights(
        seed in 0u64..10_000,
        c in 1usize..4,
        oc in 1usize..5,
        h in 2usize..9,
        k in 1usize..4,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, 2, c, oc, h, h, k, 1, 1);
        // Magnitude-prune ~half the weights to exact zero.
        let mut rng = Rng64::new(seed ^ 0xF00D);
        let mut pruned = weight.clone();
        pruned
            .iter_mut()
            .for_each(|v| *v = if rng.bernoulli(0.5) { 0.0 } else { *v });
        let fast = conv2d(&input, &pruned, Some(&bias), g).unwrap();
        let slow = conv2d_direct(&input, &pruned, Some(&bias), g).unwrap();
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    /// The scratch-workspace entry point returns the same bytes whatever
    /// state the pool is in (fresh, warm, oversized buffers).
    #[test]
    fn conv2d_ws_is_insensitive_to_workspace_state(
        seed in 0u64..10_000,
        c in 1usize..4,
        oc in 1usize..5,
        h in 2usize..9,
        k in 1usize..4,
        stride in 1usize..3,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, 2, c, oc, h, h, k, stride, 1);
        let fresh = conv2d(&input, &weight, Some(&bias), g).unwrap();
        let mut warm = Workspace::new();
        warm.recycle(vec![7.0f32; 4096]); // oversized, non-zero garbage
        let a = conv2d_ws(&input, &weight, Some(&bias), g, &mut warm).unwrap();
        let b = conv2d_ws(&input, &weight, Some(&bias), g, &mut warm).unwrap();
        prop_assert_eq!(fresh.as_slice(), a.as_slice());
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Explicit image splits 1–5 are bit-for-bit the direct oracle, on
    /// ragged batches (including n = 1) and strides 1–2. The channel
    /// counts put every image above the ~64k-MAC per-task floor, so the
    /// requested split is the split that runs.
    #[test]
    fn image_splits_match_direct_bitwise(
        seed in 0u64..10_000,
        n in 1usize..8,
        c in 9usize..13,
        oc in 18usize..26,
        h in 16usize..23,
        w in 16usize..23,
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, n, c, oc, h, w, 3, stride, padding);
        let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
        let mut ws = Workspace::new();
        for workers in 1..=5 {
            let fast = conv2d_ws_workers(&input, &weight, Some(&bias), g, &mut ws, workers).unwrap();
            prop_assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "split {} diverged: n={} c={} oc={} {}x{} s{} p{}",
                workers, n, c, oc, h, w, stride, padding
            );
            ws.recycle_tensor(fast);
        }
    }

    /// Keeping the patches (the training forward) changes no output
    /// byte, and leaves each image's im2col matrix in its own slab, at
    /// every split. Shapes as above, so splits of 2–4 really run.
    #[test]
    fn kept_patches_are_each_images_im2col(
        seed in 0u64..10_000,
        n in 1usize..6,
        c in 9usize..13,
        oc in 18usize..26,
        h in 16usize..23,
        stride in 1usize..3,
        workers in 1usize..5,
    ) {
        let (input, weight, bias, g) = rand_problem(seed, n, c, oc, h, h, 3, stride, 1);
        let per_image = c * g.kernel * g.kernel * g.out_dim(h) * g.out_dim(h);
        let mut patches = vec![7.0f32; n * per_image]; // poisoned: all must be written
        let kept = conv2d_keep_patches(&input, &weight, Some(&bias), g, &mut patches, workers).unwrap();
        let plain = conv2d(&input, &weight, Some(&bias), g).unwrap();
        prop_assert_eq!(kept.as_slice(), plain.as_slice());
        let image_len = c * h * h;
        let mut expect = vec![0.0f32; per_image];
        for ni in 0..n {
            im2col_image(&input.as_slice()[ni * image_len..(ni + 1) * image_len], c, h, h, g, &mut expect);
            prop_assert_eq!(&patches[ni * per_image..(ni + 1) * per_image], &expect[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Short output rows: widths 1–17 cross `im2col_image`'s 8-float copy
    /// chunk on both sides, at strides 1 and 2, with padding up to 2 so
    /// kernels overhang the padded edge and some taps read no input row
    /// or column at all. Each image's patch matrix is the batched
    /// [`im2col`]'s slice of columns, and the conv is the direct oracle,
    /// bit for bit.
    #[test]
    fn short_rows_match_batched_im2col_and_direct(
        seed in 0u64..10_000,
        n in 1usize..3,
        c in 1usize..4,
        h in 1usize..6,
        ow in 1usize..18,
        k in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..3,
    ) {
        // The input width that gives `ow` output columns (or the nearest
        // when that width would be empty).
        let w = ((ow - 1) * stride + k).saturating_sub(2 * padding).max(1);
        let (input, weight, bias, g) = rand_problem(seed, n, c, 3, h, w, k, stride, padding);
        let plane = g.out_dim(h) * g.out_dim(w);
        let rows = c * g.kernel * g.kernel;
        let batched = im2col(&input, g).unwrap();
        let image_len = c * h * w;
        let mut per_image = vec![7.0f32; rows * plane]; // poisoned: all must be written
        for ni in 0..n {
            im2col_image(&input.as_slice()[ni * image_len..(ni + 1) * image_len], c, h, w, g, &mut per_image);
            for r in 0..rows {
                let cols = &batched.as_slice()[r * n * plane + ni * plane..r * n * plane + (ni + 1) * plane];
                prop_assert_eq!(
                    &per_image[r * plane..(r + 1) * plane],
                    cols,
                    "image {} row {}: {}x{} k{} s{} p{}",
                    ni, r, h, w, g.kernel, stride, padding
                );
            }
        }
        let fast = conv2d(&input, &weight, Some(&bias), g).unwrap();
        let slow = conv2d_direct(&input, &weight, Some(&bias), g).unwrap();
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }
}
