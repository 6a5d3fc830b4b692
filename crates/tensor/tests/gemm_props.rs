//! Property-based equivalence tests for the optimised matmul kernels.
//!
//! The blocked/parallel kernels must agree with the naive ikj reference
//! on *ragged* shapes (nothing aligned to block, register-tile or worker
//! boundaries) at every worker count, and must be bit-identical to
//! themselves across worker counts. [`gemm`] and `matmul_naive` both add
//! each output element's products in ascending `k` with the same
//! zero-weight skip, so they must agree **bitwise**; the transposed
//! kernels reduce in a different order and are held to a tolerance.

use nds_tensor::ops::{gemm, gemm_acc, gemm_transa, gemm_transb};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn rand_pair(seed: u64, m: usize, k: usize, n: usize, transb: bool) -> (Tensor, Tensor) {
    let mut rng = Rng64::new(seed);
    let a = Tensor::rand_normal(Shape::d2(m, k), 0.0, 1.0, &mut rng);
    let b_shape = if transb {
        Shape::d2(n, k)
    } else {
        Shape::d2(k, n)
    };
    let b = Tensor::rand_normal(b_shape, 0.0, 1.0, &mut rng);
    (a, b)
}

fn assert_close(fast: &[f32], slow: &[f32], k: usize, what: &str) -> Result<(), String> {
    // Tolerance scales with the reduction depth: each output element sums
    // k products of unit-normal values.
    let tol = 1e-5f32 * (k as f32).sqrt().max(1.0) * 8.0;
    for (i, (x, y)) in fast.iter().zip(slow.iter()).enumerate() {
        prop_assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "{what}[{i}]: {x} vs {y} (k = {k})"
        );
    }
    Ok(())
}

/// An empty reduction (`k = 0`) adds nothing: the product is all zeros,
/// and an accumulating call leaves its seed untouched.
#[test]
fn zero_depth_matmul_is_zeros() {
    let a = Tensor::zeros(Shape::d2(2, 0));
    let b = Tensor::zeros(Shape::d2(0, 3));
    let fast = a.matmul(&b).unwrap();
    let slow = a.matmul_naive(&b).unwrap();
    assert_eq!(fast.shape(), &Shape::d2(2, 3));
    assert_eq!(fast.as_slice(), slow.as_slice());
    assert!(fast.iter().all(|&v| v == 0.0));
    for workers in [1, 2, 4] {
        let mut seeded = vec![1.5f32; 6];
        gemm_acc(&[], &[], 2, 0, 3, &mut seeded, workers);
        assert_eq!(seeded, vec![1.5f32; 6]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked parallel matmul is bit-for-bit the naive reference on
    /// ragged shapes, for every worker count: row counts leave 1–3 rows
    /// after the 4-row groups, and widths cross the 64-, 32- and
    /// 16-column tiles and the scalar tail.
    #[test]
    fn matmul_matches_naive(
        seed in 0u64..10_000,
        m in 1usize..80,
        k in 1usize..96,
        n in 1usize..150,
        workers in 1usize..9,
    ) {
        let (a, b) = rand_pair(seed, m, k, n, false);
        let slow = a.matmul_naive(&b).unwrap();
        let mut fast = vec![0.0f32; m * n];
        gemm(a.as_slice(), b.as_slice(), m, k, n, &mut fast, workers);
        prop_assert_eq!(&fast[..], slow.as_slice(), "({}, {}, {}) at {} workers", m, k, n, workers);
    }

    /// The per-row zero-weight skip inside a 4-row group: each row gets
    /// its own density (all zero, sparse, dense), so a group mixes rows
    /// that skip a `k` step with rows that do not. A few infinities in
    /// `B` make a skipped zero weight differ from a multiplied one
    /// (`0 × ∞` is NaN), so compared bit by bit a lost skip shows.
    #[test]
    fn matmul_matches_naive_with_zeros_in_some_rows(
        seed in 0u64..10_000,
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..100,
        workers in 1usize..5,
    ) {
        let (mut a, mut b) = rand_pair(seed, m, k, n, false);
        let mut rng = Rng64::new(seed ^ 0x2E50);
        for row in a.as_mut_slice().chunks_mut(k) {
            let keep = [0.0, 0.3, 1.0][rng.below(3)];
            for v in row.iter_mut() {
                if !rng.bernoulli(keep) {
                    *v = 0.0;
                }
            }
        }
        for v in b.as_mut_slice().iter_mut() {
            if rng.bernoulli(0.05) {
                *v = f32::INFINITY;
            }
        }
        let slow = a.matmul_naive(&b).unwrap();
        let mut fast = vec![0.0f32; m * n];
        gemm(a.as_slice(), b.as_slice(), m, k, n, &mut fast, workers);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&fast),
            bits(slow.as_slice()),
            "({}, {}, {}) at {} workers", m, k, n, workers
        );
    }

    /// `matmul_transb` equals naive-matmul-of-the-transpose on ragged
    /// shapes, for every worker count.
    #[test]
    fn matmul_transb_matches_naive(
        seed in 0u64..10_000,
        m in 1usize..80,
        k in 1usize..96,
        n in 1usize..80,
        workers in 1usize..9,
    ) {
        let (a, bt) = rand_pair(seed, m, k, n, true);
        let slow = a.matmul_naive(&bt.transpose().unwrap()).unwrap();
        let mut fast = vec![0.0f32; m * n];
        gemm_transb(a.as_slice(), bt.as_slice(), m, k, n, &mut fast, workers);
        assert_close(&fast, slow.as_slice(), k, "matmul_transb")?;
    }

    /// `matmul_transa` equals naive matmul of the explicit transpose.
    #[test]
    fn matmul_transa_matches_naive(
        seed in 0u64..10_000,
        r in 1usize..64,
        m in 1usize..48,
        n in 1usize..48,
        workers in 1usize..9,
    ) {
        let mut rng = Rng64::new(seed);
        let at = Tensor::rand_normal(Shape::d2(r, m), 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(Shape::d2(r, n), 0.0, 1.0, &mut rng);
        let slow = at.transpose().unwrap().matmul_naive(&b).unwrap();
        let mut fast = vec![0.0f32; m * n];
        gemm_transa(at.as_slice(), b.as_slice(), r, m, n, &mut fast, workers);
        assert_close(&fast, slow.as_slice(), r, "matmul_transa")?;
    }

    /// Worker count never changes a single bit of the output.
    #[test]
    fn kernels_are_bit_stable_across_worker_counts(
        seed in 0u64..10_000,
        m in 1usize..64,
        k in 1usize..64,
        n in 1usize..64,
    ) {
        let (a, b) = rand_pair(seed, m, k, n, false);
        let mut reference = vec![0.0f32; m * n];
        gemm(a.as_slice(), b.as_slice(), m, k, n, &mut reference, 1);
        for workers in [2usize, 3, 5, 8, 13] {
            let mut out = vec![0.0f32; m * n];
            gemm(a.as_slice(), b.as_slice(), m, k, n, &mut out, workers);
            prop_assert_eq!(&out, &reference, "gemm diverged at {} workers", workers);
        }
        let (a, bt) = rand_pair(seed ^ 1, m, k, n, true);
        let mut reference = vec![0.0f32; m * n];
        gemm_transb(a.as_slice(), bt.as_slice(), m, k, n, &mut reference, 1);
        for workers in [2usize, 4, 7] {
            let mut out = vec![0.0f32; m * n];
            gemm_transb(a.as_slice(), bt.as_slice(), m, k, n, &mut out, workers);
            prop_assert_eq!(&out, &reference, "gemm_transb diverged at {} workers", workers);
        }
    }
}
