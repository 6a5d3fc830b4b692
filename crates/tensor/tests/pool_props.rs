//! Property tests for max pooling.
//!
//! The inference entry point [`max_pool2d_ws`] must return the training
//! entry point [`max_pool2d`]'s output **bit for bit**, and both must
//! match a naive per-window reference — outputs by bit pattern, argmax by
//! index — across kernels 1–4, strides 1–3, padding 0–3 (wider than the
//! window too, which makes windows lie wholly in the padding) and ragged
//! `N, C, H, W`. The inputs plant the cases a plain `max` gets wrong:
//! NaNs with distinct payloads (the last one in `(ky, kx)` order wins),
//! `-0.0`/`+0.0` ties (the first one wins) and windows of `-inf` (the
//! first tap is the argmax).

use nds_tensor::conv::{max_pool2d, max_pool2d_ws, ConvGeometry, MaxPoolOutput};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, Workspace};
use proptest::prelude::*;

/// A quiet NaN carrying `payload` in its mantissa.
fn nan_with(payload: u32) -> f32 {
    f32::from_bits(0x7fc0_0000 | (payload & 0x003f_ffff))
}

/// Per-window reference: the first in-bounds tap seeds the window, and
/// each later tap in ascending `(ky, kx)` order replaces it when larger
/// or NaN. A window wholly in the padding gives `(-inf, 0)`.
fn naive_pool(x: &[f32], n: usize, c: usize, h: usize, w: usize, g: ConvGeometry) -> MaxPoolOutput {
    let (oh, ow) = (g.out_dim(h), g.out_dim(w));
    let mut out = Vec::with_capacity(n * c * oh * ow);
    let mut argmax = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut seen: Option<(f32, usize)> = None;
                for ky in 0..g.kernel {
                    for kx in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        let i = plane * h * w + iy as usize * w + ix as usize;
                        let v = x[i];
                        seen = match seen {
                            None => Some((v, i)),
                            Some((best, _)) if v > best || v.is_nan() => Some((v, i)),
                            keep => keep,
                        };
                    }
                }
                let (best, i) = seen.unwrap_or((f32::NEG_INFINITY, 0));
                out.push(best);
                argmax.push(i);
            }
        }
    }
    MaxPoolOutput {
        output: Tensor::from_vec(out, Shape::d4(n, c, oh, ow)).unwrap(),
        argmax,
    }
}

/// An input mixing normals with the planted hard cases: signed zeros,
/// `-inf`, repeated small values (ties) and NaNs of distinct payloads.
fn planted_input(seed: u64, shape: Shape, nan_rate: f64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let mut next_payload = 1u32;
    let data = (0..shape.len())
        .map(|_| {
            if rng.bernoulli(nan_rate) {
                next_payload += 1;
                return nan_with(next_payload);
            }
            match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::NEG_INFINITY,
                3 => 1.0,
                _ => rng.normal_with(0.0, 1.0),
            }
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Pools `input` through both entry points and checks them against the
/// reference and each other.
fn check(input: &Tensor, g: ConvGeometry, ws: &mut Workspace) -> std::result::Result<(), String> {
    let (n, c, h, w) = input.shape().as_nchw().unwrap();
    let reference = naive_pool(input.as_slice(), n, c, h, w, g);
    let trained = max_pool2d(input, g).map_err(|e| e.to_string())?;
    let served = max_pool2d_ws(input, g, ws).map_err(|e| e.to_string())?;
    let what = format!("{n}x{c}x{h}x{w} k{} s{} p{}", g.kernel, g.stride, g.padding);
    if bits(&trained.output) != bits(&reference.output) {
        return Err(format!(
            "max_pool2d output differs from the reference: {what}"
        ));
    }
    if trained.argmax != reference.argmax {
        return Err(format!(
            "max_pool2d argmax differs from the reference: {what}"
        ));
    }
    if bits(&served) != bits(&trained.output) {
        return Err(format!(
            "max_pool2d_ws output differs from max_pool2d: {what}"
        ));
    }
    if served.shape() != trained.output.shape() {
        return Err(format!("shape mismatch: {what}"));
    }
    ws.recycle_tensor(served);
    Ok(())
}

/// The last NaN of a window in `(ky, kx)` order wins, payload and all.
#[test]
fn last_nan_in_walk_order_wins() {
    let input = Tensor::from_vec(
        vec![1.0, nan_with(7), nan_with(9), 2.0],
        Shape::d4(1, 1, 2, 2),
    )
    .unwrap();
    let g = ConvGeometry::new(2, 2, 0);
    let pooled = max_pool2d(&input, g).unwrap();
    assert_eq!(pooled.output.as_slice()[0].to_bits(), nan_with(9).to_bits());
    assert_eq!(pooled.argmax, vec![2]);
    let served = max_pool2d_ws(&input, g, &mut Workspace::new()).unwrap();
    assert_eq!(bits(&served), bits(&pooled.output));
}

/// Among equal values the first wins: `-0.0` before `+0.0` stays `-0.0`.
#[test]
fn first_of_signed_zero_tie_wins() {
    let input = Tensor::from_vec(vec![-0.0, 0.0, -1.0, 0.0], Shape::d4(1, 1, 2, 2)).unwrap();
    let g = ConvGeometry::new(2, 2, 0);
    let pooled = max_pool2d(&input, g).unwrap();
    assert_eq!(pooled.output.as_slice()[0].to_bits(), (-0.0f32).to_bits());
    assert_eq!(pooled.argmax, vec![0]);
}

/// A window of `-inf` outputs `-inf` with its first tap as the argmax,
/// in the interior and on a padded edge alike.
#[test]
fn all_neg_inf_window_keeps_its_first_tap() {
    let input = Tensor::from_vec(vec![f32::NEG_INFINITY; 16], Shape::d4(1, 1, 4, 4)).unwrap();
    let pooled = max_pool2d(&input, ConvGeometry::new(2, 2, 0)).unwrap();
    assert!(pooled
        .output
        .as_slice()
        .iter()
        .all(|&v| v == f32::NEG_INFINITY));
    assert_eq!(pooled.argmax, vec![0, 2, 8, 10]);
    let padded = max_pool2d(&input, ConvGeometry::new(3, 2, 1)).unwrap();
    assert_eq!(padded.argmax, vec![0, 1, 4, 5]);
}

/// Padding wider than the window puts whole windows in the padding,
/// past the last row and column too: they output `-inf` with argmax 0.
#[test]
fn windows_wholly_in_the_padding_are_neg_inf() {
    let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d4(1, 1, 2, 2)).unwrap();
    let g = ConvGeometry::new(1, 1, 2);
    let pooled = max_pool2d(&input, g).unwrap();
    assert_eq!(pooled.output.shape(), &Shape::d4(1, 1, 6, 6));
    let out = pooled.output.as_slice();
    assert_eq!(out[2 * 6 + 2..2 * 6 + 4], [1.0, 2.0]);
    assert_eq!(out[3 * 6 + 2..3 * 6 + 4], [3.0, 4.0]);
    assert_eq!(out[3 * 6 + 5], f32::NEG_INFINITY);
    assert_eq!(pooled.argmax[3 * 6 + 5], 0);
    let served = max_pool2d_ws(&input, g, &mut Workspace::new()).unwrap();
    assert_eq!(bits(&served), bits(&pooled.output));
    let mut ws = Workspace::new();
    assert_eq!(check(&input, g, &mut ws), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both entry points match the reference over the whole geometry
    /// grid on ragged shapes with planted NaNs, ties and `-inf`.
    #[test]
    fn pooling_matches_the_reference_bitwise(
        seed in 0u64..100_000,
        n in 1usize..4,
        c in 1usize..4,
        h in 1usize..12,
        w in 1usize..12,
        k in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..4,
        nan_level in 0usize..3,
    ) {
        let k = k.min(h + 2 * padding).min(w + 2 * padding);
        let g = ConvGeometry::new(k, stride, padding);
        let nan_rate = [0.0, 0.02, 0.2][nan_level];
        let input = planted_input(seed, Shape::d4(n, c, h, w), nan_rate);
        let mut ws = Workspace::new();
        prop_assert_eq!(check(&input, g, &mut ws), Ok(()));
        // A warm, dirty workspace changes nothing.
        prop_assert_eq!(check(&input, g, &mut ws), Ok(()));
    }

    /// Mostly `-inf` inputs make whole windows of `-inf`, where only the
    /// first-tap rule decides the argmax.
    #[test]
    fn neg_inf_windows_match_the_reference(
        seed in 0u64..100_000,
        h in 2usize..10,
        w in 2usize..10,
        k in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..4,
    ) {
        let k = k.min(h + 2 * padding).min(w + 2 * padding);
        let g = ConvGeometry::new(k, stride, padding);
        let mut rng = Rng64::new(seed);
        let data = (0..2 * h * w)
            .map(|_| if rng.bernoulli(0.9) { f32::NEG_INFINITY } else { rng.normal_with(0.0, 1.0) })
            .collect();
        let input = Tensor::from_vec(data, Shape::d4(1, 2, h, w)).unwrap();
        prop_assert_eq!(check(&input, g, &mut Workspace::new()), Ok(()));
    }
}
