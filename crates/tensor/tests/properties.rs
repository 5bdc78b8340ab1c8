//! Property tests for the blocked GEMM kernel layer and the fused
//! convolution path: every optimized kernel must agree with its naive
//! reference across adversarial shapes (non-multiples of the tile sizes,
//! degenerate dimensions, strides, padding, 1x1 kernels).

use epim_tensor::ops::{conv2d, conv2d_backward, gemm, linear, linear_backward, Conv2dCfg};
use epim_tensor::{init, rng, Tensor};
use proptest::prelude::*;

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut r = rng::seeded(seed);
    init::uniform(shape, -1.0, 1.0, &mut r)
}

/// f64-accumulated dense reference for C = A · B.
fn matmul_f64(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked GEMM matches an f64 reference on arbitrary (odd) shapes.
    #[test]
    fn gemm_matches_reference((m, n, k, seed) in (1usize..80, 1usize..80, 1usize..300, 0u64..1000)) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 1);
        let want = matmul_f64(m, n, k, a.data(), b.data());
        let got = a.matmul(&b).unwrap();
        prop_assert!(max_abs_diff(got.data(), &want) < 1e-4,
            "gemm {}x{}x{} diff {}", m, n, k, max_abs_diff(got.data(), &want));
    }

    /// gemm_tn and linear's `x · Wᵀ` match explicitly materialized
    /// transposes.
    #[test]
    fn transposed_variants_match((m, n, k, seed) in (1usize..48, 1usize..48, 1usize..200, 0u64..1000)) {
        // gemm_tn: A stored (k x m).
        let a_t = tensor(&[k, m], seed);
        let b = tensor(&[k, n], seed ^ 3);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_tn(m, n, k, a_t.data(), b.data(), &mut got);
        let want = a_t.transpose().unwrap().matmul(&b).unwrap();
        prop_assert!(max_abs_diff(&got, want.data()) < 1e-4, "gemm_tn {}x{}x{}", m, n, k);

        // linear: W stored (n x k).
        let a = tensor(&[m, k], seed ^ 4);
        let b_t = tensor(&[n, k], seed ^ 5);
        let got = linear(&a, &b_t, None).unwrap();
        let want = a.matmul(&b_t.transpose().unwrap()).unwrap();
        prop_assert!(max_abs_diff(got.data(), want.data()) < 1e-4, "linear {}x{}x{}", m, n, k);
    }

    /// Fused linear (bias folded into the GEMM prefill) matches the
    /// two-pass reference.
    #[test]
    fn linear_bias_fusion_matches((n, fin, fout, seed) in (1usize..20, 1usize..40, 1usize..40, 0u64..1000)) {
        let x = tensor(&[n, fin], seed);
        let w = tensor(&[fout, fin], seed ^ 8);
        let b = tensor(&[fout], seed ^ 9);
        let got = linear(&x, &w, Some(&b)).unwrap();
        // Reference: matmul against the materialized transpose, then add.
        let mut want = x.matmul(&w.transpose().unwrap()).unwrap();
        for row in want.data_mut().chunks_mut(fout) {
            for (y, &bv) in row.iter_mut().zip(b.data()) {
                *y += bv;
            }
        }
        prop_assert!(got.allclose(&want, 1e-4).unwrap());
    }

    /// conv2d_backward's GEMM-based dW agrees with a direct accumulation.
    #[test]
    fn conv_backward_dw_matches_direct((seed, stride) in (0u64..1000, 1usize..=2)) {
        let cfg = Conv2dCfg { stride, padding: 1 };
        let x = tensor(&[2, 3, 6, 6], seed);
        let w = tensor(&[4, 3, 3, 3], seed ^ 10);
        let y = conv2d(&x, &w, None, cfg).unwrap();
        let g = conv2d_backward(&x, &w, &y, cfg).unwrap();

        // Direct dW: correlate input with dy.
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        let direct_dw = Tensor::from_fn(&[4, 3, 3, 3], |idx| {
            let (co, ci, ky, kx) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = 0.0f32;
            for ni in 0..2 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - 1;
                        let ix = (ox * stride + kx) as isize - 1;
                        if iy < 0 || ix < 0 || iy >= 6 || ix >= 6 {
                            continue;
                        }
                        acc += x.at(&[ni, ci, iy as usize, ix as usize])
                            * y.at(&[ni, co, oy, ox]);
                    }
                }
            }
            acc
        });
        prop_assert!(g.dw.allclose(&direct_dw, 1e-2).unwrap(),
            "mse {}", g.dw.mse(&direct_dw).unwrap());
    }

    /// dx from linear_backward is the adjoint of the forward map:
    /// <y, linear(x)> gradients check out via <dx, x'> == <dy, y'>.
    #[test]
    fn linear_backward_adjointness((n, fin, fout, seed) in (1usize..10, 1usize..24, 1usize..24, 0u64..1000)) {
        let x = tensor(&[n, fin], seed);
        let w = tensor(&[fout, fin], seed ^ 11);
        let dy = tensor(&[n, fout], seed ^ 12);
        let g = linear_backward(&x, &w, &dy).unwrap();
        // <dy, x W^T> == <dx, x> when dx = dy W.
        let lhs: f32 = dy.mul(&linear(&x, &w, None).unwrap()).unwrap().sum();
        let rhs: f32 = g.dx.mul(&x).unwrap().sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs().max(rhs.abs())),
            "lhs {} rhs {}", lhs, rhs);
    }
}
