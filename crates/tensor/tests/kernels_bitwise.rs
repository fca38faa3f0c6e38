//! Bit-identity of the tiled matmul kernels and the im2col/col2im lowering
//! against plain reference loops, on the in-repo `sb-check` harness.
//!
//! The references below are the straightforward loop nests the kernels
//! replace: per output element, products taken in ascending `k` order from
//! a `+0.0` accumulator, a separate multiply and add per step, and (for
//! `matmul` and `transposed_matmul`) the product skipped when its lhs factor
//! is exactly zero. Results are compared with `f32::to_bits`, so any change
//! of order, rounding or skip shows up as a failure, not a tolerance.
//! Every failure message carries an `SB_CHECK_SEED` that replays the case.

use sb_check::{check, prop_assert, Config, Rng};
use sb_tensor::{col2im, im2col, im2col_into, Conv2dGeometry, Im2colScratch, Tensor};

/// Pinned suite seed.
const SUITE: u64 = 0x7E45_0010;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// `[m, k] · [k, n]`, skipping zero lhs factors.
fn ref_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
    out
}

/// `[m, k] · ([n, k])ᵀ`, every product added.
fn ref_matmul_transposed(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// `([k, m])ᵀ · [k, n]`, skipping zero lhs factors.
fn ref_transposed_matmul(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let av = a[kk * m + i];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

/// Reference unfold of `[n, c, h, w]` into `[n·oh·ow, c·kh·kw]`.
fn ref_im2col(x: &[f32], n: usize, g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
    let mut out = vec![0.0f32; n * oh * ow * plen];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * plen;
                for ci in 0..c {
                    for ky in 0..g.kernel_h {
                        for kx in 0..g.kernel_w {
                            let iy = (oy * g.stride + ky) as isize - g.padding_h as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding_w as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            out[row + (ci * g.kernel_h + ky) * g.kernel_w + kx] =
                                x[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Reference fold: every image pixel takes its contributions in ascending
/// output-pixel `(oy, ox)` order.
fn ref_col2im(cols: &[f32], n: usize, g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let (oh, ow, plen) = (g.out_h(), g.out_w(), g.patch_len());
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * plen;
                for ci in 0..c {
                    for ky in 0..g.kernel_h {
                        for kx in 0..g.kernel_w {
                            let iy = (oy * g.stride + ky) as isize - g.padding_h as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding_w as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            out[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                                cols[row + (ci * g.kernel_h + ky) * g.kernel_w + kx];
                        }
                    }
                }
            }
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A dimension that straddles the 4 × 8 tile: 0 and 1, sizes around one
/// and two tiles, and occasionally a longer run.
fn dim(rng: &mut Rng) -> usize {
    match rng.below(4) {
        0 => rng.below(2),
        1 => 1 + rng.below(9),
        2 => 7 + rng.below(12),
        _ => 20 + rng.below(60),
    }
}

/// Shared dimension: 0 and 1 often, otherwise up to past one packed chunk.
fn depth(rng: &mut Rng) -> usize {
    match rng.below(4) {
        0 => rng.below(2),
        1 => 2 + rng.below(30),
        2 => 30 + rng.below(100),
        _ => 250 + rng.below(300),
    }
}

/// Values with a sizeable share of exact zeros (and a few `-0.0`s), so the
/// zero skip runs on every row.
fn sparse_values(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(8) {
            0..=2 => 0.0,
            3 => -0.0,
            _ => rng.uniform(-4.0, 4.0),
        })
        .collect()
}

/// Dense values, plus a rare infinity: times an exact-zero lhs factor it
/// would make NaN, so only a kernel that really skips the product (or
/// really does not) matches its reference.
fn rhs_values(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(64) {
            0 => f32::INFINITY,
            _ => rng.uniform(-4.0, 4.0),
        })
        .collect()
}

/// `(m, k, n)` and a seed for the operand values. The values are drawn
/// inside the property, so shrinking a dimension keeps the case valid.
type Product = ((usize, usize, usize), u64);

fn product(rng: &mut Rng) -> Product {
    ((dim(rng), depth(rng), dim(rng)), rng.next_u64())
}

/// The operands of `case`: a sparse `m·k` lhs and an `k·n` rhs.
fn operands(case: &Product) -> (usize, usize, usize, Vec<f32>, Vec<f32>) {
    let ((m, k, n), seed) = *case;
    let mut rng = Rng::seed_from(seed);
    let a = sparse_values(&mut rng, m * k);
    let b = rhs_values(&mut rng, k * n);
    (m, k, n, a, b)
}

#[test]
fn matmul_matches_reference_bitwise() {
    check(
        "kernels::matmul_matches_reference_bitwise",
        cfg(),
        product,
        |case| {
            let (m, k, n, a, b) = operands(case);
            let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
            let got = ta.matmul(&tb);
            prop_assert!(got.dims() == [m, n]);
            prop_assert!(bits(got.data()) == bits(&ref_matmul(&a, &b, m, k, n)));
            Ok(())
        },
    );
}

#[test]
fn matmul_transposed_matches_reference_bitwise() {
    check(
        "kernels::matmul_transposed_matches_reference_bitwise",
        cfg(),
        product,
        |case| {
            let (m, k, n, a, b) = operands(case);
            let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[n, k]).unwrap();
            let got = ta.matmul_transposed(&tb);
            prop_assert!(got.dims() == [m, n]);
            prop_assert!(bits(got.data()) == bits(&ref_matmul_transposed(&a, &b, m, k, n)));
            Ok(())
        },
    );
}

#[test]
fn transposed_matmul_matches_reference_bitwise() {
    check(
        "kernels::transposed_matmul_matches_reference_bitwise",
        cfg(),
        product,
        |case| {
            let (m, k, n, a, b) = operands(case);
            let ta = Tensor::from_vec(a.clone(), &[k, m]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
            let got = ta.transposed_matmul(&tb);
            prop_assert!(got.dims() == [m, n]);
            prop_assert!(bits(got.data()) == bits(&ref_transposed_matmul(&a, &b, k, m, n)));
            Ok(())
        },
    );
}

/// Batch size and a conv geometry from raw draws: stride 1–3, kernel 1–4
/// and independent vertical and horizontal padding 0–2, on an input the
/// padded kernel always fits. Any shrunk draw maps to a valid case too.
fn geometry(raw: &[usize]) -> (usize, Conv2dGeometry) {
    let (kernel_h, kernel_w) = (1 + raw[0] % 4, 1 + raw[1] % 4);
    let (padding_h, padding_w) = (raw[2] % 3, raw[3] % 3);
    let g = Conv2dGeometry {
        in_channels: 1 + raw[4] % 4,
        in_h: kernel_h.saturating_sub(2 * padding_h).max(1) + raw[5] % 8,
        in_w: kernel_w.saturating_sub(2 * padding_w).max(1) + raw[6] % 8,
        kernel_h,
        kernel_w,
        stride: 1 + raw[7] % 3,
        padding_h,
        padding_w,
    };
    (1 + raw[8] % 3, g)
}

#[test]
fn im2col_and_col2im_match_reference_bitwise() {
    check(
        "kernels::im2col_and_col2im_match_reference_bitwise",
        cfg(),
        |rng| {
            (
                (0..9).map(|_| rng.below(1 << 16)).collect::<Vec<_>>(),
                rng.next_u64(),
            )
        },
        |(raw, seed)| {
            let (n, g) = geometry(raw);
            let mut rng = Rng::seed_from(*seed);
            let x: Vec<f32> = (0..n * g.in_channels * g.in_h * g.in_w)
                .map(|_| rng.uniform(-4.0, 4.0))
                .collect();
            let rows = n * g.out_h() * g.out_w();
            let cols: Vec<f32> = (0..rows * g.patch_len())
                .map(|_| rng.uniform(-4.0, 4.0))
                .collect();
            let want = bits(&ref_im2col(&x, n, &g));
            let tx = Tensor::from_vec(x.clone(), &[n, g.in_channels, g.in_h, g.in_w]).unwrap();
            prop_assert!(bits(im2col(&tx, &g).data()) == want);
            // The serial core overwrites every element, padding included,
            // from a scratch left dirty by a wider, unpadded geometry.
            let mut scratch = Im2colScratch::new();
            let wide = Conv2dGeometry::square(g.in_channels + 1, g.in_h + 4, g.in_w + 4, 1, 1, 0);
            let mut wide_out = vec![0.0; (g.in_h + 4) * (g.in_w + 4) * wide.patch_len()];
            let ones = vec![1.0; wide_out.len()];
            im2col_into(&ones, 1, &wide, &mut wide_out, &mut scratch);
            let mut into = vec![f32::NAN; cols.len()];
            im2col_into(&x, n, &g, &mut into, &mut scratch);
            prop_assert!(bits(&into) == want);
            let tc = Tensor::from_vec(cols.clone(), &[rows, g.patch_len()]).unwrap();
            prop_assert!(bits(col2im(&tc, n, &g).data()) == bits(&ref_col2im(&cols, n, &g)));
            Ok(())
        },
    );
}

/// Every kernel on shapes large enough to split into several parallel
/// tasks (the CIFAR-VGG `stage1.conv2` products at batch 32) gives the
/// same bytes on one runtime thread and on four. The weight gradients
/// here span several column tiles (one of them ragged), and, with a
/// narrow 27-wide rhs, several row blocks, all over many depth chunks, so
/// they are checked against their references as well.
#[test]
fn kernels_are_byte_identical_at_one_and_four_threads() {
    let mut rng = Rng::seed_from(SUITE);
    let g = Conv2dGeometry::square(8, 16, 16, 3, 1, 1);
    let (n, filters) = (32, 8);
    let rows = n * g.out_h() * g.out_w();
    let x = Tensor::from_vec(
        (0..n * 8 * 16 * 16)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect(),
        &[n, 8, 16, 16],
    )
    .unwrap();
    let w = Tensor::from_vec(
        rhs_values(&mut rng, filters * g.patch_len()),
        &[filters, g.patch_len()],
    )
    .unwrap();
    let dy = Tensor::from_vec(sparse_values(&mut rng, rows * filters), &[rows, filters]).unwrap();
    // Finite: over this many depths a rare infinity would turn every
    // output into ±inf or NaN, hiding which rows were summed.
    let narrow = Tensor::from_vec(
        (0..rows * 27).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        &[rows, 27],
    )
    .unwrap();
    let run = |threads: usize| {
        sb_runtime::set_thread_override(Some(threads));
        let cols = im2col(&x, &g);
        let outs = [
            cols.matmul_transposed(&w),
            dy.transposed_matmul(&cols),
            dy.matmul(&w),
            col2im(&dy.matmul(&w), n, &g),
            cols.clone(),
            dy.transposed_matmul(&narrow),
        ];
        sb_runtime::set_thread_override(None);
        outs.iter().map(|t| bits(t.data())).collect::<Vec<_>>()
    };
    let one = run(1);
    assert_eq!(one, run(4), "thread count changed a kernel's bytes");
    let cols = im2col(&x, &g);
    let want = ref_transposed_matmul(dy.data(), cols.data(), rows, filters, g.patch_len());
    assert!(one[1] == bits(&want), "weight gradient differs from its reference");
    let want = ref_transposed_matmul(dy.data(), narrow.data(), rows, filters, 27);
    assert!(one[5] == bits(&want), "narrow weight gradient differs from its reference");
}
