//! Convolution lowering: `im2col` / `col2im` and output-geometry math.
//!
//! Convolutions in `sb-nn` are computed as matrix products over patch
//! matrices: the input `[N, C, H, W]` is unfolded into a
//! `[N·H_out·W_out, C·KH·KW]` patch matrix (`im2col`), multiplied by the
//! reshaped kernel, and the backward pass folds gradients back with
//! `col2im`. This keeps the only nontrivial indexing logic in one place.
//!
//! Both copy one sample at a time into zero-bordered planes, so every
//! window is a gather (or scatter-add) through one table of tap offsets,
//! with no padding test per element. Output pixels are walked in
//! `(oy, ox)` order: `im2col` is a pure copy, and `col2im` gives every
//! image pixel its contributions in ascending `(oy, ox)` order, the order
//! of the plain loop nest, so both are bit-identical to it at any thread
//! count.

use crate::tensor::Tensor;
use sb_json::json_struct;

/// Static geometry of a 2-D convolution (or pooling) window.
///
/// Padding is specified per axis (`padding_h` above/below, `padding_w`
/// left/right), so asymmetric same-padding schemes and their gradients
/// can be exercised directly; use [`Conv2dGeometry::square`] for the
/// common symmetric case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding above and below (vertical axis).
    pub padding_h: usize,
    /// Zero padding left and right (horizontal axis).
    pub padding_w: usize,
}

json_struct!(Conv2dGeometry {
    in_channels,
    in_h,
    in_w,
    kernel_h,
    kernel_w,
    stride,
    padding_h,
    padding_w,
});

impl Conv2dGeometry {
    /// Geometry with a square kernel and the same padding on both axes —
    /// the overwhelmingly common case in the model zoo.
    pub fn square(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding_h: padding,
            padding_w: padding,
        }
    }

    /// Output height after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit the input.
    pub fn out_h(&self) -> usize {
        out_extent(self.in_h, self.kernel_h, self.stride, self.padding_h)
    }

    /// Output width after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit the input.
    pub fn out_w(&self) -> usize {
        out_extent(self.in_w, self.kernel_w, self.stride, self.padding_w)
    }

    /// Patch length: `in_channels · kernel_h · kernel_w`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel {kernel} does not fit input {input} with padding {padding}"
    );
    assert!(stride > 0, "stride must be positive");
    (padded - kernel) / stride + 1
}

/// Reusable staging for [`im2col_into`]: one sample's channels copied
/// into zero-bordered planes of `(H + 2·padding_h) × (W + 2·padding_w)`,
/// with the plane offsets of a window's taps in patch order.
///
/// The window of output pixel `(oy, ox)` starts at plane offset
/// `(oy·padded_w + ox)·stride`, and its patch row is one gather through
/// the taps: the border holds the padding as stored zeros, so no element
/// needs a bounds test. The buffers grow to the largest geometry served
/// and are reused after that, so a caller that keeps one scratch across
/// calls allocates nothing once it has seen its largest layer.
#[derive(Debug, Clone)]
pub struct Im2colScratch {
    geom: Conv2dGeometry,
    padded_h: usize,
    padded_w: usize,
    planes: Vec<f32>,
    taps: Vec<usize>,
}

impl Default for Im2colScratch {
    fn default() -> Self {
        Im2colScratch {
            geom: Conv2dGeometry::square(0, 0, 0, 0, 1, 0),
            padded_h: 0,
            padded_w: 0,
            planes: Vec::new(),
            taps: Vec::new(),
        }
    }
}

impl Im2colScratch {
    /// An empty scratch; the first call sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroed planes and the tap table for `geom`, reusing the buffers.
    fn reset(&mut self, geom: &Conv2dGeometry) {
        let padded_h = geom.in_h + 2 * geom.padding_h;
        let padded_w = geom.in_w + 2 * geom.padding_w;
        self.taps.clear();
        for ci in 0..geom.in_channels {
            for ky in 0..geom.kernel_h {
                let row = (ci * padded_h + ky) * padded_w;
                self.taps.extend(row..row + geom.kernel_w);
            }
        }
        self.planes.clear();
        self.planes.resize(geom.in_channels * padded_h * padded_w, 0.0);
        self.geom = *geom;
        self.padded_h = padded_h;
        self.padded_w = padded_w;
    }

    /// Plane offset where output pixel `(oy, ox)`'s window starts.
    fn origin(&self, oy: usize, ox: usize) -> usize {
        (oy * self.padded_w + ox) * self.geom.stride
    }

    /// The interior (unpadded) part of row `iy` of channel `ci`.
    fn row(&mut self, ci: usize, iy: usize) -> &mut [f32] {
        let g = &self.geom;
        let start = (ci * self.padded_h + iy + g.padding_h) * self.padded_w + g.padding_w;
        &mut self.planes[start..start + g.in_w]
    }
}

/// Unfolds a batched image tensor `[N, C, H, W]` into a patch matrix
/// `[N·out_h·out_w, C·kh·kw]`.
///
/// Row `(n·out_h + oy)·out_w + ox` holds the receptive field of output
/// pixel `(oy, ox)` of sample `n`, channel-major. Out-of-bounds (padding)
/// positions read as zero. Parallel over sample groups, each unfolded by
/// [`im2col_into`].
///
/// # Panics
///
/// Panics if `input` is not 4-D or its dims disagree with `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(input.shape().ndim(), 4, "im2col requires [N, C, H, W] input");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert_eq!(c, geom.in_channels, "channel mismatch");
    assert_eq!(h, geom.in_h, "height mismatch");
    assert_eq!(w, geom.in_w, "width mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut out = vec![0.0f32; n * oh * ow * patch];
    // Each sample's patch rows form one disjoint output block, so the
    // unfold parallelizes over sample groups; every element is written by
    // exactly one task, making the result worker-count independent.
    let sample_block = oh * ow * patch;
    let image = c * h * w;
    let per = (32_768 / sample_block.max(1)).clamp(1, n.max(1));
    if !out.is_empty() {
        sb_runtime::for_each_chunk_mut(&mut out, per * sample_block, |chunk, block| {
            let samples = block.len() / sample_block;
            let x = &input.data()[chunk * per * image..][..samples * image];
            im2col_into(x, samples, geom, block, &mut Im2colScratch::new());
        });
    }
    Tensor::from_vec(out, &[n * oh * ow, patch]).expect("shape computed above")
}

/// The serial core of [`im2col`]: unfolds `n` contiguous `[C, H, W]`
/// images from `x` into the `[n·out_h·out_w, C·kh·kw]` patch rows `out`,
/// in the same element order, staging each sample in `scratch`. Every
/// element of `out` is written, padding positions with zero, so the
/// buffer can be reused without clearing; `scratch` may hold anything
/// from an earlier call, of any geometry.
///
/// # Panics
///
/// Panics if `x` or `out` is not exactly the size `n` and `geom` imply.
pub fn im2col_into(
    x: &[f32],
    n: usize,
    geom: &Conv2dGeometry,
    out: &mut [f32],
    scratch: &mut Im2colScratch,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    assert_eq!(x.len(), n * c * h * w, "im2col_into input length mismatch");
    assert_eq!(
        out.len(),
        n * oh * ow * patch,
        "im2col_into output length mismatch"
    );
    if out.is_empty() {
        return;
    }
    // Each sample is copied into the interior of zero-bordered planes, so
    // every patch row is one gather with no padding test.
    scratch.reset(geom);
    for (ni, sample) in out.chunks_exact_mut(oh * ow * patch).enumerate() {
        for ci in 0..c {
            for iy in 0..h {
                let src = &x[((ni * c + ci) * h + iy) * w..][..w];
                scratch.row(ci, iy).copy_from_slice(src);
            }
        }
        for (oy, rows) in sample.chunks_exact_mut(ow * patch).enumerate() {
            for (ox, row) in rows.chunks_exact_mut(patch).enumerate() {
                let window = &scratch.planes[scratch.origin(oy, ox)..];
                for (d, &t) in row.iter_mut().zip(&scratch.taps) {
                    *d = window[t];
                }
            }
        }
    }
}

/// Folds a patch-matrix gradient `[N·out_h·out_w, C·kh·kw]` back into an
/// image gradient `[N, C, H, W]`, accumulating overlapping contributions.
///
/// This is the exact adjoint of [`im2col`]: positions that were read `k`
/// times during unfolding receive the sum of their `k` gradient copies,
/// added in ascending output-pixel `(oy, ox)` order.
///
/// # Panics
///
/// Panics if `cols` dims disagree with `geom` for batch size `n`.
pub fn col2im(cols: &Tensor, n: usize, geom: &Conv2dGeometry) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    assert_eq!(
        cols.dims(),
        &[n * oh * ow, patch],
        "col2im input shape mismatch"
    );
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();

    // Overlapping windows only collide *within* a sample, never across
    // samples, so the fold parallelizes over sample groups. Within a
    // sample, patch rows are added in (oy, ox) order into zero-bordered
    // planes (the border takes the padding's discarded share), so every
    // pixel takes its contributions in the sequential loop's order.
    let sample_block = c * h * w;
    let per = (32_768 / sample_block.max(1)).clamp(1, n.max(1));
    if out.is_empty() {
        return Tensor::from_vec(out, &[n, c, h, w]).expect("shape computed above");
    }
    sb_runtime::for_each_chunk_mut(&mut out, per * sample_block, |chunk, block| {
        let mut padded = Im2colScratch::new();
        padded.reset(geom);
        for (si, sample) in block.chunks_mut(sample_block).enumerate() {
            let rows = &data[(chunk * per + si) * oh * ow * patch..][..oh * ow * patch];
            padded.planes.fill(0.0);
            for (oy, rows) in rows.chunks_exact(ow * patch).enumerate() {
                for (ox, row) in rows.chunks_exact(patch).enumerate() {
                    let origin = padded.origin(oy, ox);
                    let window = &mut padded.planes[origin..];
                    for (&t, &v) in padded.taps.iter().zip(row) {
                        window[t] += v;
                    }
                }
            }
            for ci in 0..c {
                for iy in 0..h {
                    let dst = &mut sample[(ci * h + iy) * w..][..w];
                    dst.copy_from_slice(padded.row(ci, iy));
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, h, w]).expect("shape computed above")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry::square(c, h, w, k, s, p)
    }

    #[test]
    fn output_extent_math() {
        assert_eq!(geom(1, 5, 5, 3, 1, 0).out_h(), 3);
        assert_eq!(geom(1, 5, 5, 3, 1, 1).out_h(), 5);
        assert_eq!(geom(1, 6, 6, 3, 2, 1).out_h(), 3);
        assert_eq!(geom(1, 4, 4, 1, 1, 0).out_h(), 4);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: patch matrix is just a flattened reordering.
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = geom(2, 2, 2, 1, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 2]);
        // Row for pixel (0,0): channels [x[0,0,0,0], x[0,1,0,0]] = [0, 4]
        assert_eq!(cols.data()[0..2], [0.0, 4.0]);
    }

    #[test]
    fn im2col_known_patch() {
        let x = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 4]);
        // Top-left patch is [1,2,4,5].
        assert_eq!(cols.data()[0..4], [1.0, 2.0, 4.0, 5.0]);
        // Bottom-right patch is [5,6,8,9].
        assert_eq!(cols.data()[12..16], [5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&x, &g);
        // Output pixel (0, 0) has top row and left column padded out.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y: the defining
        // property of an adjoint, which is exactly what backprop requires.
        let g = geom(2, 4, 4, 3, 1, 1);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 37 % 11) as f32) - 5.0);
        let cols_shape = [g.out_h() * g.out_w(), g.patch_len()];
        let y = Tensor::from_fn(&cols_shape, |i| ((i * 13 % 7) as f32) - 3.0);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.flatten().dot(&col2im(&y, 1, &g).flatten());
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // With a 2x2 kernel stride 1 on 3x3 input, the center pixel is
        // covered by all 4 patches.
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let img = col2im(&cols, 1, &g);
        assert_eq!(img.at(&[0, 0, 1, 1]), 4.0);
        assert_eq!(img.at(&[0, 0, 0, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_panics() {
        geom(1, 2, 2, 5, 1, 0).out_h();
    }

    #[test]
    fn multi_batch_rows_are_independent() {
        let x0 = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let x1 = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32) * 10.0);
        let mut both = Vec::new();
        both.extend_from_slice(x0.data());
        both.extend_from_slice(x1.data());
        let x = Tensor::from_vec(both, &[2, 1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 3, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.row(0).data(), x0.data());
        assert_eq!(cols.row(1).data(), x1.data());
    }

    #[test]
    fn asymmetric_padding_changes_only_its_axis() {
        let mut g = geom(1, 5, 7, 3, 1, 0);
        g.padding_h = 1;
        assert_eq!(g.out_h(), 5);
        assert_eq!(g.out_w(), 5);
        g.padding_w = 2;
        assert_eq!(g.out_w(), 9);
    }

    #[test]
    fn asymmetric_padding_adjoint_holds() {
        let mut g = geom(1, 4, 5, 3, 2, 1);
        g.padding_w = 0;
        let x = Tensor::from_fn(&[1, 1, 4, 5], |i| ((i * 29 % 13) as f32) - 6.0);
        let cols_shape = [g.out_h() * g.out_w(), g.patch_len()];
        let y = Tensor::from_fn(&cols_shape, |i| ((i * 17 % 5) as f32) - 2.0);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.flatten().dot(&col2im(&y, 1, &g).flatten());
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn geometry_json_round_trip() {
        let mut g = geom(3, 8, 8, 5, 2, 2);
        g.padding_w = 1;
        let text = sb_json::to_string(&g).unwrap();
        let back: Conv2dGeometry = sb_json::from_str(&text).unwrap();
        assert_eq!(back, g);
    }
}
