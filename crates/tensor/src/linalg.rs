//! Matrix multiplication kernels.
//!
//! Three products: `a · bᵀ` ([`Tensor::matmul_transposed`], the forward
//! pass of linear and conv layers), `a · b` ([`Tensor::matmul`], their
//! input gradient) and `aᵀ · b` ([`Tensor::transposed_matmul`], their
//! weight gradient). No unsafe code and no SIMD intrinsics: the fixed-size
//! tile loops are what the compiler vectorizes.
//!
//! - `a · bᵀ` adds every product, so it runs `MR × NR` register tiles that
//!   read `MR` lhs rows in place over packed, zero-padded rhs column
//!   panels: each rhs load feeds `MR` rows.
//! - `aᵀ · b` has the long `N·H·W` axis as its shared dimension and a small
//!   output. It skips every product whose lhs factor is exactly zero (ReLU
//!   outputs and conv padding make these common) by first compressing
//!   each output row's lhs factors to the nonzero ones, then runs `1 × W`
//!   row tiles over them. It walks the long axis in `KC`-deep packed
//!   chunks, running several output rows over a chunk while it is in
//!   cache, so one pass over `b` serves a block of rows (not one row).
//! - `a · b` streams each output row once per nonzero lhs factor in `ikj`
//!   order. Its shared dimension is a conv's filter count, too short to
//!   pay for a tile's set-up.
//!
//! # Bit-identity contract
//!
//! Every output element is the sum the plain triple loop computes, in the
//! same order and with the same roundings:
//!
//! - the accumulator starts at `+0.0` and takes its products in ascending
//!   `k` order;
//! - every step is a separate multiply and add, never a fused
//!   multiply-add;
//! - `a · b` and `aᵀ · b` skip exactly the products whose lhs factor is
//!   `== 0.0`; `a · bᵀ` skips none.
//!
//! Parallel tasks own disjoint blocks of the output, sized from the
//! problem shape alone, and each element is accumulated start to finish
//! by one task. Results are therefore bit-identical for any
//! `SB_RUNTIME_THREADS`, including 1 (which runs the same blocks inline).
//! `tests/kernels_bitwise.rs` keeps the plain loops as references and
//! checks all of this bit for bit.

use crate::tensor::Tensor;
use std::ops::Range;

/// Output rows per `a · bᵀ` tile.
const MR: usize = 4;
/// Output columns per `a · bᵀ` tile.
const NR: usize = 8;
/// Output columns per `aᵀ · b` row tile: eight 4-lane accumulators, the
/// register budget of the `MR × NR` tile.
const W: usize = 32;
/// Depth of one packed chunk of `aᵀ · b`.
const KC: usize = 256;
/// Most tiles a large `aᵀ · b` splits into, so even a narrow output
/// spreads over several workers.
const DW_TILES: usize = 4;
/// Fewest output rows in one `aᵀ · b` tile, so each packed chunk of `b`
/// feeds several rows.
const DW_ROWS: usize = 4;
/// Target multiply-adds per parallel task.
const TASK_WORK: usize = 1 << 17;

/// Output rows per parallel task: about [`TASK_WORK`] multiply-adds in
/// whole tiles, so tiny products stay single-chunk (inline) and large ones
/// split evenly. Depends only on the problem shape — never on the worker
/// count — which is what keeps chunk boundaries (and thus results)
/// deterministic.
fn rows_per_task(work_per_row: usize, m: usize) -> usize {
    (TASK_WORK / work_per_row.max(1))
        .next_multiple_of(MR)
        .clamp(MR, m.next_multiple_of(MR))
}

/// A 2-D operand read through strides: element `(r, kk)` of the logical
/// `[rows, k]` view is `data[r · row_stride + kk · k_stride]`, so one
/// packing routine serves plain and transposed operands alike.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

impl View<'_> {
    /// Row `r` at depths `ks`, in depth order.
    fn row(&self, r: usize, ks: Range<usize>) -> impl Iterator<Item = &f32> {
        let start = r * self.row_stride + ks.start * self.k_stride;
        self.data[start..]
            .iter()
            .step_by(self.k_stride)
            .take(ks.len())
    }

    /// Packs rows `rows` at depths `ks` into the `P`-wide panel `dst`
    /// (`dst[kk][r]`), zero-filling the lanes past `rows.len()` so every
    /// panel is a full tile.
    fn pack<const P: usize>(&self, rows: Range<usize>, ks: Range<usize>, dst: &mut [[f32; P]]) {
        let width = rows.len();
        let dst = &mut dst[..ks.len()];
        if self.row_stride == 1 {
            // Each depth's lanes are one contiguous run.
            for (kk, lanes) in ks.zip(dst.iter_mut()) {
                let run = &self.data[kk * self.k_stride + rows.start..][..width];
                if width == P {
                    lanes.copy_from_slice(run);
                } else {
                    *lanes = [0.0; P];
                    lanes[..width].copy_from_slice(run);
                }
            }
        } else {
            for (r, row) in rows.enumerate() {
                for (lanes, &v) in dst.iter_mut().zip(self.row(row, ks.clone())) {
                    lanes[r] = v;
                }
            }
            for lanes in dst.iter_mut() {
                lanes[width..].fill(0.0);
            }
        }
    }

    /// Packs columns `0..n` of the `[n, k]` view at depths `ks` into
    /// consecutive `P`-wide panels of `ks.len()` steps each.
    fn pack_panels<const P: usize>(&self, n: usize, ks: Range<usize>, dst: &mut [[f32; P]]) {
        for (jb, panel) in dst.chunks_exact_mut(ks.len()).enumerate() {
            self.pack(jb * P..n.min((jb + 1) * P), ks.clone(), panel);
        }
    }

    /// The nonzero entries of row `r` at depths `ks` as `(depth − ks.start,
    /// value)` pairs in depth order, written to `nz` without a branch per
    /// entry; returns how many there are.
    fn nonzeros(&self, r: usize, ks: Range<usize>, nz: &mut [(u32, f32)]) -> usize {
        let mut len = 0;
        for (kk, &v) in self.row(r, ks).enumerate() {
            nz[len] = (kk as u32, v);
            len += usize::from(v != 0.0);
        }
        len
    }
}

/// `acc += a · bpᵀ` over `MR` lhs rows and one `NR`-column packed panel
/// of the same depth, in ascending depth order, one multiply and one add
/// per step.
#[inline(always)]
fn tile(a: [&[f32]; MR], bp: &[[f32; NR]], acc: &mut [[f32; NR]; MR]) {
    let a = a.map(|row| &row[..bp.len()]);
    let mut c = *acc;
    for (kk, b) in bp.iter().enumerate() {
        for r in 0..MR {
            let ar = a[r][kk];
            for j in 0..NR {
                c[r][j] += ar * b[j];
            }
        }
    }
    *acc = c;
}

/// `acc += a · panel[kk]` for each compressed lhs entry `(kk, a)`, in
/// order: one output row's `W` columns over the nonzero lhs factors only.
#[inline(always)]
fn row_tile(nz: &[(u32, f32)], panel: &[[f32; W]], acc: &mut [f32; W]) {
    let mut c = *acc;
    for &(kk, a) in nz {
        let b = &panel[kk as usize];
        for j in 0..W {
            c[j] += a * b[j];
        }
    }
    *acc = c;
}

/// Writes the first `out.len()` lanes of a tile row: a fixed-size copy for
/// a full row, so the common case compiles to plain vector stores rather
/// than a `memcpy` call per row.
#[inline(always)]
fn store<const P: usize>(out: &mut [f32], lanes: &[f32; P]) {
    match <&mut [f32; P]>::try_from(&mut *out) {
        Ok(full) => *full = *lanes,
        Err(_) => out.copy_from_slice(&lanes[..out.len()]),
    }
}

/// `Σ_kk a[i, kk] · b(j, kk)` over every product into a new row-major
/// `[m, n]` buffer, for the row-major `[m, k]` lhs `a` and the `[n, k]`
/// view `b`, parallel over blocks of output rows. `b` is packed once; each
/// tile reads its `MR` lhs rows in place (a short last tile repeats its
/// last row and drops the copies) and runs every column panel over the
/// full depth.
fn product_rows(m: usize, n: usize, k: usize, a: &[f32], b: View) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if out.is_empty() || k == 0 {
        return out;
    }
    let mut bp = vec![[0.0f32; NR]; n.div_ceil(NR) * k];
    b.pack_panels(n, 0..k, &mut bp);
    let panels: Vec<&[[f32; NR]]> = bp.chunks_exact(k).collect();
    let rows_per = rows_per_task(k * n, m);
    sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
        let row0 = ci * rows_per;
        let rows = block.len() / n;
        for i in (0..rows).step_by(MR) {
            let lhs: [&[f32]; MR] =
                std::array::from_fn(|r| &a[(row0 + (i + r).min(rows - 1)) * k..][..k]);
            for (jb, panel) in panels.iter().enumerate() {
                let mut acc = [[0.0f32; NR]; MR];
                tile(lhs, panel, &mut acc);
                let j0 = jb * NR;
                let nr = NR.min(n - j0);
                for (r, lanes) in acc[..MR.min(rows - i)].iter().enumerate() {
                    store(&mut block[(i + r) * n + j0..][..nr], lanes);
                }
            }
        }
    });
    out
}

/// `Σ_kk a(kk, i) · b[kk, j]` over the nonzero lhs factors only, for the
/// `[m, k]` view `a` and the `[k, n]` view `b`, a long shared dimension
/// and a small output: the shape of a weight gradient.
///
/// Tasks own tiles of output rows × `W`-wide column panels, all started
/// by one parallel pass. Each walks `k` in [`KC`]-deep chunks: it
/// compresses its rows' lhs factors in the chunk to their nonzeros, packs
/// its panels of `b` once, and runs every one of its rows over them while
/// they are in cache, carrying the partial sums to the next chunk, so one
/// pass over `b` feeds a whole block of rows.
fn skip_cols(m: usize, n: usize, k: usize, a: View, b: View) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if out.is_empty() || k == 0 {
        return out;
    }
    // Column panels split first: each tile then reads only its own
    // columns of `b`. A narrow output has too few, so its rows split as
    // well, each row block reading its panels of `b` again.
    let nb = n.div_ceil(W);
    let tiles = (k * m * n / TASK_WORK).clamp(1, DW_TILES);
    let panels_per = nb.div_ceil(tiles);
    let col_tiles = nb.div_ceil(panels_per);
    let rows_per = m.div_ceil((tiles / col_tiles).max(1)).max(DW_ROWS);
    let row_blocks = m.div_ceil(rows_per);
    // Row blocks of one column tile are neighbours in task order, so the
    // workers that take them together stream the same columns of `b`.
    let tile = |t: usize| {
        let (rb, cb) = (t % row_blocks, t / row_blocks);
        let jbs = cb * panels_per..nb.min((cb + 1) * panels_per);
        let cols = jbs.start * W..n.min(jbs.end * W);
        (rb * rows_per..m.min((rb + 1) * rows_per), jbs.len(), cols)
    };
    let accs = sb_runtime::map_chunks(row_blocks * col_tiles, 1, |t| {
        let (rows, np, cols) = tile(t.start);
        let b = View {
            data: &b.data[cols.start * b.row_stride..],
            ..b
        };
        let mut acc = vec![[0.0f32; W]; rows.len() * np];
        let mut bp = vec![[0.0f32; W]; np * KC];
        let mut nz = vec![(0u32, 0.0f32); rows.len() * KC];
        let mut ends = vec![0usize; rows.len()];
        for k0 in (0..k).step_by(KC) {
            let ks = k0..k.min(k0 + KC);
            let mut len = 0;
            for (end, i) in ends.iter_mut().zip(rows.clone()) {
                len += a.nonzeros(i, ks.clone(), &mut nz[len..]);
                *end = len;
            }
            let bp = &mut bp[..np * ks.len()];
            b.pack_panels(cols.len(), ks.clone(), bp);
            // Each panel stays in L1 while every row of the tile runs
            // over it.
            for (p, panel) in bp.chunks_exact(ks.len()).enumerate() {
                let mut lo = 0;
                for (r, &hi) in ends.iter().enumerate() {
                    row_tile(&nz[lo..hi], panel, &mut acc[r * np + p]);
                    lo = hi;
                }
            }
        }
        acc
    });
    for (t, acc) in accs.iter().enumerate() {
        let (rows, np, cols) = tile(t);
        for (i, row) in rows.zip(acc.chunks_exact(np)) {
            let lanes = row.iter().flatten();
            for (o, &v) in out[i * n..][cols.clone()].iter_mut().zip(lanes) {
                *o = v;
            }
        }
    }
    out
}

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Tensor::from_vec(out, &[m, n]).expect("shape computed above");
        }
        let a = self.data();
        let b = rhs.data();
        let rows_per = rows_per_task(k * n, m);
        // ikj order: the innermost loop walks both `b` and `out` rows
        // contiguously.
        sb_runtime::for_each_chunk_mut(&mut out, rows_per * n, |ci, block| {
            let row0 = ci * rows_per;
            for (r, out_row) in block.chunks_mut(n).enumerate() {
                let i = row0 + r;
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aik * bv;
                    }
                }
            }
        });
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// `self × rhsᵀ` for 2-D tensors: `[m, k] × ([n, k])ᵀ → [m, n]`.
    ///
    /// Equivalent to `self.matmul(&rhs.transpose2())` without materializing
    /// the transpose, except that it adds every product (no zero skip); the
    /// forward pass of linear and conv layers.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_transposed(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul_transposed lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul_transposed rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transposed shared dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let b = View {
            data: rhs.data(),
            row_stride: k,
            k_stride: 1,
        };
        let out = product_rows(m, n, k, self.data(), b);
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// `selfᵀ × rhs` for 2-D tensors: `([k, m])ᵀ × [k, n] → [m, n]`.
    ///
    /// Used to compute weight gradients (`xᵀ · dy`) without materializing
    /// the transpose.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the leading dimensions differ.
    pub fn transposed_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transposed_matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "transposed_matmul rhs must be 2-D");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "transposed_matmul leading dimensions differ: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let a = View {
            data: self.data(),
            row_stride: 1,
            k_stride: m,
        };
        let b = View {
            data: rhs.data(),
            row_stride: 1,
            k_stride: n,
        };
        let out = skip_cols(m, n, k, a, b);
        Tensor::from_vec(out, &[m, n]).expect("shape computed above")
    }

    /// Matrix–vector product `[m, k] × [k] → [m]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or dimensions are incompatible.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matvec lhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(v.numel(), k, "matvec dimensions differ");
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data()[i * k..(i + 1) * k]
                .iter()
                .zip(v.data())
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Tensor::from_vec(out, &[m]).expect("shape computed above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_transposed_matches_explicit() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.5).collect(), &[4, 3]).unwrap();
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose2());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transposed_matmul_matches_explicit() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.25).collect(), &[3, 4]).unwrap();
        let fast = a.transposed_matmul(&b);
        let slow = a.transpose2().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let v = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshape(&[3, 1]).unwrap());
        assert_eq!(mv.data(), mm.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_incompatible() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_zero_width_output_is_empty() {
        let out = Tensor::ones(&[3, 4]).matmul(&Tensor::zeros(&[4, 0]));
        assert_eq!(out.dims(), &[3, 0]);
    }

    #[test]
    fn matmul_transposed_zero_width_output_is_empty() {
        let out = Tensor::ones(&[3, 4]).matmul_transposed(&Tensor::zeros(&[0, 4]));
        assert_eq!(out.dims(), &[3, 0]);
    }

    #[test]
    fn transposed_matmul_zero_width_output_is_empty() {
        let out = Tensor::ones(&[4, 3]).transposed_matmul(&Tensor::zeros(&[4, 0]));
        assert_eq!(out.dims(), &[3, 0]);
    }

    #[test]
    fn matmul_skips_zeros_correctly() {
        // Sparse lhs exercises the `aik == 0` fast path.
        let a = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&b).data(), &[2.0, 2.0, 0.0, 0.0]);
    }
}
