#![warn(missing_docs)]

//! Dense `f32` tensor substrate for `shrinkbench-rs`.
//!
//! This crate provides the numerical foundation that the neural-network
//! stack ([`sb-nn`]) is built on: a contiguous, row-major, n-dimensional
//! [`Tensor`] with the algebra needed to train and prune convolutional
//! networks on a CPU — elementwise operations, matrix multiplication,
//! `im2col`/`col2im` convolution lowering, reductions, and deterministic
//! random initialization.
//!
//! The design goal is *auditability over peak speed*: the experiments built
//! on top (the ShrinkBench reproduction) care about correctness of
//! gradients and pruning masks, not about GPU-class throughput. The matmul
//! and im2col/col2im kernels are tiled and blocked for speed, but each one
//! reproduces its plain loop nest bit for bit (same accumulation order,
//! no fused multiply-add, same zero skips), and `tests/kernels_bitwise.rs`
//! keeps those loop nests as references to check it.
//!
//! # Example
//!
//! ```
//! use sb_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), sb_tensor::TensorError>(())
//! ```
//!
//! [`sb-nn`]: https://docs.rs/sb-nn

mod conv;
mod error;
mod init;
mod linalg;
mod ops;
mod reduce;
mod shape;
mod sparse;
mod tensor;

pub use conv::{col2im, im2col, im2col_into, Conv2dGeometry, Im2colScratch};
pub use error::TensorError;
pub use init::Rng;
pub use shape::Shape;
pub use sparse::SparseMatrix;
pub use tensor::Tensor;
