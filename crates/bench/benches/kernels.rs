//! Microbenchmarks for the numerical substrate: the kernels whose cost
//! dominates every experiment in the reproduction.

use sb_bench::timer::{BatchSize, Timer};
use sb_nn::{models, Layer, Mode, Network};
use sb_tensor::{col2im, im2col, Conv2dGeometry, Rng, Tensor};

fn bench_matmul(c: &mut Timer) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let mut rng = Rng::seed_from(0);
        let a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
        group.bench_function(format!("{n}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)))
        });
        group.bench_function(format!("{n}x{n}-transposed"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul_transposed(&b)))
        });
    }
    group.finish();
}

/// The training products of CIFAR-VGG (width 8) `stage1.conv2` at batch
/// 64: 16 384 output pixels, an 8 × 3 × 3 patch of 72 and 8 filters. The
/// forward pass is `cols · Wᵀ`, the weight gradient `dyᵀ · cols`, the
/// input gradient `dy · W` folded back by `col2im`.
fn bench_vgg_training_shapes(c: &mut Timer) {
    let geom = Conv2dGeometry::square(8, 16, 16, 3, 1, 1);
    let (batch, filters) = (64, 8);
    let rows = batch * geom.out_h() * geom.out_w();
    let mut rng = Rng::seed_from(4);
    let cols = Tensor::rand_normal(&[rows, geom.patch_len()], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_normal(&[filters, geom.patch_len()], 0.0, 1.0, &mut rng);
    // Dense, as in the model: BatchNorm sits between the conv and its ReLU.
    let dy = Tensor::rand_normal(&[rows, filters], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("vgg-w8-b64-conv2");
    group.bench_function("forward-16384x72-8x72T", |bench| {
        bench.iter(|| std::hint::black_box(cols.matmul_transposed(&w)))
    });
    group.bench_function("dW-16384x8T-16384x72", |bench| {
        bench.iter(|| std::hint::black_box(dy.transposed_matmul(&cols)))
    });
    group.bench_function("dX-16384x8-8x72", |bench| {
        bench.iter(|| std::hint::black_box(dy.matmul(&w)))
    });
    let dcols = dy.matmul(&w);
    group.bench_function("col2im-16384x72", |bench| {
        bench.iter(|| std::hint::black_box(col2im(&dcols, batch, &geom)))
    });
    group.finish();
}

fn bench_im2col(c: &mut Timer) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding_h: 1,
        padding_w: 1,
    };
    let mut rng = Rng::seed_from(1);
    let x = Tensor::rand_normal(&[8, 8, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("im2col-8x8x16x16-k3", |bench| {
        bench.iter(|| std::hint::black_box(im2col(&x, &geom)))
    });
}

fn bench_conv_forward_backward(c: &mut Timer) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding_h: 1,
        padding_w: 1,
    };
    let mut rng = Rng::seed_from(2);
    let x = Tensor::rand_normal(&[8, 8, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("conv2d-forward", |bench| {
        let mut conv = sb_nn::Conv2d::new("c", 16, geom, &mut rng);
        bench.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)))
    });
    c.bench_function("conv2d-forward-backward", |bench| {
        let mut conv = sb_nn::Conv2d::new("c", 16, geom, &mut rng);
        bench.iter_batched(
            || x.clone(),
            |x| {
                let y = conv.forward(&x, Mode::Train);
                std::hint::black_box(conv.backward(&Tensor::ones(y.dims())))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_model_forward(c: &mut Timer) {
    let mut rng = Rng::seed_from(3);
    let x = Tensor::rand_normal(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("model-forward");
    group.sample_size(20);
    let mut vgg = models::cifar_vgg(3, 16, 10, 8, &mut rng);
    group.bench_function("cifar-vgg-w8-b16", |bench| {
        bench.iter(|| std::hint::black_box(vgg.forward(&x, Mode::Eval)))
    });
    let mut resnet = models::resnet_cifar(20, 3, 16, 10, 4, &mut rng);
    group.bench_function("resnet20-w4-b16", |bench| {
        bench.iter(|| std::hint::black_box(resnet.forward(&x, Mode::Eval)))
    });
    group.finish();
}

fn main() {
    let mut timer = Timer::new();
    bench_matmul(&mut timer);
    bench_vgg_training_shapes(&mut timer);
    bench_im2col(&mut timer);
    bench_conv_forward_backward(&mut timer);
    bench_model_forward(&mut timer);
    timer.finish();
}
