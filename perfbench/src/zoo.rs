//! `infer-zoo`: one caller, closed loop, over five fixed-seed pruned
//! models and their dense-compiled twins.
//!
//! Each round calls `CompiledModel::forward_batch_into` at batch 32 on
//! every model, pruned and dense interleaved call by call (the order flips
//! every round), so drift in machine speed hits both sides alike. This
//! isolates `sb-infer`'s formats and kernels: realized against theoretical
//! speedup, the paper's §2.1 question. Training and serving are absent.

use crate::{metric, stamp, stats, Args, EndToEnd, Metric, Outcome};
use sb_infer::formats::{BitmapMatrix, BsrMatrix, BSR_BLOCK_W};
use sb_infer::{CompileOptions, CompiledModel, ExecFormat, ForwardScratch, LayerPlan};
use sb_nn::{models, models::Model, LayerSpec, Mode, Network};
use sb_tensor::{im2col, Conv2dGeometry, Rng, SparseMatrix, Tensor};
use shrinkbench::structured::FilterNorm;
use shrinkbench::{GlobalMagnitude, Pruner, Strategy};
use std::time::Instant;

/// Samples per call.
const BATCH: usize = 32;

/// Distinct input batches per model, cycled through the run.
const INPUTS: usize = 4;

/// The round-time tail this workload gates: p90. The highest supported
/// percentile (about p95 of ~250 rounds) fell into whichever slow phase of
/// a shared host the run met: the dense round's moved 38-50 ms over ten
/// runs (quartile spread 0.24).
const TAIL_Q: f64 = 0.9;

/// Logit agreement required between compiled and eval-mode `sb-nn`.
const LOGIT_TOL: f32 = 1e-4;

/// ResNet-18 per-layer kernel rows kept, holding the per-layer metric
/// count under its limit: the layers with the most dense MACs (ties by
/// name), a structural choice no compiler change can reshuffle.
const RESNET_KERNEL_ROWS: usize = 6;

/// The zoo: `(name, pruned model)`. Model weights and masks come from fixed
/// seeds, so formats and shapes are the same in every run; only the input
/// batches come from the run's seed.
fn zoo() -> Vec<(&'static str, Model)> {
    fn pruned(mut net: Model, strategy: &dyn Strategy, ratio: f64, seed: u64) -> Model {
        Pruner::default()
            .prune(&mut net, strategy, ratio, &mut Rng::seed_from(seed))
            .expect("pruning a fresh network succeeds");
        net
    }
    let lenet5 = || models::lenet5(1, 16, 10, &mut Rng::seed_from(0x5EED));
    vec![
        ("lenet5_gm16", pruned(lenet5(), &GlobalMagnitude, 16.0, 1)),
        // The 8x case is where the cost model sends the barely pruned
        // conv1 to BSR, which then runs slower than dense.
        ("lenet5_gm8", pruned(lenet5(), &GlobalMagnitude, 8.0, 1)),
        ("lenet5_filter16", pruned(lenet5(), &FilterNorm, 16.0, 1)),
        (
            "vgg_gm8",
            pruned(
                models::cifar_vgg(3, 16, 10, 8, &mut Rng::seed_from(0xC1FA)),
                &GlobalMagnitude,
                8.0,
                2,
            ),
        ),
        (
            "resnet18_gm4",
            pruned(
                models::resnet18(3, 16, 10, 4, &mut Rng::seed_from(0x2E5)),
                &GlobalMagnitude,
                4.0,
                3,
            ),
        ),
    ]
}

struct Entry {
    name: &'static str,
    net: Model,
    pruned: CompiledModel,
    dense: CompiledModel,
    inputs: Vec<Tensor>,
}

fn input_dims(m: &CompiledModel) -> Vec<usize> {
    match m.input_shape() {
        sb_infer::FeatureShape::Flat { d } => vec![BATCH, d],
        sb_infer::FeatureShape::Image { c, h, w } => vec![BATCH, c, h, w],
    }
}

fn build(seed: u64) -> Vec<Entry> {
    zoo()
        .into_iter()
        .enumerate()
        .map(|(i, (name, net))| {
            let pruned = CompiledModel::compile(&net, &CompileOptions::default());
            let dense = CompiledModel::compile(
                &net,
                &CompileOptions {
                    force_format: Some(ExecFormat::Dense),
                    ..CompileOptions::default()
                },
            );
            let mut rng = Rng::seed_from(seed ^ ((i as u64 + 1) << 32));
            let dims = input_dims(&pruned);
            let inputs = (0..INPUTS)
                .map(|_| Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng))
                .collect();
            Entry {
                name,
                net,
                pruned,
                dense,
                inputs,
            }
        })
        .collect()
}

/// True when `got` matches the reference within tolerance with the same
/// argmax per row.
fn logits_ok(reference: &Tensor, got: &[f32]) -> bool {
    let classes = reference.dim(1);
    reference.data().len() == got.len()
        && reference
            .data()
            .iter()
            .zip(got)
            .all(|(a, b)| (a - b).abs() <= LOGIT_TOL)
        && reference
            .data()
            .chunks(classes)
            .zip(got.chunks(classes))
            .all(|(r, g)| argmax(r) == argmax(g))
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Per-model timings from the interleaved loop, µs per call.
#[derive(Default)]
struct Calls {
    pruned_us: Vec<f64>,
    dense_us: Vec<f64>,
}

/// Runs the workload; with `trace`, also the per-layer probes.
pub fn run(args: &Args, trace: bool) -> Outcome {
    sb_runtime::set_thread_override(Some(stamp::threads_for("infer-zoo")));
    let mut out = Outcome::default();
    let (setup_s, mut zoo) = crate::timed_setup(5, || build(args.seed));

    // References: eval-mode sb-nn logits for every input (not timed).
    let reference: Vec<Vec<Tensor>> = zoo
        .iter_mut()
        .map(|e| {
            e.inputs
                .iter()
                .map(|x| e.net.forward(x, Mode::Eval))
                .collect()
        })
        .collect();

    let scratch: Vec<(ForwardScratch, ForwardScratch)> = zoo
        .iter()
        .map(|e| (e.pruned.scratch(), e.dense.scratch()))
        .collect();
    let mut buf = Vec::new();
    let mut calls: Vec<Calls> = zoo.iter().map(|_| Calls::default()).collect();
    let (mut round_pruned_ms, mut round_dense_ms) = (Vec::new(), Vec::new());
    let mut checked = 0u64;
    let mut bad = 0u64;
    // Two warm-up rounds fill the scratch pools before the clock starts.
    let warmup = 2;
    let mut start = Instant::now();
    let mut r = 0usize;
    loop {
        if r == warmup {
            start = Instant::now();
        }
        let measuring = r >= warmup;
        if r > warmup && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let (mut rp, mut rd) = (0.0, 0.0);
        for (mi, e) in zoo.iter().enumerate() {
            let xi = r % INPUTS;
            let x = &e.inputs[xi];
            for side in 0..2 {
                // Alternate which twin goes first each round.
                let pruned_side = (side + r).is_multiple_of(2);
                let (model, sc) = if pruned_side {
                    (&e.pruned, &scratch[mi].0)
                } else {
                    (&e.dense, &scratch[mi].1)
                };
                let t = Instant::now();
                model.forward_batch_into(x, &mut buf, sc);
                let us = t.elapsed().as_secs_f64() * 1e6;
                checked += 1;
                bad += u64::from(!logits_ok(&reference[mi][xi], &buf));
                if measuring {
                    if pruned_side {
                        calls[mi].pruned_us.push(us);
                        rp += us;
                    } else {
                        calls[mi].dense_us.push(us);
                        rd += us;
                    }
                }
            }
        }
        if measuring {
            round_pruned_ms.push(rp / 1e3);
            round_dense_ms.push(rd / 1e3);
        }
        r += 1;
    }
    out.check(
        "compiled logits match eval-mode sb-nn within 1e-4 with equal argmax",
        checked,
        bad,
    );

    let total =
        |f: fn(&Calls) -> &Vec<f64>| calls.iter().map(|c| f(c).iter().sum::<f64>()).sum::<f64>();
    let samples = (round_pruned_ms.len() * zoo.len() * BATCH) as f64;
    let e2e = EndToEnd {
        setup_s,
        rate_per_s: samples / (total(|c| &c.pruned_us) / 1e6),
        ref_rate_per_s: samples / (total(|c| &c.dense_us) / 1e6),
        lat: stats::Summary::at(&round_pruned_ms, TAIL_Q),
        ref_lat: stats::Summary::at(&round_dense_ms, TAIL_Q),
    };
    println!(
        "infer-zoo: {} rounds x {} models at batch {BATCH}; pruned round {}; dense round {}",
        round_pruned_ms.len(),
        zoo.len(),
        e2e.lat.describe("ms"),
        e2e.ref_lat.describe("ms")
    );
    out.e2e = Some(e2e);
    if trace {
        let layers = probes(&zoo, &calls, &mut out);
        out.layers = layers;
    }
    sb_runtime::set_thread_override(None);
    out
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).expect("every model was called")
}

/// Per-model and per-layer metrics.
fn probes(zoo: &[Entry], calls: &[Calls], out: &mut Outcome) -> Vec<Metric> {
    let mut layers = Vec::new();
    let mut rng = Rng::seed_from(0x1A7E);
    for (e, c) in zoo.iter().zip(calls) {
        let m = e.name;
        let compile_times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(CompiledModel::compile(&e.net, &CompileOptions::default()));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        layers.push(metric(
            format!("infer.compile_us.{m}"),
            median(&compile_times),
            "us",
        ));
        let (p, d) = (median(&c.pruned_us), median(&c.dense_us));
        layers.push(metric(format!("infer.pruned_us.{m}"), p, "us"));
        layers.push(metric(format!("infer.dense_us.{m}"), d, "us"));
        let theoretical = e.pruned.dense_macs() as f64 / e.pruned.effective_macs().max(1) as f64;
        let realized = d / p;
        println!(
            "{m}: pruned {p:.1} us, dense {d:.1} us per call; realized {realized:.3}x (dense/pruned) vs theoretical {theoretical:.3}x ({} / {} MACs per sample)",
            e.pruned.dense_macs(),
            e.pruned.effective_macs()
        );
        layers.push(metric(
            format!("infer.realized_speedup.{m}"),
            realized,
            "ratio",
        ));
        layers.push(metric(
            format!("infer.realized_over_theoretical.{m}"),
            realized / theoretical,
            "ratio",
        ));
        layers.push(metric(
            format!("infer.effective_macs.{m}"),
            e.pruned.effective_macs() as f64,
            "count",
        ));
        layers.push(metric(
            format!("infer.storage_bytes.{m}"),
            e.pruned.storage_bytes() as f64,
            "bytes",
        ));

        // Kernels and the forward they are a share of are both timed on one
        // thread: a parallel forward divided into serial kernel times would
        // read over 100%.
        sb_runtime::set_thread_override(Some(1));
        let serial_forward_us = serial_forward_us(e);
        let mut kernels = kernel_rows(e, &mut rng, out);
        sb_runtime::set_thread_override(Some(stamp::threads_for("infer-zoo")));
        let kernel_sum: f64 = kernels.iter().map(|k| k.us).sum();
        let share = kernel_sum / serial_forward_us;
        println!(
            "  kernel share of the pruned forward at one thread: {kernel_sum:.1} / {serial_forward_us:.1} us = {share:.3}"
        );
        layers.push(metric(format!("infer.kernel_share.{m}"), share, "ratio"));
        if m.starts_with("resnet18") {
            kernels.sort_by(|a, b| b.dense_macs.cmp(&a.dense_macs).then(a.layer.cmp(&b.layer)));
            kernels.truncate(RESNET_KERNEL_ROWS);
        }
        for k in kernels {
            layers.push(metric(
                format!("infer.kernel_us.{m}.{}", k.layer),
                k.us,
                "us",
            ));
        }
    }
    layers
}

/// Median µs of the pruned forward on the first input batch.
fn serial_forward_us(e: &Entry) -> f64 {
    let scratch = e.pruned.scratch();
    let mut buf = Vec::new();
    let times: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            e.pruned
                .forward_batch_into(&e.inputs[0], &mut buf, &scratch);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times[1..]).expect("15 timed calls")
}

struct KernelRow {
    layer: String,
    us: f64,
    dense_macs: u64,
}

/// Walks the eval-mode spec and times, for every weight-bearing layer, the
/// public kernel of the format the compiler chose, on that layer's masked
/// matrix at batch 32 (convs include their `im2col`).
fn kernel_rows(e: &Entry, rng: &mut Rng, out: &mut Outcome) -> Vec<KernelRow> {
    fn flat(specs: &[LayerSpec], acc: &mut Vec<LayerSpec>) {
        for s in specs {
            match s {
                LayerSpec::Sequential(inner) => flat(inner, acc),
                LayerSpec::Residual { main, shortcut } => {
                    flat(main, acc);
                    flat(shortcut, acc);
                }
                LayerSpec::Linear { .. } | LayerSpec::Conv2d { .. } => acc.push(s.clone()),
                _ => {}
            }
        }
    }
    let mut specs = Vec::new();
    flat(&e.net.spec(), &mut specs);
    let mut rows = Vec::new();
    for spec in &specs {
        let (name, weight, bias, geom) = match spec {
            LayerSpec::Linear { name, weight, bias } => (name, weight, bias, None),
            LayerSpec::Conv2d {
                name,
                weight,
                bias,
                geom,
                ..
            } => (name, weight, bias, Some(*geom)),
            _ => unreachable!("only weight-bearing layers are collected"),
        };
        let Some(plan) = e.pruned.plans().iter().find(|p| &p.name == name) else {
            out.check(&format!("{}: compiled plan for {name}", e.name), 1, 1);
            continue;
        };
        let us = time_kernel(plan, weight, bias, geom, rng);
        println!(
            "  {}.{name}: {} {:.1} us, {} effective MACs/sample, {} weight bytes",
            e.name,
            plan.format.label(),
            us.0,
            plan.effective_macs,
            plan.storage_bytes
        );
        println!(
            "    computed bytes moved per call: {} (weights + input + output)",
            us.1
        );
        rows.push(KernelRow {
            layer: name.clone(),
            us: us.0,
            dense_macs: plan.dense_macs,
        });
    }
    rows
}

/// Median µs of the chosen format's public kernel on this layer, and the
/// bytes it moves (weights + im2col input + output, computed from sizes).
fn time_kernel(
    plan: &LayerPlan,
    weight: &Tensor,
    bias: &Tensor,
    geom: Option<Conv2dGeometry>,
    rng: &mut Rng,
) -> (f64, usize) {
    let (out_f, in_f) = (weight.dim(0), weight.dim(1));
    let positions = geom.map_or(1, |g| g.out_h() * g.out_w());
    // A shrunk layer runs the dense kernel on its surviving rows and on
    // the columns its shrunk producer still emits.
    let (w, b, in_cols) = if plan.format == ExecFormat::ShrunkDense {
        let wd = weight.data();
        let mut kept: Vec<usize> = (0..out_f)
            .filter(|&r| wd[r * in_f..(r + 1) * in_f].iter().any(|&v| v != 0.0))
            .collect();
        if kept.is_empty() {
            kept.push(0);
        }
        let rows_kept = kept.len();
        let cols_kept = ((plan.effective_macs as usize) / (rows_kept * positions)).clamp(1, in_f);
        let mut data = Vec::with_capacity(rows_kept * cols_kept);
        for &r in &kept {
            data.extend_from_slice(&wd[r * in_f..r * in_f + cols_kept]);
        }
        let w = Tensor::from_vec(data, &[rows_kept, cols_kept]).expect("shrunk weight shape");
        (w, vec![0.0f32; rows_kept], cols_kept)
    } else {
        (weight.clone(), bias.data().to_vec(), in_f)
    };
    let input = match geom {
        Some(g) => {
            let kk = g.kernel_h * g.kernel_w;
            let mut g = g;
            g.in_channels = (in_cols / kk).max(1);
            (
                Some(g),
                Tensor::rand_normal(&[BATCH, g.in_channels, g.in_h, g.in_w], 0.0, 1.0, rng),
            )
        }
        None => (None, Tensor::rand_normal(&[BATCH, in_cols], 0.0, 1.0, rng)),
    };
    let rows_out = w.dim(0);
    let bsr = (plan.format == ExecFormat::Bsr).then(|| BsrMatrix::from_dense(&w, BSR_BLOCK_W));
    let bitmap = (plan.format == ExecFormat::Bitmap).then(|| BitmapMatrix::from_dense(&w));
    let csr = (plan.format == ExecFormat::Csr).then(|| SparseMatrix::from_dense(&w));
    let m = BATCH * positions;
    let mut y = vec![0.0f32; m * rows_out];
    let mut once = || {
        let cols = match &input {
            (Some(g), x) => im2col(x, g),
            (None, x) => x.clone(),
        };
        match plan.format {
            ExecFormat::Bsr => bsr
                .as_ref()
                .expect("built")
                .matmul_rows(cols.data(), &b, &mut y),
            ExecFormat::Bitmap => {
                bitmap
                    .as_ref()
                    .expect("built")
                    .matmul_rows(cols.data(), &b, &mut y)
            }
            ExecFormat::Csr => {
                std::hint::black_box(csr.as_ref().expect("built").dense_matmul_transposed(&cols));
            }
            ExecFormat::Dense | ExecFormat::ShrunkDense => {
                std::hint::black_box(cols.matmul_transposed(&w));
            }
        }
        std::hint::black_box(&y);
    };
    once();
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            once();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let bytes = plan.storage_bytes + 4 * in_cols * m + 4 * m * rows_out;
    (stats::median(&times).expect("15 samples"), bytes)
}
