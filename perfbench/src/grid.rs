//! `grid-cifar-vgg`: the CIFAR-VGG (width 8) quick grid that
//! `expfig fig9 --scale quick` runs, with no result cache.
//!
//! Pretraining (8 epochs) and then 5 strategies × 6 compressions × 1 seed,
//! each cell a one-shot prune, a 2-epoch fine-tune and an evaluation, run
//! by `ExperimentRunner::run_with_summary` on every CPU. This is
//! ShrinkBench's own job; training kernels in `sb-tensor`/`sb-nn` and cell
//! parallelism in `sb-runtime` do almost all the work, and `sb-infer`,
//! `sb-serve` and `sb-sched` do none. The grid is defined here rather than
//! taken from `sb-bench`, so a change to the figure configurations cannot
//! silently change the benchmark.

use crate::{metric, stamp, stats, Args, EndToEnd, Metric, Outcome};
use sb_data::{batches_of, Split, SyntheticVision};
use sb_nn::{evaluate, models::Model, Network, NetworkExt, OpInfo, ParamSnapshot, Trainer};
use sb_tensor::{Rng, Tensor};
use shrinkbench::experiment::{
    DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
};
use shrinkbench::{
    prune_and_retrain, FinetuneConfig, GlobalGradient, GlobalMagnitude, OptimizerKind,
    PruneSettings, Pruner, ScheduleKind, StrategyKind, WeightPolicy,
};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Pretrained validation top-1 below this fails the run (chance is 0.1).
const PRETRAIN_TOP1_FLOOR: f32 = 0.5;

/// Relative tolerance on a cell's achieved compression.
const COMPRESSION_TOL: f64 = 0.01;

/// The CIFAR-VGG quick grid with its dataset drawn from `seed`.
fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        id: "perfbench-cifar-vgg-quick".to_string(),
        dataset: DatasetKind::CifarLike,
        data_scale: 8,
        data_seed: seed,
        model: ModelKind::CifarVgg { base_width: 8 },
        strategies: StrategyKind::FIGURE7.to_vec(),
        compressions: vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 8,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            batch_size: 64,
            weights_seed: 0xA11CE,
            patience: Some(5),
        },
        finetune: FinetuneConfig {
            epochs: 2,
            batch_size: 64,
            optimizer: OptimizerKind::Adam { lr: 3e-4 },
            schedule: ScheduleKind::OneShot,
            patience: Some(1),
            flatten_input: false,
            exclude_classifier: true,
            weight_policy: WeightPolicy::Finetune,
        },
    }
}

/// Largest compression the pruner can reach on `net`: all parameters over
/// the ones it never prunes (biases, norms and the excluded classifier).
fn max_compression(net: &Model) -> f64 {
    let classifier = net.ops().into_iter().rev().find_map(|op| match op {
        OpInfo::Linear { weight_name, .. } => Some(weight_name),
        OpInfo::Conv2d { .. } => None,
    });
    let (mut total, mut fixed) = (0usize, 0usize);
    net.visit_params_ref(&mut |p| {
        if !p.kind().counts_as_parameter() {
            return;
        }
        total += p.numel();
        if !p.kind().prunable_by_default() || Some(p.name()) == classifier.as_deref() {
            fixed += p.numel();
        }
    });
    total as f64 / fixed.max(1) as f64
}

/// True when `achieved` meets `target` within tolerance, or falls short
/// only because the target exceeds what the model can reach.
fn compression_ok(target: f64, achieved: f64, cap: f64) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= COMPRESSION_TOL * b;
    close(achieved, target) || (target > cap && close(achieved, cap))
}

struct Built {
    data: SyntheticVision,
    cap: f64,
}

fn build(cfg: &ExperimentConfig) -> Built {
    let data = SyntheticVision::new(cfg.dataset.spec(cfg.data_scale, cfg.data_seed));
    let net = cfg
        .model
        .build(data.spec(), &mut Rng::seed_from(cfg.pretrain.weights_seed));
    let cap = max_compression(&net);
    Built { data, cap }
}

/// Standalone pretrains timed per round; the round's pretrain time is
/// their median.
const PRETRAINS: usize = 3;

/// [`PRETRAINS`] timed pretrains followed by one timed grid, with output
/// checks.
struct Round {
    pretrain_s: Vec<f64>,
    grid_s: f64,
    cells: usize,
}

impl Round {
    fn pretrain_median_s(&self) -> f64 {
        stats::median(&self.pretrain_s).expect("PRETRAINS > 0")
    }
}

fn round(cfg: &ExperimentConfig, built: &Built, out: &mut Outcome) -> Round {
    let mut pretrain_s = Vec::with_capacity(PRETRAINS);
    for _ in 0..PRETRAINS {
        let t = Instant::now();
        let (_, pre, _) = ExperimentRunner::pretrain(cfg, &built.data);
        pretrain_s.push(t.elapsed().as_secs_f64());
        out.check(
            "pretrain top-1 above floor",
            1,
            u64::from(pre.top1 < PRETRAIN_TOP1_FLOOR),
        );
    }

    let runner = ExperimentRunner::default();
    let cells = cfg.strategies.len() * cfg.compressions.len() * cfg.seeds.len();
    let t = Instant::now();
    let summary = std::panic::catch_unwind(AssertUnwindSafe(|| runner.run_with_summary(cfg)));
    let grid_s = t.elapsed().as_secs_f64();
    match summary {
        Ok(s) => {
            let bad = s
                .records
                .iter()
                .filter(|r| !compression_ok(r.target_compression, r.compression, built.cap))
                .count();
            out.check(
                "cell compression within tolerance",
                cells as u64,
                bad as u64,
            );
            out.check(
                "every cell computed, none resumed",
                1,
                u64::from(s.computed != cells || s.records.len() != cells),
            );
            let pre_bad = s
                .records
                .iter()
                .filter(|r| r.pretrain_top1 < PRETRAIN_TOP1_FLOOR)
                .count();
            out.check("grid pretrain top-1 above floor", 1, u64::from(pre_bad > 0));
        }
        Err(_) => out.check("grid ran without a prune error", cells as u64, cells as u64),
    }
    Round {
        pretrain_s,
        grid_s,
        cells,
    }
}

/// Runs the workload; with `trace`, also the per-layer probes.
pub fn run(args: &Args, trace: bool) -> Outcome {
    let threads = stamp::threads_for("grid-cifar-vgg");
    sb_runtime::set_thread_override(Some(threads));
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let (setup_s, built) = crate::timed_setup(25, || build(&cfg));

    let start = Instant::now();
    let mut rounds = Vec::new();
    // Whole rounds only: another one starts if it should end within the
    // run's seconds at the pace of the rounds so far.
    loop {
        rounds.push(round(&cfg, &built, &mut out));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (rounds.len() + 1) as f64 / rounds.len() as f64 > args.seconds {
            break;
        }
    }
    let grid_ms: Vec<f64> = rounds.iter().map(|r| r.grid_s * 1e3).collect();
    let pretrain_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.pretrain_s.iter().map(|s| s * 1e3))
        .collect();
    let cells: usize = rounds.iter().map(|r| r.cells).sum();
    let cell_phase_s: f64 = rounds
        .iter()
        .map(|r| (r.grid_s - r.pretrain_median_s()).max(1e-9))
        .sum();
    let train_samples = (cfg.pretrain.epochs * built.data.len(Split::Train)) as f64;
    let e2e = EndToEnd {
        setup_s,
        rate_per_s: cells as f64 / cell_phase_s,
        ref_rate_per_s: train_samples / (stats::median(&pretrain_ms).expect("PRETRAINS > 0") / 1e3),
        lat: stats::Summary::of(&grid_ms),
        ref_lat: stats::Summary::of(&pretrain_ms),
    };
    println!(
        "grid-cifar-vgg: {} round(s) at {threads} thread(s); grid job {}; pretrain {}; {:.3} cells/s over the cell phase",
        rounds.len(),
        e2e.lat.describe("ms"),
        e2e.ref_lat.describe("ms"),
        e2e.rate_per_s
    );
    out.e2e = Some(e2e);
    if trace {
        let cell_phase_ms = cell_phase_s * 1e3 / rounds.len() as f64;
        let layers = probes(&cfg, &built, cell_phase_ms, threads, &mut out);
        out.layers = layers;
    }
    sb_runtime::set_thread_override(None);
    out
}

fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times).expect("repeats > 0")
}

fn restored(cfg: &ExperimentConfig, data: &SyntheticVision, snap: &[ParamSnapshot]) -> Model {
    let mut net = cfg
        .model
        .build(data.spec(), &mut Rng::seed_from(cfg.pretrain.weights_seed));
    net.restore(snap);
    net
}

/// Per-layer probes: public calls of `sb-data`, `sb-nn`, `sb-tensor` and
/// `shrinkbench` timed from here, and the grid's parallel efficiency.
fn probes(
    cfg: &ExperimentConfig,
    built: &Built,
    cell_phase_ms: f64,
    threads: usize,
    out: &mut Outcome,
) -> Vec<Metric> {
    let data = &built.data;
    let mut layers = Vec::new();
    let bs = cfg.pretrain.batch_size;

    // sb-data: one shuffled training epoch of batches.
    let mut rng = Rng::seed_from(cfg.data_seed ^ 0xDA7A);
    layers.push(metric(
        "data.epoch_batches_ms",
        median_ms(9, || {
            std::hint::black_box(batches_of(data, Split::Train, bs, Some(&mut rng), false));
        }),
        "ms",
    ));

    let (_, _, snap, init) = ExperimentRunner::pretrain_with_init(cfg, data);

    // sb-nn: training steps and evaluation on the pretrained model.
    let mut net = restored(cfg, data, &snap);
    let mut opt = cfg.finetune.optimizer.build();
    let mut steps = Vec::new();
    let step_start = Instant::now();
    let mut epoch = 0u64;
    while steps.len() < 200 || (steps.len() < 1000 && step_start.elapsed().as_secs_f64() < 4.0) {
        let mut fork = rng.fork(epoch);
        epoch += 1;
        for batch in batches_of(data, Split::Train, bs, Some(&mut fork), false) {
            let t = Instant::now();
            let loss = Trainer::train_step(&mut net, opt.as_mut(), &batch);
            steps.push(t.elapsed().as_secs_f64() * 1e6);
            out.check("train step finite", 1, u64::from(loss.is_err()));
        }
    }
    let step = stats::Summary::of(&steps);
    println!("nn.train_step_us: {}", step.describe("us"));
    layers.push(metric("nn.train_step_us.p50", step.p50, "us"));
    layers.push(metric("nn.train_step_us.tail", step.tail, "us"));
    let val = batches_of(data, Split::Val, bs, None, false);
    let mut eval_net = restored(cfg, data, &snap);
    layers.push(metric(
        "nn.evaluate_ms",
        median_ms(9, || {
            std::hint::black_box(evaluate(&mut eval_net, &val));
        }),
        "ms",
    ));

    // sb-tensor: the matmul of the model's largest im2col product.
    let (m, k, n) = largest_conv_matmul(&eval_net, bs);
    let mut trng = Rng::seed_from(0x3A7);
    let cols = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut trng);
    let w = Tensor::rand_normal(&[n, k], 0.0, 1.0, &mut trng);
    let matmul_us = 1e3
        * median_ms(21, || {
            std::hint::black_box(cols.matmul_transposed(&w));
        });
    println!(
        "tensor.matmul: [{m}x{k}] x [{n}x{k}]^T, {} MACs, {matmul_us:.1} us",
        m * k * n
    );
    layers.push(metric("tensor.matmul_us", matmul_us, "us"));
    layers.push(metric("tensor.matmul_macs", (m * k * n) as f64, "count"));

    // shrinkbench: the pruner alone, magnitude and gradient scored.
    let mut prng = Rng::seed_from(0x9E);
    layers.push(metric(
        "core.prune_ms.magnitude",
        median_ms(7, || {
            let mut net = restored(cfg, data, &snap);
            let r = Pruner::default().prune(&mut net, &GlobalMagnitude, 8.0, &mut prng);
            out.check("magnitude prune", 1, u64::from(r.is_err()));
        }),
        "ms",
    ));
    let score_batch = val.first().cloned();
    layers.push(metric(
        "core.prune_ms.gradient",
        median_ms(7, || {
            let mut net = restored(cfg, data, &snap);
            let pruner = Pruner::new(PruneSettings {
                score_batch: score_batch.clone(),
                ..PruneSettings::default()
            });
            let r = pruner.prune(&mut net, &GlobalGradient, 8.0, &mut prng);
            out.check("gradient prune", 1, u64::from(r.is_err()));
        }),
        "ms",
    ));

    // Every grid cell once more, one at a time on one thread: the work the
    // parallel grid spreads over its workers.
    sb_runtime::set_thread_override(Some(1));
    let mut finetune = cfg.finetune.clone();
    finetune.flatten_input = cfg.model.flatten_input();
    let mut cell_ms = Vec::new();
    for kind in &cfg.strategies {
        for &c in &cfg.compressions {
            for &seed in &cfg.seeds {
                let mut net = restored(cfg, data, &snap);
                let strategy = kind.build();
                let mut rng = Rng::seed_from(seed ^ 0x5EED_0000);
                let t = Instant::now();
                let r = prune_and_retrain(
                    &mut net,
                    strategy.as_ref(),
                    c,
                    data,
                    &finetune,
                    Some(&init),
                    &mut rng,
                );
                cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let ok = r.is_ok_and(|r| compression_ok(c, r.compression, built.cap));
                out.check("serial cell", 1, u64::from(!ok));
            }
        }
    }
    sb_runtime::set_thread_override(Some(threads));
    let serial_ms: f64 = cell_ms.iter().sum();
    let cells = stats::Summary::of(&cell_ms);
    println!(
        "core.cell_ms (serial, 1 thread): {}; sum {serial_ms:.1} ms",
        cells.describe("ms")
    );
    layers.push(metric("core.cell_ms.p50", cells.p50, "ms"));
    let efficiency = serial_ms / (cell_phase_ms * threads as f64);
    println!(
        "runtime.grid_efficiency = {serial_ms:.1} ms serial / ({cell_phase_ms:.1} ms cell phase x {threads} threads) = {efficiency:.3}"
    );
    layers.push(metric("runtime.grid_efficiency", efficiency, "ratio"));
    layers
}

/// `(rows, patch, out_channels)` of the largest conv im2col matmul at
/// batch `bs`.
fn largest_conv_matmul(net: &Model, bs: usize) -> (usize, usize, usize) {
    fn walk(specs: &[sb_nn::LayerSpec], bs: usize, best: &mut (usize, usize, usize)) {
        for s in specs {
            match s {
                sb_nn::LayerSpec::Conv2d {
                    out_channels, geom, ..
                } => {
                    let cand = (
                        bs * geom.out_h() * geom.out_w(),
                        geom.patch_len(),
                        *out_channels,
                    );
                    if cand.0 * cand.1 * cand.2 > best.0 * best.1 * best.2 {
                        *best = cand;
                    }
                }
                sb_nn::LayerSpec::Sequential(inner) => walk(inner, bs, best),
                sb_nn::LayerSpec::Residual { main, shortcut } => {
                    walk(main, bs, best);
                    walk(shortcut, bs, best);
                }
                _ => {}
            }
        }
    }
    let mut best = (1, 1, 1);
    walk(&net.spec(), bs, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_targets_are_judged_against_the_cap() {
        assert!(compression_ok(8.0, 8.001, 26.0));
        assert!(!compression_ok(8.0, 7.5, 26.0));
        assert!(compression_ok(32.0, 26.013, 26.0));
        assert!(!compression_ok(32.0, 20.0, 26.0));
        assert!(!compression_ok(16.0, 12.0, 26.0));
    }
}
