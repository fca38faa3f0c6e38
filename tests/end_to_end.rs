//! Cross-crate integration: dataset → model → pretrain → prune →
//! fine-tune → metrics, exercising the full pipeline the way `expfig`
//! does, at miniature scale.

use sb_data::{batches_of, DatasetSpec, Split, SyntheticVision};
use sb_metrics::ModelProfile;
use sb_nn::{evaluate, models, Adam, Network, TrainConfig, Trainer};
use sb_tensor::Rng;
use shrinkbench::experiment::{
    DatasetKind, ExperimentConfig, ExperimentRunner, ModelKind, PretrainConfig,
};
use shrinkbench::{
    prune_and_finetune, FinetuneConfig, GlobalMagnitude, LayerMagnitude, OptimizerKind,
    StrategyKind,
};

fn tiny_dataset() -> SyntheticVision {
    SyntheticVision::new(DatasetSpec::mnist_like(1).scaled_down(8))
}

fn pretrained_lenet(data: &SyntheticVision) -> models::Model {
    let mut rng = Rng::seed_from(0);
    let mut net = models::lenet5(1, 16, 10, &mut rng);
    let mut opt = Adam::new(1e-3);
    let trainer = Trainer::new(TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    });
    let mut erng = Rng::seed_from(1);
    trainer
        .fit(
            &mut net,
            &mut opt,
            |_| {
                let mut fork = erng.fork(0);
                batches_of(data, Split::Train, 32, Some(&mut fork), false)
            },
            &[],
        )
        .unwrap();
    net
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let data = tiny_dataset();
        let mut net = pretrained_lenet(&data);
        let mut rng = Rng::seed_from(9);
        let result = prune_and_finetune(
            &mut net,
            &GlobalMagnitude,
            8.0,
            &data,
            &FinetuneConfig {
                epochs: 2,
                patience: None,
                ..FinetuneConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        (
            result.compression,
            result.speedup,
            result.after_finetune.top1,
            result.after_finetune.top5,
        )
    };
    assert_eq!(run(), run(), "same seeds must give identical results");
}

#[test]
fn profile_agrees_with_prune_outcome() {
    let data = tiny_dataset();
    let mut net = pretrained_lenet(&data);
    let mut rng = Rng::seed_from(2);
    let result = prune_and_finetune(
        &mut net,
        &LayerMagnitude,
        4.0,
        &data,
        &FinetuneConfig {
            epochs: 1,
            patience: None,
            ..FinetuneConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    // Fine-tuning must not alter the sparsity structure.
    let profile = ModelProfile::measure(&net);
    assert!((profile.compression_ratio() - result.compression).abs() < 1e-9);
    assert!((profile.theoretical_speedup() - result.speedup).abs() < 1e-9);
}

#[test]
fn pruned_weights_are_exactly_zero_after_everything() {
    let data = tiny_dataset();
    let mut net = pretrained_lenet(&data);
    let mut rng = Rng::seed_from(3);
    prune_and_finetune(
        &mut net,
        &GlobalMagnitude,
        16.0,
        &data,
        &FinetuneConfig {
            epochs: 2,
            patience: None,
            ..FinetuneConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut violations = 0usize;
    net.visit_params(&mut |p| {
        if let Some(mask) = p.mask() {
            let mask = mask.clone();
            for (v, m) in p.value().data().iter().zip(mask.data()) {
                if *m == 0.0 && *v != 0.0 {
                    violations += 1;
                }
            }
        }
    });
    assert_eq!(violations, 0);
}

#[test]
fn evaluation_is_stable_across_calls() {
    // Eval mode must not mutate state (batch-norm running stats etc.).
    let data = tiny_dataset();
    let mut net = pretrained_lenet(&data);
    let val = batches_of(&data, Split::Val, 32, None, false);
    let a = evaluate(&mut net, &val);
    let b = evaluate(&mut net, &val);
    assert_eq!(a.top1, b.top1);
    assert_eq!(a.loss, b.loss);
}

#[test]
fn experiment_runner_grid_shapes_and_controls() {
    let config = ExperimentConfig {
        id: "integration-tiny".to_string(),
        dataset: DatasetKind::MnistLike,
        data_scale: 16,
        data_seed: 3,
        model: ModelKind::Lenet300_100,
        strategies: vec![StrategyKind::GlobalMagnitude, StrategyKind::LayerMagnitude],
        compressions: vec![1.0, 4.0],
        seeds: vec![1, 2],
        pretrain: PretrainConfig {
            epochs: 3,
            patience: None,
            ..PretrainConfig::default()
        },
        finetune: FinetuneConfig {
            epochs: 1,
            patience: None,
            ..FinetuneConfig::default()
        },
    };
    let records = ExperimentRunner::default().run(&config);
    assert_eq!(records.len(), 2 * 2 * 2);
    for r in &records {
        // The dense control (ratio 1.0) must match the pretrained model.
        if r.target_compression == 1.0 {
            assert!((r.compression - 1.0).abs() < 1e-9);
            assert!((r.speedup - 1.0).abs() < 1e-9);
        }
        assert!(r.top1 >= 0.0 && r.top1 <= 1.0);
        assert!(r.top5 >= r.top1, "top5 {} < top1 {}", r.top5, r.top1);
    }
}

#[test]
fn all_model_kinds_survive_pruning_round() {
    // Every model in the zoo can be pruned by every baseline at 4×.
    let kinds: Vec<(ModelKind, DatasetKind)> = vec![
        (ModelKind::Lenet300_100, DatasetKind::MnistLike),
        (ModelKind::Lenet5, DatasetKind::MnistLike),
        (ModelKind::CifarVgg { base_width: 2 }, DatasetKind::CifarLike),
        (
            ModelKind::ResNetCifar { depth: 8, base_width: 2 },
            DatasetKind::CifarLike,
        ),
    ];
    for (model, dataset) in kinds {
        let spec = dataset.spec(16, 0);
        let data = SyntheticVision::new(spec.clone());
        let mut weights_rng = Rng::seed_from(1);
        let mut net = model.build(&spec, &mut weights_rng);
        let mut rng = Rng::seed_from(2);
        let result = prune_and_finetune(
            &mut net,
            &GlobalMagnitude,
            4.0,
            &data,
            &FinetuneConfig {
                epochs: 1,
                patience: None,
                flatten_input: model.flatten_input(),
                ..FinetuneConfig::default()
            },
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", model.label()));
        assert!(
            (result.compression - 4.0).abs() < 0.4,
            "{}: compression {}",
            model.label(),
            result.compression
        );
    }
}

/// Workspace-level determinism down to the serialized bytes: the same
/// tiny prune → fine-tune run, executed twice from the same seeds, must
/// produce **bit-identical** metrics JSON, and that JSON must survive an
/// `sb-json` round-trip byte-for-byte. This is the contract the
/// experiment cache and every reported figure rely on.
#[test]
fn metrics_json_is_bit_identical_across_reruns() {
    let run = || {
        let data = tiny_dataset();
        let spec = data.spec().clone();
        let mut weights_rng = Rng::seed_from(7);
        let mut net = ModelKind::Lenet300_100.build(&spec, &mut weights_rng);
        let mut rng = Rng::seed_from(8);
        let result = prune_and_finetune(
            &mut net,
            &GlobalMagnitude,
            4.0,
            &data,
            &FinetuneConfig {
                epochs: 1,
                patience: None,
                flatten_input: true,
                ..FinetuneConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        sb_json::to_string_pretty(&result).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seeds must serialize identically");

    // Round-trip: parse back and re-serialize; floats must reproduce
    // exactly (sb-json prints shortest-round-trip decimals).
    let parsed: shrinkbench::PruneFinetuneResult = sb_json::from_str(&first).unwrap();
    assert_eq!(sb_json::to_string_pretty(&parsed).unwrap(), first);
}

/// The runtime's determinism contract, end to end: the same prune +
/// fine-tune grid run on one thread and on four must serialize to
/// byte-identical metrics JSON. Work decomposition and result commit
/// order are fixed by the problem shape, so the worker count can only
/// change scheduling — never a single bit of output.
#[test]
fn metrics_json_is_bit_identical_across_thread_counts() {
    let grid = |threads: usize| {
        sb_runtime::set_thread_override(Some(threads));
        let config = ExperimentConfig {
            id: "threads-determinism".to_string(),
            dataset: DatasetKind::MnistLike,
            data_scale: 16,
            data_seed: 5,
            model: ModelKind::Lenet300_100,
            strategies: vec![StrategyKind::GlobalMagnitude],
            compressions: vec![2.0, 4.0],
            seeds: vec![1, 2],
            pretrain: PretrainConfig {
                epochs: 2,
                patience: None,
                ..PretrainConfig::default()
            },
            finetune: FinetuneConfig {
                epochs: 1,
                patience: None,
                ..FinetuneConfig::default()
            },
        };
        let records = ExperimentRunner::default().run(&config);
        sb_runtime::set_thread_override(None);
        sb_json::to_string_pretty(&records).unwrap()
    };
    let sequential = grid(1);
    let parallel = grid(4);
    assert_eq!(
        sequential, parallel,
        "worker count must not change serialized grid metrics"
    );
}

/// FNV-1a 64-bit over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The bit-identity pin for every training kernel: a fixed-seed CIFAR-VGG
/// (width 8) pretrain of 2 epochs, then one global-magnitude 4× prune +
/// 2-epoch fine-tune cell. The hash covers the bit pattern of every final
/// weight and mask and the cell's metrics JSON. The constant was recorded
/// with the original scalar kernels; a kernel rewrite that changes any
/// accumulation order, rounding or zero-skip changes it.
#[test]
fn cifar_vgg_training_fingerprint_is_pinned() {
    const PINNED: u64 = 0xa6ae_470d_13ab_80b7;
    let config = ExperimentConfig {
        id: "fingerprint-cifar-vgg".to_string(),
        dataset: DatasetKind::CifarLike,
        data_scale: 8,
        data_seed: 1,
        model: ModelKind::CifarVgg { base_width: 8 },
        strategies: vec![StrategyKind::GlobalMagnitude],
        compressions: vec![4.0],
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 2,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            batch_size: 64,
            weights_seed: 0xA11CE,
            patience: None,
        },
        finetune: FinetuneConfig {
            epochs: 2,
            batch_size: 64,
            optimizer: OptimizerKind::Adam { lr: 3e-4 },
            patience: None,
            exclude_classifier: true,
            ..FinetuneConfig::default()
        },
    };
    let data = SyntheticVision::new(config.dataset.spec(config.data_scale, config.data_seed));
    let (mut net, _, _) = ExperimentRunner::pretrain(&config, &data);
    let mut rng = Rng::seed_from(0x5EED_0001);
    let result = prune_and_finetune(
        &mut net,
        &GlobalMagnitude,
        4.0,
        &data,
        &config.finetune,
        &mut rng,
    )
    .unwrap();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    net.visit_params_ref(&mut |p| {
        hash = fnv1a(hash, p.name().as_bytes());
        for v in p.value().data() {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
        if let Some(mask) = p.mask() {
            for v in mask.data() {
                hash = fnv1a(hash, &v.to_bits().to_le_bytes());
            }
        }
    });
    hash = fnv1a(hash, sb_json::to_string_pretty(&result).unwrap().as_bytes());
    assert_eq!(
        hash, PINNED,
        "training fingerprint moved: {hash:#018x}; a kernel changed a bit"
    );
}
