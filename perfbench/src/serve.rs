//! `serve-single`: one process drives an `sb-serve` `Server` in
//! wall-clock open loop with uniform arrivals.
//!
//! The engine is `InferEngine` on the 16× global-magnitude LeNet-300-100
//! (CSR layers, ~100 µs per full batch), so admission, batch formation and
//! pump overhead are a visible share of latency; the grid never touches
//! them. Three phases: a `light` rate well below the knee (small batches),
//! a `heavy` rate towards it (larger batches), and a fixed-step search for
//! the highest rate that passes [`openloop::passes`], which is reported but
//! not gated. All rates are fixed absolute numbers, never derived from a
//! speed measured on the code under test.

use crate::openloop::{self, Phase, TimedEngine, DEADLINE_US};
use crate::{metric, stamp, stats, Args, EndToEnd, Metric, Outcome};
use sb_infer::{CompileOptions, CompiledModel};
use sb_serve::{
    ArrivalProcess, BatchEngine, InferEngine, Outcome as Resolution, RejectReason, ServeConfig,
    Server, ServiceModel, WallClock,
};
use sb_tensor::{Rng, Tensor};
use shrinkbench::{GlobalMagnitude, Pruner};
use std::sync::Arc;

/// Input features of the served LeNet-300-100.
const FEATURES: usize = 256;

/// Offered rate well below the knee, requests/s.
const LIGHT_RPS: f64 = 4_000.0;

/// Offered rate towards the knee, requests/s. Batches average about 13 of
/// 16 here; closer to the knee (about 100-130k on a 2-vCPU host) the p99
/// swings several-fold between runs on a shared host.
const HEAVY_RPS: f64 = 48_000.0;

/// The `max_rps` search: a coarse ascending ladder, then fine steps up
/// from the last coarse pass, requests/s.
const SEARCH_FROM_RPS: f64 = 16_000.0;
const SEARCH_COARSE_RPS: f64 = 32_000.0;
const SEARCH_FINE_RPS: f64 = 4_000.0;
const SEARCH_MAX_RPS: f64 = 400_000.0;

/// Shares of the run's seconds given to the light phase, the heavy phase
/// and each search trial.
const LIGHT_SHARE: f64 = 0.3;
const HEAVY_SHARE: f64 = 0.35;
const TRIAL_SHARE: f64 = 0.02;

/// Distinct request samples, cycled.
const POOL: usize = 512;

/// The batching policy every phase serves with.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_wait_us: 200,
        queue_cap: 128,
        max_inflight: 2,
    }
}

/// The 16×-pruned LeNet-300-100 the serving workloads use, compiled with
/// the cost-model formats (CSR) or forced to one format.
pub fn lenet_300_100(ratio: f64, force: Option<sb_infer::ExecFormat>) -> CompiledModel {
    let mut rng = Rng::seed_from(0xBE7C);
    let mut net = sb_nn::models::lenet_300_100(FEATURES, 10, &mut rng);
    if ratio > 1.0 {
        Pruner::default()
            .prune(&mut net, &GlobalMagnitude, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
    }
    CompiledModel::compile(
        &net,
        &CompileOptions {
            force_format: force,
            ..CompileOptions::default()
        },
    )
}

/// `POOL` seeded samples and each one's class by the engine's own
/// single-sample `run_batch`.
pub fn pool(engine: &dyn BatchEngine, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = Rng::seed_from(seed);
    let samples: Vec<Vec<f32>> = (0..POOL)
        .map(|_| {
            Tensor::rand_normal(&[FEATURES], 0.0, 1.0, &mut rng)
                .data()
                .to_vec()
        })
        .collect();
    let expected = samples.iter().map(|s| engine.run_batch(s, 1)[0]).collect();
    (samples, expected)
}

/// The service price is only consulted under a virtual clock; the wall
/// clock measures the real thing.
const WALL_SERVICE: ServiceModel = ServiceModel {
    base_us: 0,
    per_sample_us: 1,
};

/// Engines whose executed batches a traced run can read back.
trait BatchLog: BatchEngine + Sized + 'static {
    /// `(µs, batch size)` per executed batch since the last call.
    fn batches(&self) -> Vec<(f64, usize)>;
}

impl BatchLog for InferEngine {
    fn batches(&self) -> Vec<(f64, usize)> {
        Vec::new()
    }
}

impl<E: BatchEngine + 'static> BatchLog for TimedEngine<E> {
    fn batches(&self) -> Vec<(f64, usize)> {
        self.take()
    }
}

/// One phase at `rate` for `horizon_us` on a fresh server and clock.
fn phase<E: BatchLog>(
    engine: E,
    rate: f64,
    horizon_us: u64,
    seed: u64,
    samples: &[Vec<f32>],
    trace: bool,
) -> (Phase, Vec<(f64, usize)>) {
    let clock = Arc::new(WallClock::new());
    let mut server = Server::new(engine, serve_config(), clock.clone());
    let arrivals: Vec<(u64, usize, usize)> = ArrivalProcess::Uniform { rate_rps: rate }
        .arrivals(horizon_us, seed)
        .into_iter()
        .enumerate()
        .map(|(i, at)| (at, 0, i))
        .collect();
    let p = openloop::run_wall(
        &mut server,
        clock.as_ref(),
        &arrivals,
        horizon_us,
        &[Some(DEADLINE_US)],
        |_, i| (i % samples.len(), samples[i % samples.len()].clone()),
        trace,
    );
    let batches = server.engine().batches();
    (p, batches)
}

struct Phases {
    light: (Phase, Vec<(f64, usize)>),
    heavy: (Phase, Vec<(f64, usize)>),
    trials: Vec<String>,
    max_rps: f64,
    rejected: [u64; 2],
}

/// Checks one phase's answers; with `rejected`, also tallies its
/// queue-full and deadline rejections.
fn account(
    p: &Phase,
    what: &str,
    expected: &[usize],
    rejected: Option<&mut [u64; 2]>,
    out: &mut Outcome,
) {
    let bad = openloop::check_answers(p, &[expected]);
    out.check(what, p.sent.len() as u64, bad as u64);
    if let Some(rejected) = rejected {
        for d in &p.done {
            match d.outcome {
                Resolution::Rejected {
                    reason: RejectReason::QueueFull,
                } => rejected[0] += 1,
                Resolution::Rejected {
                    reason: RejectReason::DeadlineExpired,
                } => rejected[1] += 1,
                _ => {}
            }
        }
    }
}

fn all_phases<E: BatchLog>(
    make: impl Fn() -> E,
    args: &Args,
    samples: &[Vec<f32>],
    expected: &[usize],
    trace: bool,
    out: &mut Outcome,
) -> Phases {
    let us = |share: f64| (args.seconds * share * 1e6) as u64;
    // Rejections are tallied on the fixed-rate phases only; the search
    // overloads the server on purpose.
    let mut rejected = [0u64; 2];
    let light = phase(
        make(),
        LIGHT_RPS,
        us(LIGHT_SHARE),
        args.seed,
        samples,
        trace,
    );
    account(
        &light.0,
        "serve light: exactly-once and predictions",
        expected,
        Some(&mut rejected),
        out,
    );
    let heavy = phase(
        make(),
        HEAVY_RPS,
        us(HEAVY_SHARE),
        args.seed ^ 1,
        samples,
        trace,
    );
    account(
        &heavy.0,
        "serve heavy: exactly-once and predictions",
        expected,
        Some(&mut rejected),
        out,
    );
    let mut trials = Vec::new();
    let trial = |rate: f64| {
        let seed = args.seed ^ ((rate as u64) << 8);
        let (p, _) = phase(make(), rate, us(TRIAL_SHARE), seed, samples, trace);
        account(
            &p,
            "serve search: exactly-once and predictions",
            expected,
            None,
            out,
        );
        let ok = openloop::passes(&p.done, p.sent.len(), p.drain_us);
        let good = openloop::good_count(&p.done, 0, DEADLINE_US);
        trials.push(format!(
            "{rate:.0}: {} ({:.2}% good, drain {} us, generator late p99 {:.0} us)",
            if ok { "pass" } else { "FAIL" },
            100.0 * good as f64 / p.sent.len().max(1) as f64,
            p.drain_us,
            stats::Summary::of(&p.late_us).tail
        ));
        ok
    };
    // The lowest coarse step passes on any host this workload is sized
    // for; a search that fails even it reports 0.
    let max_rps = openloop::refined_max_rate(
        SEARCH_FROM_RPS,
        SEARCH_COARSE_RPS,
        SEARCH_FINE_RPS,
        SEARCH_MAX_RPS,
        trial,
    )
    .unwrap_or(0.0);
    Phases {
        light,
        heavy,
        trials,
        max_rps,
        rejected,
    }
}

/// Runs the workload; with `trace`, the same phases with every `submit`,
/// `pump` and batch execution timed.
pub fn run(args: &Args, trace: bool) -> Outcome {
    let threads = stamp::threads_for("serve-single");
    sb_runtime::set_thread_override(Some(threads));
    let mut out = Outcome::default();
    let (setup_s, model) = crate::timed_setup(15, || {
        let m = lenet_300_100(16.0, None);
        std::hint::black_box(InferEngine::new(m.clone(), WALL_SERVICE));
        m
    });
    let probe = InferEngine::new(model.clone(), WALL_SERVICE);
    let (samples, expected) = pool(&probe, args.seed);
    let p = if trace {
        all_phases(
            || TimedEngine::new(InferEngine::new(model.clone(), WALL_SERVICE)),
            args,
            &samples,
            &expected,
            true,
            &mut out,
        )
    } else {
        all_phases(
            || InferEngine::new(model.clone(), WALL_SERVICE),
            args,
            &samples,
            &expected,
            false,
            &mut out,
        )
    };

    let heavy_good = openloop::good_count(&p.heavy.0.done, 0, DEADLINE_US);
    let horizon_s = p.heavy.0.horizon_us as f64 / 1e6;
    let max_rps = p.max_rps;
    let light_good = openloop::good_count(&p.light.0.done, 0, DEADLINE_US);
    let e2e = EndToEnd {
        setup_s,
        rate_per_s: heavy_good as f64 / horizon_s,
        ref_rate_per_s: light_good as f64 / (p.light.0.horizon_us as f64 / 1e6),
        lat: openloop::latency_summary(&p.heavy.0.done, 0, 0.99),
        ref_lat: openloop::latency_summary(&p.light.0.done, 0, 0.99),
    };
    println!(
        "serve-single at {threads} runtime thread(s) + driver, latencies as 0.5 s window medians: light {LIGHT_RPS:.0} rps {}; heavy {HEAVY_RPS:.0} rps {}; goodput within {DEADLINE_US} us: light {:.1} rps, heavy {:.1} rps",
        e2e.ref_lat.describe("ms"),
        e2e.lat.describe("ms"),
        e2e.ref_rate_per_s,
        e2e.rate_per_s
    );
    println!("serve-single max_rps {max_rps:.0} (p99 <= {DEADLINE_US} us with rejects as misses, idle within one deadline; reported, not gated); trials:\n    {}", p.trials.join("\n    "));
    for (name, ph) in [("light", &p.light.0), ("heavy", &p.heavy.0)] {
        let late = stats::Summary::of(&ph.late_us);
        println!("  generator lateness, {name}: {}", late.describe("us"));
    }
    out.e2e = Some(e2e);
    if trace {
        out.layers = layer_metrics(&p);
    }
    sb_runtime::set_thread_override(None);
    out
}

fn layer_metrics(p: &Phases) -> Vec<Metric> {
    let (heavy, batches) = (&p.heavy.0, &p.heavy.1);
    let mut layers = Vec::new();
    let submit = stats::Summary::of(&heavy.submit_us);
    let pump = |q: f64| heavy.pump.quantile_ns(q).unwrap_or(f64::NAN) / 1e3;
    let exec_us: Vec<f64> = batches.iter().map(|b| b.0).collect();
    let exec = stats::Summary::of(&exec_us);
    let batch_mean = stats::mean(&batches.iter().map(|b| b.1 as f64).collect::<Vec<_>>());
    let wall_us = (heavy.horizon_us + heavy.drain_us) as f64;
    let busy = exec_us.iter().sum::<f64>() / wall_us;
    let lat = stats::Summary::of(&openloop::completed_latencies(&heavy.done, 0));
    let late = stats::Summary::of(&heavy.late_us);
    println!(
        "serve traced heavy phase: submit {}; pump p50 {:.3}us p99 {:.3}us ({} calls); exec {}; mean batch {batch_mean:.2}; engine busy {:.1}% of {:.0} us",
        submit.describe("us"),
        pump(0.5),
        pump(0.99),
        heavy.pump.len(),
        exec.describe("us"),
        100.0 * busy,
        wall_us
    );
    layers.push(metric("serve.submit_us.p50", submit.p50, "us"));
    layers.push(metric("serve.submit_us.tail", submit.tail, "us"));
    layers.push(metric("serve.pump_us.p50", pump(0.5), "us"));
    layers.push(metric("serve.pump_us.tail", pump(0.99), "us"));
    layers.push(metric("serve.exec_us.p50", exec.p50, "us"));
    layers.push(metric("serve.exec_us.tail", exec.tail, "us"));
    layers.push(metric("serve.batch_mean", batch_mean, "count"));
    layers.push(metric("serve.engine_busy_share", busy, "ratio"));
    layers.push(metric("serve.queue_wait_us.p50", lat.p50 - exec.p50, "us"));
    layers.push(metric(
        "serve.rejected.queue_full",
        p.rejected[0] as f64,
        "count",
    ));
    layers.push(metric(
        "serve.rejected.deadline_expired",
        p.rejected[1] as f64,
        "count",
    ));
    layers.push(metric("serve.gen_late_us.tail", late.tail, "us"));
    layers.push(metric("serve.max_rps", p.max_rps, "1/s"));
    layers
}
