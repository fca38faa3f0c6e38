//! The repository's standing benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints a stamp line (host, threads, commit, seed), readable
//! report lines, and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of the chosen workload; with
//! `--trace 1` they are the per-layer metrics, which every traced run
//! measures for all four workloads (each layer on the workload that loads
//! it), and the run also reports the tracing overhead of the chosen
//! workload against an untraced pass. `METRICS.md` maps every metric to
//! its layer and workload. The process exits 1 when an output check
//! fails and 2 on bad arguments.

mod grid;
mod openloop;
mod sched;
mod serve;
mod stamp;
mod stats;
mod zoo;

use std::process::ExitCode;
use std::time::Instant;

/// The workloads.
const WORKLOADS: [&str; 4] = [
    "grid-cifar-vgg",
    "infer-zoo",
    "serve-single",
    "sched-two-tenant",
];

/// The order a traced run measures them: the latency-sensitive serving
/// passes first, the long CPU-bound grid last.
///
/// Each pass of a traced run lasts [`TRACE_SHARE`] of `--seconds`, so the
/// run (every workload, its probes, and one untraced pass) ends well
/// within three minutes.
const TRACE_ORDER: [&str; 4] = [
    "serve-single",
    "sched-two-tenant",
    "infer-zoo",
    "grid-cifar-vgg",
];

/// Share of `--seconds` each pass of a traced run measures for.
const TRACE_SHARE: f64 = 0.5;

/// The benchmark's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics every workload reports (see `METRICS.md` for
/// what each slot measures on each workload).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups, s.
    pub setup_s: f64,
    /// Headline throughput, 1/s.
    pub rate_per_s: f64,
    /// Reference throughput, 1/s.
    pub ref_rate_per_s: f64,
    /// Headline operation latency.
    pub lat: stats::Summary,
    /// Reference operation latency.
    pub ref_lat: stats::Summary,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("rate_per_s", self.rate_per_s, "1/s"),
            metric("ref_rate_per_s", self.ref_rate_per_s, "1/s"),
            metric("p50_ms", self.lat.p50, "ms"),
            metric("tail_ms", self.lat.tail, "ms"),
            metric("ref_p50_ms", self.ref_lat.p50, "ms"),
            metric("ref_tail_ms", self.ref_lat.tail, "ms"),
        ]
    }
}

/// What one workload pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end numbers; `None` only if the pass could not measure.
    pub e2e: Option<EndToEnd>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check, for the report.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records the result of one output check over `n` operations, `bad`
    /// of which failed.
    pub fn check(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{what}: {bad} of {n} failed"));
        }
    }
}

/// Median wall time of `repeats` set-ups, returning the last set-up's value.
pub fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let built = last.expect("at least one set-up ran");
    (stats::median(&times).expect("non-empty"), built)
}

/// Runs workload `name` once, traced or not.
fn run_workload(name: &str, args: &Args, trace: bool) -> Outcome {
    match name {
        "grid-cifar-vgg" => grid::run(args, trace),
        "infer-zoo" => zoo::run(args, trace),
        "serve-single" => serve::run(args, trace),
        "sched-two-tenant" => sched::run(args, trace),
        _ => unreachable!("workload names are validated by the parser"),
    }
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest representation that round-trips, i.e.
    // every digit the measurement has.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!("  {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    // End-to-end numbers are measured with the program's own tracing off,
    // whatever the environment says; per-layer numbers come from the
    // benchmark's timers around public calls.
    sb_trace::set_override(Some(false));
    println!("{}", stamp::stamp_line(&args));

    let (metrics, attempted, failed, failures) = if args.trace {
        let mut layers = Vec::new();
        let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
        let pass = Args {
            seconds: args.seconds * TRACE_SHARE,
            ..args.clone()
        };
        for w in TRACE_ORDER {
            // The chosen workload also runs untraced right before its traced
            // pass, so the overhead compares two back-to-back passes.
            let untraced = (w == args.workload).then(|| run_workload(w, &pass, false));
            let out = run_workload(w, &pass, true);
            println!(
                "traced pass {w}: {} operations, {} failed",
                out.attempted, out.failed
            );
            for o in untraced.iter().chain(std::iter::once(&out)) {
                attempted += o.attempted;
                failed += o.failed;
                failures.extend(o.failures.iter().cloned());
            }
            if let (Some(u), Some(t)) = (untraced.as_ref().and_then(|u| u.e2e), out.e2e) {
                println!("== tracing overhead on {w} (traced vs untraced pass)");
                for (tm, um) in t.metrics().iter().zip(u.metrics()) {
                    let pct = 100.0 * (tm.value - um.value) / um.value;
                    println!(
                        "  {:<16} traced {:>14.6} untraced {:>14.6} {:<4} ({pct:+.1}%)",
                        tm.name, tm.value, um.value, tm.unit
                    );
                }
            }
            layers.extend(out.layers);
        }
        print_metrics("per-layer metrics", &layers);
        (layers, attempted, failed, failures)
    } else {
        let out = run_workload(&args.workload, &args, false);
        let metrics = out.e2e.map(|e| e.metrics()).unwrap_or_default();
        print_metrics(&format!("end-to-end metrics, {}", args.workload), &metrics);
        (metrics, out.attempted, out.failed, out.failures)
    };

    println!(
        "operations: attempted {attempted}, succeeded {}, failed {failed}",
        attempted.saturating_sub(failed)
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && failures.is_empty() && finite && attempted > 0;
    // A run that attempted nothing is reported as one failed operation.
    let (attempted, failed) = if attempted == 0 {
        (1, 1)
    } else {
        (attempted, failed)
    };
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(argv("--workload infer-zoo --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("infer-zoo", 7, 10.0, true)
        );
        assert!(parse(argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(argv("--workload infer-zoo --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse(argv("--workload infer-zoo --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse(argv("--workload infer-zoo --seed 7 --trace 0")).is_err());
    }
}
