//! Wall-clock open-loop driver shared by the serving workloads, plus the
//! pass/fail rule and the fixed-step `max_rps` search.
//!
//! One thread generates every arrival, submits it, and pumps the server
//! while it waits for the next one, exactly like
//! [`sb_serve::run_open_loop_wall`]. Each request is timed from its
//! *scheduled* arrival (the coordinated-omission correction that function
//! applies), and the driver additionally records how late each submit
//! ran against its schedule, which `run_open_loop_wall` does not expose.

use crate::stats;
use sb_sched::{MultiServer, SchedCompletion};
use sb_serve::{BatchEngine, Clock, Completion, Outcome, Server};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// The latency limit every serving workload is judged against, µs.
pub const DEADLINE_US: u64 = 5_000;

/// Share of offered requests that must finish within [`DEADLINE_US`].
pub const MIN_GOOD_SHARE: f64 = 0.99;

/// One resolved request, tenant-tagged (tenant 0 for a single `Server`).
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Server-assigned id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Scheduled arrival (after the correction), clock µs.
    pub submitted_us: u64,
    /// Resolution time, clock µs.
    pub done_us: u64,
    /// How the request resolved.
    pub outcome: Outcome,
}

impl Done {
    /// Resolution minus scheduled arrival.
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.submitted_us)
    }

    fn from_completion(tenant: usize, c: Completion) -> Done {
        Done {
            id: c.id,
            tenant,
            submitted_us: c.submitted_us,
            done_us: c.done_us,
            outcome: c.outcome,
        }
    }
}

/// What the driver needs from a server: the surface `Server` and
/// `MultiServer` share.
pub trait Target {
    /// Admits one request of `tenant`; returns its id.
    fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64;
    /// Drives the server one step.
    fn pump(&mut self);
    /// Resolutions since the last call.
    fn take(&mut self) -> Vec<Done>;
    /// Stops admission and blocks until idle.
    fn drain(&mut self) -> Vec<Done>;
}

impl<E: BatchEngine + 'static> Target for Server<E> {
    fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        debug_assert_eq!(tenant, 0, "a single-model server has one tenant");
        Server::submit(self, input, deadline_us)
    }
    fn pump(&mut self) {
        Server::pump(self)
    }
    fn take(&mut self) -> Vec<Done> {
        self.take_completions()
            .into_iter()
            .map(|c| Done::from_completion(0, c))
            .collect()
    }
    fn drain(&mut self) -> Vec<Done> {
        self.drain_wall()
            .into_iter()
            .map(|c| Done::from_completion(0, c))
            .collect()
    }
}

fn from_sched(v: Vec<SchedCompletion>) -> Vec<Done> {
    v.into_iter()
        .map(|c| Done::from_completion(c.tenant, c.completion))
        .collect()
}

impl Target for MultiServer {
    fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        MultiServer::submit(self, tenant, input, deadline_us)
    }
    fn pump(&mut self) {
        MultiServer::pump(self)
    }
    fn take(&mut self) -> Vec<Done> {
        from_sched(self.take_completions())
    }
    fn drain(&mut self) -> Vec<Done> {
        from_sched(self.drain_wall())
    }
}

/// A [`BatchEngine`] that times every `run_batch` of the engine it wraps,
/// so a traced run sees execution time and batch sizes from outside the
/// server.
pub struct TimedEngine<E> {
    inner: E,
    /// `(duration µs, batch size)` per executed batch.
    batches: Mutex<Vec<(f64, usize)>>,
}

impl<E: BatchEngine> TimedEngine<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        TimedEngine {
            inner,
            batches: Mutex::new(Vec::new()),
        }
    }

    /// Drains the recorded `(µs, batch size)` pairs.
    pub fn take(&self) -> Vec<(f64, usize)> {
        std::mem::take(&mut *self.batches.lock().expect("batch log poisoned"))
    }
}

impl<E: BatchEngine> BatchEngine for TimedEngine<E> {
    fn sample_len(&self) -> usize {
        self.inner.sample_len()
    }
    fn classes(&self) -> usize {
        self.inner.classes()
    }
    fn run_batch(&self, inputs: &[f32], n: usize) -> Vec<usize> {
        let t = Instant::now();
        let out = self.inner.run_batch(inputs, n);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.batches
            .lock()
            .expect("batch log poisoned")
            .push((us, n));
        out
    }
    fn service_us(&self, n: usize) -> u64 {
        self.inner.service_us(n)
    }
}

/// One request the driver sent.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Server-assigned id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Index into the tenant's input pool.
    pub input: usize,
}

/// Everything one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every resolution, with the coordinated-omission correction applied.
    pub done: Vec<Done>,
    /// Every request sent, in send order.
    pub sent: Vec<Sent>,
    /// Per submit: how far behind its schedule the driver sent it, µs.
    pub late_us: Vec<f64>,
    /// Horizon of the arrival schedule, µs.
    pub horizon_us: u64,
    /// Time from the end of the schedule until the server went idle, µs.
    pub drain_us: u64,
    /// Per-call durations of `submit`, µs (traced runs only).
    pub submit_us: Vec<f64>,
    /// Per-call durations of `pump` (traced runs only).
    pub pump: stats::LogHist,
}

/// Runs a merged arrival schedule `(at_us, tenant, index)` against a
/// wall-clock server. `deadline_us[t]` is tenant `t`'s relative deadline;
/// `input(t, i)` returns the pool index and sample for tenant `t`'s
/// `i`-th arrival. With `trace`, every `submit` and `pump` call is timed.
pub fn run_wall<T: Target>(
    target: &mut T,
    clock: &dyn Clock,
    arrivals: &[(u64, usize, usize)],
    horizon_us: u64,
    deadline_us: &[Option<u64>],
    mut input: impl FnMut(usize, usize) -> (usize, Vec<f32>),
    trace: bool,
) -> Phase {
    assert!(
        !clock.is_virtual(),
        "the open-loop driver runs on wall time"
    );
    let mut phase = Phase {
        horizon_us,
        sent: Vec::with_capacity(arrivals.len()),
        late_us: Vec::with_capacity(arrivals.len()),
        ..Phase::default()
    };
    let mut due_of: Vec<u64> = Vec::with_capacity(arrivals.len());
    let epoch = clock.now_us();
    for &(at, tenant, i) in arrivals {
        let due = epoch + at;
        loop {
            let now = clock.now_us();
            if now >= due {
                phase.late_us.push((now - due) as f64);
                break;
            }
            if trace {
                let t = Instant::now();
                target.pump();
                phase.pump.record_ns(t.elapsed().as_nanos() as f64);
            } else {
                target.pump();
            }
            std::hint::spin_loop();
        }
        let (pool_index, sample) = input(tenant, i);
        let deadline = deadline_us[tenant].map(|d| due + d);
        let id = if trace {
            let t = Instant::now();
            let id = target.submit(tenant, sample, deadline);
            phase.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            id
        } else {
            target.submit(tenant, sample, deadline)
        };
        phase.sent.push(Sent {
            id,
            tenant,
            input: pool_index,
        });
        due_of.push(due);
        phase.done.append(&mut target.take());
    }
    let schedule_end = epoch + horizon_us;
    phase.done.append(&mut target.drain());
    phase.drain_us = clock.now_us().saturating_sub(schedule_end);
    let due_by_id: HashMap<u64, u64> = phase
        .sent
        .iter()
        .zip(&due_of)
        .map(|(s, &d)| (s.id, d))
        .collect();
    for d in &mut phase.done {
        if let Some(&due) = due_by_id.get(&d.id) {
            // A rejection is stamped at the decision time, which can
            // precede a badly late submit's schedule; keep done >= submitted.
            d.submitted_us = due.min(d.done_us);
        }
    }
    phase
}

/// Latencies (µs) of the completed requests of `tenant`.
pub fn completed_latencies(done: &[Done], tenant: usize) -> Vec<f64> {
    done.iter()
        .filter(|d| d.tenant == tenant && matches!(d.outcome, Outcome::Completed { .. }))
        .map(|d| d.latency_us() as f64)
        .collect()
}

/// Window for [`latency_summary`], µs.
pub const WINDOW_US: u64 = 500_000;

/// Latency summary (ms) of `tenant`'s completed requests: the median
/// across [`WINDOW_US`] windows of arrivals of each window's p50 and
/// `q`-quantile.
pub fn latency_summary(done: &[Done], tenant: usize, q: f64) -> stats::Summary {
    let samples: Vec<(u64, f64)> = done
        .iter()
        .filter(|d| d.tenant == tenant && matches!(d.outcome, Outcome::Completed { .. }))
        .map(|d| (d.submitted_us, d.latency_us() as f64 / 1e3))
        .collect();
    stats::Summary::windowed(&samples, WINDOW_US, q)
}

/// Requests of `tenant` completed within `deadline_us` of their arrival.
pub fn good_count(done: &[Done], tenant: usize, deadline_us: u64) -> usize {
    done.iter()
        .filter(|d| {
            d.tenant == tenant
                && matches!(d.outcome, Outcome::Completed { .. })
                && d.latency_us() <= deadline_us
        })
        .count()
}

/// The `max_rps` pass rule for one offered rate: p99 latency within
/// [`DEADLINE_US`] with every rejected request counted as a miss (so at
/// least 99% of offered requests completed in time), and no growing
/// backlog (the server went idle within one deadline of the schedule's
/// end).
pub fn passes(done: &[Done], offered: usize, drain_us: u64) -> bool {
    if offered <= stats::MIN_BEYOND || done.len() != offered {
        return false;
    }
    // Misses sort last; the nearest-rank p99 of `offered` samples is
    // within the deadline iff at least rank(0.99) of them are good.
    let mut lat: Vec<f64> = done
        .iter()
        .map(|d| match d.outcome {
            Outcome::Completed { .. } => d.latency_us() as f64,
            Outcome::Rejected { .. } => f64::INFINITY,
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    let rank = ((MIN_GOOD_SHARE * offered as f64 - 1e-9).ceil() as usize).clamp(1, offered);
    lat[rank - 1] <= DEADLINE_US as f64 && drain_us <= DEADLINE_US
}

/// Fixed-step ascending search: tries `rates` in order and returns the
/// last one that passes before the first failure (`None` if the first
/// fails). `trial(rate)` runs one open-loop trial and judges it.
pub fn max_passing_rate(rates: &[f64], mut trial: impl FnMut(f64) -> bool) -> Option<f64> {
    let mut best = None;
    for &rate in rates {
        if !trial(rate) {
            break;
        }
        best = Some(rate);
    }
    best
}

/// Two-stage fixed-step search: the coarse ladder `from, from + coarse,
/// …` (up to `max`) finds the last passing rate `L` before the first
/// failure `F`; the fine ladder `L + fine, L + 2·fine, … < F` then refines
/// it. Returns the highest rate passed before the first fine failure.
pub fn refined_max_rate(
    from: f64,
    coarse: f64,
    fine: f64,
    max: f64,
    mut trial: impl FnMut(f64) -> bool,
) -> Option<f64> {
    let ladder = |start: f64, step: f64, end: f64| -> Vec<f64> {
        (0..)
            .map(|k| start + step * k as f64)
            .take_while(|&r| r < end)
            .collect()
    };
    let coarse_best = max_passing_rate(&ladder(from, coarse, max + 1.0), &mut trial)?;
    let fine_best = max_passing_rate(
        &ladder(coarse_best + fine, fine, coarse_best + coarse),
        &mut trial,
    );
    Some(fine_best.unwrap_or(coarse_best))
}

/// Checks the exactly-once ledger and every answer: each sent id resolves
/// exactly once, nothing resolves that was not sent, and every completed
/// request's class equals `expected[tenant][input]` (the engine's own
/// `run_batch` answer for that pool sample). Returns the number of sent
/// requests that fail.
pub fn check_answers(phase: &Phase, expected: &[&[usize]]) -> usize {
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(phase.done.len());
    for d in &phase.done {
        *seen.entry(d.id).or_default() += 1;
    }
    let by_id: HashMap<u64, &Done> = phase.done.iter().map(|d| (d.id, d)).collect();
    let mut failed = 0;
    for s in &phase.sent {
        let ok = seen.get(&s.id) == Some(&1)
            && by_id.get(&s.id).is_some_and(|d| {
                d.tenant == s.tenant
                    && match d.outcome {
                        Outcome::Completed { predicted, .. } => {
                            predicted == expected[s.tenant][s.input]
                        }
                        Outcome::Rejected { .. } => true,
                    }
            });
        if !ok {
            failed += 1;
        }
    }
    // Resolutions for ids that were never sent are failures too.
    let sent: std::collections::HashSet<u64> = phase.sent.iter().map(|s| s.id).collect();
    failed + phase.done.iter().filter(|d| !sent.contains(&d.id)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_serve::{
        run_open_loop_sim, ArrivalProcess, EchoEngine, LoadSpec, RejectReason, ServeConfig,
        ServedBy, ServiceModel, SimClock,
    };
    use std::sync::Arc;

    fn completed(id: u64, latency: u64) -> Done {
        Done {
            id,
            tenant: 0,
            submitted_us: 0,
            done_us: latency,
            outcome: Outcome::Completed {
                predicted: 0,
                batch_size: 1,
                served_by: ServedBy::Primary,
            },
        }
    }

    fn rejected(id: u64) -> Done {
        Done {
            id,
            tenant: 0,
            submitted_us: 0,
            done_us: 0,
            outcome: Outcome::Rejected {
                reason: RejectReason::QueueFull,
            },
        }
    }

    #[test]
    fn rejections_count_as_misses() {
        // 1000 requests: 990 good is exactly the p99 rank; 989 is not.
        let mut done: Vec<Done> = (0..990).map(|i| completed(i, 100)).collect();
        done.extend((990..1000).map(rejected));
        assert!(passes(&done, 1000, 0));
        done[0] = rejected(0);
        assert!(!passes(&done, 1000, 0));
        // A late completion is a miss just like a rejection.
        let mut late: Vec<Done> = (0..1000).map(|i| completed(i, 100)).collect();
        for d in late.iter_mut().take(11) {
            d.done_us = DEADLINE_US + 1;
        }
        assert!(!passes(&late, 1000, 0));
        // A backlog still draining a deadline after the schedule fails.
        let fine: Vec<Done> = (0..1000).map(|i| completed(i, 100)).collect();
        assert!(passes(&fine, 1000, DEADLINE_US));
        assert!(!passes(&fine, 1000, DEADLINE_US + 1));
        // A missing resolution fails the trial.
        assert!(!passes(&fine[1..], 1000, 0));
    }

    #[test]
    fn search_stops_at_the_first_failure() {
        let rates = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(max_passing_rate(&rates, |r| r <= 3.0), Some(3.0));
        // A pass above a failure does not count.
        assert_eq!(max_passing_rate(&rates, |r| r != 2.0), Some(1.0));
        assert_eq!(max_passing_rate(&rates, |_| false), None);
    }

    #[test]
    fn refined_search_steps_finely_between_coarse_pass_and_failure() {
        let mut tried = Vec::new();
        let best = refined_max_rate(10.0, 20.0, 5.0, 200.0, |r| {
            tried.push(r);
            r <= 62.0
        });
        assert_eq!(best, Some(60.0));
        assert_eq!(tried, vec![10.0, 30.0, 50.0, 70.0, 55.0, 60.0, 65.0]);
        assert_eq!(refined_max_rate(10.0, 20.0, 5.0, 200.0, |_| false), None);
        // Everything passes: the fine ladder refines above the last coarse step.
        assert_eq!(
            refined_max_rate(10.0, 20.0, 5.0, 50.0, |_| true),
            Some(65.0)
        );
    }

    /// The `max_rps` search against a virtual-clock server: every trial is
    /// a pure function of `(rate, seed)`, so the answer is too.
    fn sim_max_rps(seed: u64) -> Option<f64> {
        refined_max_rate(2_000.0, 8_000.0, 1_000.0, 64_000.0, |rate| {
            let clock = Arc::new(SimClock::new());
            let engine = EchoEngine::new(
                4,
                10,
                ServiceModel {
                    base_us: 200,
                    per_sample_us: 20,
                },
            );
            let cfg = ServeConfig {
                max_batch: 16,
                max_wait_us: 200,
                queue_cap: 128,
                max_inflight: 1,
            };
            let mut server = Server::new(engine, cfg, clock.clone());
            let spec = LoadSpec {
                arrivals: ArrivalProcess::Uniform { rate_rps: rate },
                horizon_us: 200_000,
                seed,
                deadline_us: Some(DEADLINE_US),
            };
            let offered = spec.arrivals.arrivals(spec.horizon_us, seed).len();
            let done: Vec<Done> =
                run_open_loop_sim(&mut server, &clock, &spec, |i| vec![i as f32; 4])
                    .into_iter()
                    .map(|c| Done::from_completion(0, c))
                    .collect();
            let last = done.iter().map(|d| d.done_us).max().unwrap_or(0);
            passes(&done, offered, last.saturating_sub(spec.horizon_us))
        })
    }

    #[test]
    fn sim_search_is_a_pure_function_of_the_seed() {
        let a = sim_max_rps(11).expect("light load passes");
        assert_eq!(Some(a), sim_max_rps(11), "same seed, same answer");
        // One batch of 16 costs 200 + 16·20 = 520 virtual µs with one in
        // flight, so capacity is 16 / 520 µs ≈ 30.8k rps; a trial just over
        // it still passes while its backlog is under the deadline, so the
        // search lands within a step or so of capacity.
        assert!((20_000.0..=32_000.0).contains(&a), "max rps {a}");
        for seed in [12, 13] {
            let b = sim_max_rps(seed).expect("light load passes");
            assert_eq!(Some(b), sim_max_rps(seed));
            assert!(
                (20_000.0..=32_000.0).contains(&b),
                "seed {seed}: max rps {b}"
            );
        }
    }

    #[test]
    fn ledger_check_catches_duplicates_and_wrong_answers() {
        let expected: &[&[usize]] = &[&[0, 0]];
        let sent = vec![
            Sent {
                id: 0,
                tenant: 0,
                input: 0,
            },
            Sent {
                id: 1,
                tenant: 0,
                input: 1,
            },
        ];
        let ok = Phase {
            done: vec![completed(0, 1), rejected(1)],
            sent: sent.clone(),
            ..Phase::default()
        };
        assert_eq!(check_answers(&ok, expected), 0);
        let dup = Phase {
            done: vec![completed(0, 1), completed(0, 1), rejected(1)],
            sent: sent.clone(),
            ..Phase::default()
        };
        assert_eq!(check_answers(&dup, expected), 1);
        let missing = Phase {
            done: vec![completed(0, 1)],
            sent: sent.clone(),
            ..Phase::default()
        };
        assert_eq!(check_answers(&missing, expected), 1);
        let wrong = Phase {
            done: vec![completed(0, 1), rejected(1)],
            sent,
            ..Phase::default()
        };
        assert_eq!(check_answers(&wrong, &[&[3, 0]]), 1);
    }
}
