//! The open-loop ramping load driver.
//!
//! Each ramp step offers `rps × step_ms / 1000` equivalence-check
//! requests to a pool of serving threads. Request *i* has a scheduled
//! arrival time of `start + i / rps`; a serving thread that picks it up
//! early sleeps until then, and its latency is measured **from the
//! scheduled arrival** — so when the engine cannot keep up, queueing
//! delay accumulates into the recorded latencies instead of silently
//! stretching the offered rate (the coordinated-omission trap of
//! closed-loop drivers).
//!
//! A step passes when its failure rate stays within
//! [`RampConfig::max_failure_rate`] *and* its p95 latency stays within
//! [`RampConfig::p95_latency_ms`]. The ramp climbs by
//! [`RampConfig::increment_rps`] until a step fails or
//! [`RampConfig::max_rps`] is exceeded; the last passing rate is the
//! scenario's **max sustainable rate**. Requests still unserved when a
//! step overruns its deadline (2× the step duration past the window)
//! are abandoned and counted as failures, bounding each step's wall
//! clock.
//!
//! Every completed request was a full [`cec::Session::check`] run; engine
//! errors and wrong verdicts count as failures, so sustainable rates
//! are rates of *certified* answers.
//!
//! [`run_scenario_daemon`] is the network variant: the same open-loop
//! ramp, but each serving thread holds one TCP connection to a running
//! `rcecd` service and every request is a full socket round trip —
//! AIGER out, verdict + certificate back. Latencies then include
//! serialization, the wire, and the daemon's queueing; step results
//! additionally count how many replies were certificate-cache hits.

use crate::workload::{RampConfig, Scenario};
use obs::json::Value;
use obs::metrics::Metrics;
use obs::LogHistogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outcome of one ramp step at a fixed offered rate.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Offered rate of this step, in checks per second.
    pub rps: f64,
    /// Requests offered (scheduled) during the window.
    pub requests: u64,
    /// Requests that completed with a correct certified verdict.
    pub completed: u64,
    /// Requests that errored, answered wrongly, or were abandoned at
    /// the step deadline.
    pub failed: u64,
    /// `failed / requests`.
    pub failure_rate: f64,
    /// Median latency from scheduled arrival, in microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency from scheduled arrival, in microseconds.
    pub p95_us: u64,
    /// Maximum observed latency, in microseconds.
    pub max_us: u64,
    /// Wall clock consumed by the step (window + drain).
    pub elapsed_us: u64,
    /// Whether the step met both success criteria.
    pub passed: bool,
    /// Replies served from the daemon's certificate cache; `None` for
    /// in-process cells (which have no cache in front of the engine).
    pub cache_hits: Option<u64>,
}

impl StepResult {
    /// The step as a JSON object (one element of `steps` in
    /// `bench-v2`). Daemon-backed cells add `cache_hits` and
    /// `cache_hit_rate` (hits over *offered* requests) columns.
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("rps".into(), Value::F64(self.rps)),
            ("requests".into(), Value::U64(self.requests)),
            ("completed".into(), Value::U64(self.completed)),
            ("failed".into(), Value::U64(self.failed)),
            ("failure_rate".into(), Value::F64(self.failure_rate)),
            ("p50_us".into(), Value::U64(self.p50_us)),
            ("p95_us".into(), Value::U64(self.p95_us)),
            ("max_us".into(), Value::U64(self.max_us)),
            ("elapsed_us".into(), Value::U64(self.elapsed_us)),
            ("passed".into(), Value::Bool(self.passed)),
        ];
        if let Some(hits) = self.cache_hits {
            members.push(("cache_hits".into(), Value::U64(hits)));
            #[allow(clippy::cast_precision_loss)]
            let rate = if self.requests == 0 {
                0.0
            } else {
                hits as f64 / self.requests as f64
            };
            members.push(("cache_hit_rate".into(), Value::F64(rate)));
        }
        Value::Object(members)
    }
}

/// Outcome of a full ramp for one (scenario, thread-count) cell.
#[derive(Clone, Debug)]
pub struct RampResult {
    /// Scenario display name.
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Generator width.
    pub width: usize,
    /// Serving threads used for this cell.
    pub threads: usize,
    /// Optional hardness-band annotation from the workload.
    pub band: Option<String>,
    /// The ramp schedule this cell ran under.
    pub ramp: RampConfig,
    /// Per-step results, in ramp order (ends at the first failure).
    pub steps: Vec<StepResult>,
    /// Highest offered rate whose step passed; `0` if even the first
    /// step failed.
    pub max_sustainable_rps: f64,
    /// One `metrics-v1` snapshot per step boundary — from the cell's
    /// private registry (`seq` = step index) for in-process cells, or
    /// fetched from the daemon's registry over the `metrics` protocol
    /// request for daemon-backed cells.
    pub metrics: Vec<Value>,
    /// The `rcecd` address this cell was driven against, if any.
    pub daemon: Option<String>,
}

impl RampResult {
    /// The cell as a JSON object (one element of `scenarios` in
    /// `bench-v2`).
    pub fn to_json(&self) -> Value {
        let ramp = Value::Object(vec![
            ("initial_rps".into(), Value::F64(self.ramp.initial_rps)),
            ("increment_rps".into(), Value::F64(self.ramp.increment_rps)),
            ("max_rps".into(), Value::F64(self.ramp.max_rps)),
            ("step_ms".into(), Value::U64(self.ramp.step_ms)),
            (
                "max_failure_rate".into(),
                Value::F64(self.ramp.max_failure_rate),
            ),
            (
                "p95_latency_ms".into(),
                Value::F64(self.ramp.p95_latency_ms),
            ),
        ]);
        let mut members = vec![
            ("name".into(), Value::str(&self.name)),
            ("family".into(), Value::str(&self.family)),
            ("width".into(), Value::U64(self.width as u64)),
            ("threads".into(), Value::U64(self.threads as u64)),
        ];
        if let Some(band) = &self.band {
            members.push(("band".into(), Value::str(band)));
        }
        if let Some(daemon) = &self.daemon {
            members.push(("daemon".into(), Value::str(daemon)));
        }
        members.push(("ramp".into(), ramp));
        members.push((
            "steps".into(),
            Value::Array(self.steps.iter().map(StepResult::to_json).collect()),
        ));
        members.push((
            "max_sustainable_rps".into(),
            Value::F64(self.max_sustainable_rps),
        ));
        members.push(("metrics".into(), Value::Array(self.metrics.clone())));
        Value::Object(members)
    }
}

/// Runs the full ramp for one (scenario, thread-count) cell and
/// returns its trajectory. `progress` is called once per finished step
/// (for CLI narration); pass `|_| ()` to stay quiet.
///
/// The circuit pair is generated once up front; every request proves
/// the same pair, so the cell measures engine throughput, not
/// generator throughput. Each cell gets a fresh [`Metrics`] registry —
/// snapshots embedded in the result are per-cell, not cumulative
/// across cells.
///
/// # Panics
///
/// If the scenario's family is unknown (workload validation already
/// rejects this) or a serving thread panics.
pub fn run_scenario(
    scenario: &Scenario,
    threads: usize,
    ramp: &RampConfig,
    progress: &mut dyn FnMut(&StepResult),
) -> RampResult {
    let (a, b) = aig::gen::family_pair(&scenario.family, scenario.width)
        .unwrap_or_else(|| panic!("unknown family `{}`", scenario.family));
    let metrics = Metrics::new();
    let latency = metrics.histogram("rbench.latency_us");
    let ctx = cec::SharedContext::new(obs::Recorder::disabled(), metrics.clone());
    let session = cec::Session::new(cec::EngineConfig::default(), &ctx);

    let mut steps: Vec<StepResult> = Vec::new();
    let mut snapshots: Vec<Value> = Vec::new();
    let mut rps = ramp.initial_rps;
    let mut seq = 0u64;
    let make_check = || {
        let (session, a, b) = (&session, &a, &b);
        move || {
            let ok = matches!(session.check(a, b), Ok(ref o) if o.is_equivalent());
            (ok, false)
        }
    };
    while rps <= ramp.max_rps + 1e-9 {
        let step = run_step(threads, rps, ramp, &latency, false, &make_check);
        if let Some(snap) = metrics.snapshot(seq) {
            snapshots.push(snap);
        }
        seq += 1;
        progress(&step);
        let passed = step.passed;
        steps.push(step);
        if !passed {
            break;
        }
        if ramp.increment_rps <= 0.0 {
            break;
        }
        rps += ramp.increment_rps;
    }
    finish_cell(scenario, threads, ramp, steps, snapshots, None)
}

/// Runs the full ramp for one (scenario, thread-count) cell against a
/// running `rcecd` daemon at `addr` — the network counterpart of
/// [`run_scenario`]. Each serving thread opens its own TCP connection
/// and every request is one `check` round trip: AIGER text out,
/// verdict + certificate + `cache_hit` flag back. Latency (still
/// measured from the scheduled arrival) therefore includes
/// serialization, the wire, and the daemon's own queueing and worker
/// pool; the per-step `cache_hits` column counts replies the daemon
/// served from its certificate cache. Step-boundary metrics snapshots
/// are fetched from the daemon's registry, so they expose the
/// server-side `cec.cache.*` and `serve.*` counters.
///
/// Note the pair is generated once and re-sent every request, so after
/// the daemon's first miss the cell exercises the cache-hit path — by
/// design: the cell measures the *service* (wire + cache + replay
/// validation), where [`run_scenario`] measures the engine.
///
/// # Errors
///
/// Fails fast if the daemon at `addr` cannot be reached or does not
/// answer a ping; mid-ramp connection failures count as request
/// failures instead.
///
/// # Panics
///
/// As [`run_scenario`], if the scenario's family is unknown or a
/// serving thread panics.
pub fn run_scenario_daemon(
    scenario: &Scenario,
    threads: usize,
    ramp: &RampConfig,
    addr: &str,
    progress: &mut dyn FnMut(&StepResult),
) -> Result<RampResult, String> {
    let (a, b) = aig::gen::family_pair(&scenario.family, scenario.width)
        .unwrap_or_else(|| panic!("unknown family `{}`", scenario.family));
    let mut probe = serve::Client::connect(addr)?;
    probe.ping()?;
    // The client-side registry only feeds the latency histogram; the
    // embedded snapshots come from the daemon.
    let metrics = Metrics::new();
    let latency = metrics.histogram("rbench.latency_us");

    let mut steps: Vec<StepResult> = Vec::new();
    let mut snapshots: Vec<Value> = Vec::new();
    let mut rps = ramp.initial_rps;
    let make_check = || {
        let mut client = serve::Client::connect(addr).ok();
        let (a, b) = (&a, &b);
        move || match client.as_mut() {
            None => (false, false),
            Some(c) => match c.check(a, b) {
                Ok(reply) => (reply.equivalent, reply.cache_hit),
                Err(_) => (false, false),
            },
        }
    };
    while rps <= ramp.max_rps + 1e-9 {
        let step = run_step(threads, rps, ramp, &latency, true, &make_check);
        if let Ok(snap) = probe.metrics() {
            snapshots.push(snap);
        }
        progress(&step);
        let passed = step.passed;
        steps.push(step);
        if !passed || ramp.increment_rps <= 0.0 {
            break;
        }
        rps += ramp.increment_rps;
    }
    Ok(finish_cell(
        scenario,
        threads,
        ramp,
        steps,
        snapshots,
        Some(addr.to_string()),
    ))
}

/// Folds a finished ramp's steps and snapshots into the cell result.
fn finish_cell(
    scenario: &Scenario,
    threads: usize,
    ramp: &RampConfig,
    steps: Vec<StepResult>,
    snapshots: Vec<Value>,
    daemon: Option<String>,
) -> RampResult {
    let max_sustainable_rps = steps
        .iter()
        .filter(|s| s.passed)
        .map(|s| s.rps)
        .fold(0.0, f64::max);
    RampResult {
        name: scenario.name.clone(),
        family: scenario.family.clone(),
        width: scenario.width,
        threads,
        band: scenario.band.clone(),
        ramp: ramp.clone(),
        steps,
        max_sustainable_rps,
        metrics: snapshots,
        daemon,
    }
}

/// Shared state of one step: the next unclaimed request index and the
/// tally of outcomes.
struct StepState {
    next: AtomicUsize,
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    latencies: Mutex<LogHistogram>,
}

/// The open-loop core shared by the in-process and daemon drivers.
/// `make_check` is invoked once *inside* each serving thread to build
/// that thread's request closure (a per-thread engine handle or TCP
/// connection); the closure returns `(ok, cache_hit)` per request.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn run_step<F, C>(
    threads: usize,
    rps: f64,
    ramp: &RampConfig,
    cell_latency: &obs::metrics::Histogram,
    track_hits: bool,
    make_check: &F,
) -> StepResult
where
    F: Fn() -> C + Sync,
    C: FnMut() -> (bool, bool),
{
    let window = Duration::from_millis(ramp.step_ms);
    let requests = ((rps * window.as_secs_f64()).round() as usize).max(1);
    let interval_us = 1e6 / rps;
    // Unserved requests are abandoned (and counted failed) once the
    // step has overrun its window by 2×, so a hopeless rate cannot
    // stall the whole ramp.
    let deadline_extra = window * 2;

    let state = StepState {
        next: AtomicUsize::new(0),
        completed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        latencies: Mutex::new(LogHistogram::default()),
    };
    let started = Instant::now();
    let deadline = started + window + deadline_extra;

    std::thread::scope(|scope| {
        let worker = || {
            let mut check = make_check();
            loop {
                let i = state.next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    return;
                }
                let scheduled_us = (i as f64 * interval_us) as u64;
                let scheduled = started + Duration::from_micros(scheduled_us);
                let now = Instant::now();
                if now >= deadline {
                    // Abandoned: never served before the step deadline.
                    state.failed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let (ok, cache_hit) = check();
                let lat_us = Instant::now()
                    .saturating_duration_since(scheduled)
                    .as_micros() as u64;
                if ok {
                    state.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.failed.fetch_add(1, Ordering::Relaxed);
                }
                if cache_hit {
                    state.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                cell_latency.record(lat_us);
                state
                    .latencies
                    .lock()
                    .expect("latency histogram poisoned")
                    .record(lat_us);
            }
        };
        for _ in 0..threads.max(1) {
            scope.spawn(worker);
        }
    });

    let elapsed_us = started.elapsed().as_micros() as u64;
    let completed = state.completed.load(Ordering::Relaxed);
    let failed = state.failed.load(Ordering::Relaxed);
    let hist = state.latencies.into_inner().expect("latency histogram");
    let requests = requests as u64;
    let failure_rate = if requests == 0 {
        0.0
    } else {
        failed as f64 / requests as f64
    };
    let p50_us = hist.quantile(0.50).unwrap_or(0);
    let p95_us = hist.quantile(0.95).unwrap_or(0);
    let passed =
        failure_rate <= ramp.max_failure_rate && p95_us as f64 <= ramp.p95_latency_ms * 1000.0;
    StepResult {
        rps,
        requests,
        completed,
        failed,
        failure_rate,
        p50_us,
        p95_us,
        max_us: hist.max(),
        elapsed_us,
        passed,
        cache_hits: track_hits.then(|| state.cache_hits.load(Ordering::Relaxed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "adder4".into(),
            family: "adder".into(),
            width: 4,
            threads: vec![1],
            band: None,
            daemon: false,
        }
    }

    #[test]
    fn ramp_completes_and_embeds_metrics() {
        let ramp = RampConfig {
            initial_rps: 5.0,
            increment_rps: 5.0,
            max_rps: 10.0,
            step_ms: 200,
            max_failure_rate: 0.0,
            p95_latency_ms: 10_000.0, // generous: tiny pair, CI machine
        };
        let mut seen = 0;
        let result = run_scenario(&tiny_scenario(), 2, &ramp, &mut |_| seen += 1);
        assert_eq!(seen, result.steps.len());
        assert!(!result.steps.is_empty());
        assert_eq!(result.metrics.len(), result.steps.len());
        // Snapshots are valid metrics-v1 and show certified completions.
        let last = result.metrics.last().unwrap();
        assert_eq!(
            last.get("schema").and_then(Value::as_str),
            Some(obs::metrics::SCHEMA)
        );
        let total: u64 = result.steps.iter().map(|s| s.completed).sum();
        let counters = last.get("counters").unwrap();
        assert_eq!(
            counters.get("cec.checks_completed").and_then(Value::as_u64),
            Some(total)
        );
        assert_eq!(
            counters
                .get("cec.certificates_emitted")
                .and_then(Value::as_u64),
            Some(total)
        );
        // Every step either passed or ended the ramp.
        for (i, s) in result.steps.iter().enumerate() {
            assert!(s.passed || i == result.steps.len() - 1);
            assert_eq!(s.completed + s.failed, s.requests);
        }
    }

    #[test]
    fn daemon_ramp_counts_cache_hits_and_embeds_server_metrics() {
        let metrics = Metrics::new();
        let server = serve::Server::bind(serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics,
            ..serve::ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        let ramp = RampConfig {
            initial_rps: 10.0,
            increment_rps: 0.0, // one step
            max_rps: 10.0,
            step_ms: 300,
            max_failure_rate: 0.0,
            p95_latency_ms: 10_000.0,
        };
        let result = run_scenario_daemon(&tiny_scenario(), 2, &ramp, &addr, &mut |_| ())
            .expect("daemon ramp");
        assert_eq!(result.daemon.as_deref(), Some(addr.as_str()));
        assert_eq!(result.steps.len(), 1);
        let step = &result.steps[0];
        assert_eq!(step.completed, step.requests, "all replies equivalent");
        // The pair repeats, so everything after the daemon's first miss
        // is served (replay-validated) from the certificate cache.
        let hits = step.cache_hits.expect("daemon cells track hits");
        assert!(hits >= step.requests - 1, "{hits}/{}", step.requests);
        // Step-boundary snapshots come from the *daemon's* registry.
        let snap = result.metrics.last().expect("server snapshot");
        let counter = |name: &str| {
            snap.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        assert_eq!(counter("cec.cache.hits"), hits);
        assert!(counter("serve.checks") >= step.requests);
        // The JSON cell carries the new columns.
        let json = step.to_json();
        assert_eq!(json.get("cache_hits").and_then(Value::as_u64), Some(hits));
        assert!(json.get("cache_hit_rate").is_some());

        let mut client = serve::Client::connect(&addr).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }

    #[test]
    fn impossible_latency_bound_fails_first_step() {
        let ramp = RampConfig {
            initial_rps: 5.0,
            increment_rps: 5.0,
            max_rps: 50.0,
            step_ms: 100,
            max_failure_rate: 0.0,
            p95_latency_ms: 0.0, // nothing is this fast
        };
        let result = run_scenario(&tiny_scenario(), 1, &ramp, &mut |_| ());
        assert_eq!(result.steps.len(), 1);
        assert!(!result.steps[0].passed);
        assert_eq!(result.max_sustainable_rps, 0.0);
    }
}
