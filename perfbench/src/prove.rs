//! The in-process proving workloads (`prove-cex`, `prove-unsat`): a
//! closed loop, one check at a time, through
//! `aig::aiger::read` → `cec::Session::check` →
//! `proof::export::write_tracecheck`.

use crate::gate::{self, Answer};
use crate::inputs::{Case, Family, ProveStream};
use crate::stats::{mean, median, Tail, Tally};
use crate::Report;
use cec::{CecOutcome, EngineConfig, EngineStats, Session, SharedContext};
use obs::json::Value;
use obs::{ArgVal, EventKind, Recorder};
use std::time::{Duration, Instant};

/// One proving workload: its families, and how many mutants each cycle
/// over them adds.
pub struct Spec {
    pub families: &'static [Family],
    pub mutants_per_cycle: usize,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Every run checks at least this many cases, and reports the work
/// counters of exactly these, so the counters are a function of the
/// seed alone.
pub const WORK_PREFIX: usize = 8;

/// One pass of a case through the pipeline, timed per layer.
struct Checked {
    outcome: Result<CecOutcome, String>,
    certificate: Vec<u8>,
    parse: Duration,
    check: Duration,
    export: Duration,
}

impl Checked {
    fn latency(&self) -> Duration {
        self.parse + self.check + self.export
    }

    fn stats(&self) -> Option<&EngineStats> {
        match self.outcome.as_ref().ok()? {
            CecOutcome::Equivalent(cert) => Some(&cert.stats),
            CecOutcome::Inequivalent { stats, .. } => Some(stats),
        }
    }
}

fn prove(case: &Case, config: &EngineConfig, ctx: &SharedContext) -> Checked {
    let t0 = Instant::now();
    let parsed = aig::aiger::read(case.a.as_bytes()).and_then(|a| {
        let b = aig::aiger::read(case.b.as_bytes())?;
        Ok((a, b))
    });
    let parse = t0.elapsed();
    let (a, b) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            return Checked {
                outcome: Err(format!("{}: AIGER: {e}", case.label)),
                certificate: Vec::new(),
                parse,
                check: Duration::ZERO,
                export: Duration::ZERO,
            }
        }
    };
    let t1 = Instant::now();
    let outcome = Session::new(config.clone(), ctx)
        .check(&a, &b)
        .map_err(|e| format!("{}: engine: {e}", case.label));
    let check = t1.elapsed();
    let t2 = Instant::now();
    let mut certificate = Vec::new();
    let outcome = match outcome {
        Ok(CecOutcome::Equivalent(cert)) => match cert.proof.as_ref() {
            Some(p) => proof::export::write_tracecheck(p, &mut certificate)
                .map(|()| CecOutcome::Equivalent(cert))
                .map_err(|e| format!("{}: export: {e}", case.label)),
            None => Err(format!(
                "{}: equivalent verdict without a proof",
                case.label
            )),
        },
        other => other,
    };
    let export = t2.elapsed();
    Checked {
        outcome,
        certificate,
        parse,
        check,
        export,
    }
}

/// Runs the gate over one checked case.
fn audit(case: &Case, checked: &Checked, proof_time: &mut Duration) -> Result<(), String> {
    let outcome = checked.outcome.as_ref().map_err(Clone::clone)?;
    let a = aig::aiger::read(case.a.as_bytes()).map_err(|e| e.to_string())?;
    let b = aig::aiger::read(case.b.as_bytes()).map_err(|e| e.to_string())?;
    let answer = match outcome {
        CecOutcome::Equivalent(_) => Answer::Equivalent {
            tracecheck: &checked.certificate,
        },
        CecOutcome::Inequivalent { counterexample, .. } => Answer::Inequivalent {
            pattern: &counterexample.pattern,
        },
    };
    gate::check(&a, &b, case.expect_equivalent, &answer, proof_time)
        .map_err(|e| format!("{}: {e}", case.label))
}

/// The deterministic work counters of the first [`WORK_PREFIX`] cases.
#[derive(Default, PartialEq, Eq, Debug)]
pub struct Work {
    pub conflicts: u64,
    pub propagations: u64,
    pub sat_calls: u64,
    pub resolutions: u64,
}

impl Work {
    fn add(&mut self, s: &EngineStats) {
        self.conflicts += s.solver.conflicts;
        self.propagations += s.solver.propagations;
        self.sat_calls += s.sat_calls;
        self.resolutions += s.trimmed.map_or(0, |t| t.resolutions);
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("checks".into(), Value::U64(WORK_PREFIX as u64)),
            ("sat.conflicts".into(), Value::U64(self.conflicts)),
            ("sat.propagations".into(), Value::U64(self.propagations)),
            ("cec.sat_calls".into(), Value::U64(self.sat_calls)),
            ("proof.resolutions".into(), Value::U64(self.resolutions)),
        ])
    }
}

/// Set-up: generate the run's inputs and the shared engine context,
/// [`SETUPS`] times; returns the last and the median set-up time.
fn set_up(spec: &Spec, seed: u64, recorder: &Recorder) -> (ProveStream, SharedContext, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let stream = ProveStream::new(spec.families, spec.mutants_per_cycle, seed);
        let ctx = SharedContext::new(recorder.clone(), obs::metrics::Metrics::disabled());
        times.push(t0.elapsed().as_secs_f64());
        last = Some((stream, ctx));
    }
    let (stream, ctx) = last.expect("at least one set-up");
    (stream, ctx, median(&times))
}

/// Work counters of the first [`WORK_PREFIX`] cases of `seed`'s stream.
#[cfg(test)]
pub fn work_counters(spec: &Spec, seed: u64) -> Work {
    let ctx = SharedContext::disabled();
    let config = EngineConfig::default();
    let mut work = Work::default();
    let mut stream = ProveStream::new(spec.families, spec.mutants_per_cycle, seed);
    for _ in 0..WORK_PREFIX {
        if let Some(s) = prove(stream.next_case(), &config, &ctx).stats() {
            work.add(s);
        }
    }
    work
}

/// The end-to-end run: tracing off.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let (mut stream, ctx, setup_s) = set_up(spec, seed, &Recorder::disabled());
    let config = EngineConfig::default();
    let mut tally = Tally::default();
    let mut work = Work::default();
    let mut latency_ms = Vec::new();
    let mut cert_bytes = Vec::new();
    let mut proof_time = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < WORK_PREFIX || Instant::now() < deadline {
        let case = stream.next_case();
        let checked = prove(case, &config, &ctx);
        latency_ms.push(checked.latency().as_secs_f64() * 1e3);
        if let Some(s) = checked.stats().filter(|_| i < WORK_PREFIX) {
            work.add(s);
        }
        if matches!(checked.outcome, Ok(CecOutcome::Equivalent(_))) {
            cert_bytes.push(checked.certificate.len() as f64);
        }
        tally.record(audit(case, &checked, &mut proof_time));
        i += 1;
    }
    let busy_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    let checks_per_s = latency_ms.len() as f64 / busy_s;
    let tail = Tail::of(&latency_ms);
    let mut report = Report::new(tally);
    report.metric("setup_s", setup_s);
    report.metric("latency_p50_ms", median(&latency_ms));
    report.metric("latency_tail_ms", tail.value);
    report.metric("checks_per_s", checks_per_s);
    // A closed loop of one caller: the highest rate it sustains is its
    // completion rate.
    report.metric("max_rps", checks_per_s);
    report.metric("cert_bytes_mean", mean(&cert_bytes));
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    report.detail("tail", crate::tail_json(&tail));
    report.detail("work", work.to_json());
    report
}

/// Per-check sums of the per-layer figures of a traced run.
#[derive(Default)]
struct Layers {
    checks: f64,
    parse_us: f64,
    check_us: f64,
    export_us: f64,
    miter_us: f64,
    sim_us: f64,
    sweep_us: f64,
    final_us: f64,
    trim_us: f64,
    sat_calls: f64,
    sat_unsat: f64,
    sat_cex: f64,
    refinements: f64,
    lemmas: f64,
    conflicts: f64,
    decisions: f64,
    propagations: f64,
    cex_calls: f64,
    cex_call_us: f64,
    cex_props: f64,
    unsat_calls: f64,
    unsat_call_us: f64,
    proofs: f64,
    resolutions: f64,
    steps_untrimmed: f64,
    steps_trimmed: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Layers {
    fn add(&mut self, c: &Checked, s: &EngineStats, events: &[obs::Event]) {
        self.checks += 1.0;
        self.parse_us += us(c.parse);
        self.check_us += us(c.check);
        self.export_us += us(c.export);
        self.miter_us += us(s.phases.miter);
        self.sim_us += us(s.phases.sim);
        self.sweep_us += us(s.phases.sweep);
        self.final_us += us(s.phases.final_solve);
        self.trim_us += us(s.phases.trim);
        self.sat_calls += s.sat_calls as f64;
        self.sat_unsat += s.sat_unsat as f64;
        self.sat_cex += s.sat_cex as f64;
        self.refinements += s.refinements as f64;
        self.lemmas += s.lemmas as f64;
        self.conflicts += s.solver.conflicts as f64;
        self.decisions += s.solver.decisions as f64;
        self.propagations += s.solver.propagations as f64;
        if let (Some(p), Some(t)) = (s.proof, s.trimmed) {
            self.proofs += 1.0;
            self.resolutions += t.resolutions as f64;
            self.steps_untrimmed += (p.original + p.derived) as f64;
            self.steps_trimmed += (t.original + t.derived) as f64;
        }
        for e in events {
            if e.kind != EventKind::Span || e.name != "sat_call" {
                continue;
            }
            let arg = |k: &str| e.args.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
            let props = match arg("propagations") {
                Some(ArgVal::U64(p)) => p as f64,
                _ => 0.0,
            };
            match arg("verdict") {
                Some(ArgVal::Str("sat")) => {
                    self.cex_calls += 1.0;
                    self.cex_call_us += e.dur_us as f64;
                    self.cex_props += props;
                }
                Some(ArgVal::Str("unsat")) => {
                    self.unsat_calls += 1.0;
                    self.unsat_call_us += e.dur_us as f64;
                }
                _ => {}
            }
        }
    }

    fn report(&self, report: &mut Report) {
        let per = |x: f64| x / self.checks.max(1.0);
        let ratio = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
        let phases = self.miter_us + self.sim_us + self.sweep_us + self.final_us + self.trim_us;
        report.metric("aig.parse_us", per(self.parse_us));
        report.metric("cec.check_us", per(self.check_us));
        report.metric("cec.miter_us", per(self.miter_us));
        report.metric("cec.sim_us", per(self.sim_us));
        report.metric("cec.sweep_us", per(self.sweep_us));
        report.metric("cec.final_solve_us", per(self.final_us));
        report.metric("cec.trim_us", per(self.trim_us));
        report.metric("cec.unattributed_us", per(self.check_us - phases));
        report.metric("cec.sat_calls", per(self.sat_calls));
        report.metric("cec.sat_unsat", per(self.sat_unsat));
        report.metric("cec.sat_cex", per(self.sat_cex));
        report.metric("cec.refinements", per(self.refinements));
        report.metric("cec.lemmas", per(self.lemmas));
        report.metric(
            "cec.useful_call_ratio",
            ratio(self.sat_unsat, self.sat_calls),
        );
        report.metric("sat.conflicts", per(self.conflicts));
        report.metric("sat.decisions", per(self.decisions));
        report.metric("sat.propagations", per(self.propagations));
        report.metric("sat.cex_call_us", ratio(self.cex_call_us, self.cex_calls));
        report.metric(
            "sat.unsat_call_us",
            ratio(self.unsat_call_us, self.unsat_calls),
        );
        report.metric(
            "sat.props_per_cex_call",
            ratio(self.cex_props, self.cex_calls),
        );
        report.metric("proof.resolutions", ratio(self.resolutions, self.proofs));
        report.metric(
            "proof.steps_untrimmed",
            ratio(self.steps_untrimmed, self.proofs),
        );
        report.metric(
            "proof.trim_keep_ratio",
            ratio(self.steps_trimmed, self.steps_untrimmed),
        );
        report.metric("proof.export_us", per(self.export_us));
    }
}

/// The traced run: every case is checked once with tracing off and once
/// with the `obs` recorder on (alternating which goes first). Per-layer
/// figures come from the traced checks; the two timings give the
/// tracing overhead.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let recorder = Recorder::new();
    let (mut stream, traced_ctx, _) = set_up(spec, seed, &recorder);
    let plain_ctx = SharedContext::disabled();
    let config = EngineConfig::default();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut proof_time = Duration::ZERO;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < WORK_PREFIX || Instant::now() < deadline {
        let case = stream.next_case();
        let (plain, traced) = if i % 2 == 0 {
            let p = prove(case, &config, &plain_ctx);
            (p, prove(case, &config, &traced_ctx))
        } else {
            let t = prove(case, &config, &traced_ctx);
            (prove(case, &config, &plain_ctx), t)
        };
        let events = recorder.take_events();
        plain_s += plain.latency().as_secs_f64();
        traced_s += traced.latency().as_secs_f64();
        if let Some(s) = traced.stats() {
            layers.add(&traced, s, &events);
        }
        let same = plain.certificate == traced.certificate;
        tally.record(audit(case, &traced, &mut proof_time).and_then(|()| {
            same.then_some(())
                .ok_or_else(|| format!("{}: tracing changed the certificate", case.label))
        }));
        i += 1;
    }
    let mut report = Report::new(tally);
    layers.report(&mut report);
    report.metric("proof.check_us", us(proof_time) / layers.proofs.max(1.0));
    report.metric("obs.trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    report
}
