//! The repository benchmark: seeded workloads over the proof-producing
//! CEC engine (in process) and the `rcecd` service (over loopback TCP),
//! every verdict checked by an independent gate before it counts.
//!
//! ```text
//! perfbench --workload prove-cex|prove-unsat|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it carries details (tail percentile and sample count, work counters,
//! first failure reasons). See `perfbench/README.md`.

mod gate;
mod inputs;
mod prove;
mod rng;
mod serve_mix;
mod stats;

use obs::json::Value;
use stats::{Tail, Tally};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: measured with tracing off, reported by every
/// workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("checks_per_s", "1/s"),
    ("max_rps", "1/s"),
    ("cert_bytes_mean", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Times and counts are means per
/// check (per request for `serve.*` and `cache.*`); a layer a workload
/// does not use reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("aig.parse_us", "us"),
    ("cec.check_us", "us"),
    ("cec.miter_us", "us"),
    ("cec.sim_us", "us"),
    ("cec.sweep_us", "us"),
    ("cec.final_solve_us", "us"),
    ("cec.trim_us", "us"),
    ("cec.unattributed_us", "us"),
    ("cec.sat_calls", "count"),
    ("cec.sat_unsat", "count"),
    ("cec.sat_cex", "count"),
    ("cec.refinements", "count"),
    ("cec.lemmas", "count"),
    ("cec.useful_call_ratio", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.cex_call_us", "us"),
    ("sat.unsat_call_us", "us"),
    ("sat.props_per_cex_call", "count"),
    ("proof.resolutions", "count"),
    ("proof.steps_untrimmed", "count"),
    ("proof.trim_keep_ratio", "ratio"),
    ("proof.export_us", "us"),
    ("proof.check_us", "us"),
    ("cache.canon_us", "us"),
    ("cache.lookup_hit_us", "us"),
    ("cache.lookup_miss_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.replay_rejects", "count"),
    ("serve.rtt_hit_us", "us"),
    ("serve.rtt_miss_us", "us"),
    ("serve.server_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.reply_bytes", "bytes"),
    ("gen.lag_ms_max", "ms"),
    ("gate.error_rate", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// What one run found: the error tally, the metric values by name, and
/// the details printed on the line before the result.
pub struct Report {
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
    details: Vec<(String, Value)>,
}

impl Report {
    pub fn new(tally: Tally) -> Report {
        Report {
            tally,
            metrics: BTreeMap::new(),
            details: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }
}

pub fn tail_json(t: &Tail) -> Value {
    Value::Object(vec![
        ("percentile".into(), Value::F64(t.percentile)),
        ("samples".into(), Value::U64(t.samples as u64)),
        ("value_ms".into(), Value::F64(t.value)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub const PROVE_CEX: prove::Spec = prove::Spec {
    families: inputs::PROVE_CEX,
    // 7 of 27 cases per cycle: about a quarter.
    mutants_per_cycle: 7,
};

pub const PROVE_UNSAT: prove::Spec = prove::Spec {
    families: inputs::PROVE_UNSAT,
    // 1 of 9 cases per cycle.
    mutants_per_cycle: 1,
};

fn run(args: &Args) -> Result<Report, String> {
    let spec = match args.workload.as_str() {
        "prove-cex" => &PROVE_CEX,
        "prove-unsat" => &PROVE_UNSAT,
        "serve-mix" => {
            return if args.trace {
                serve_mix::run_traced(args.seed, args.seconds)
            } else {
                serve_mix::run(args.seed, args.seconds)
            }
        }
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(if args.trace {
        prove::run_traced(spec, args.seed, args.seconds)
    } else {
        prove::run(spec, args.seed, args.seconds)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace {
        report.metric("gate.error_rate", report.tally.error_rate());
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = report.metrics.get(name).copied();
        if value.is_none() && !args.trace {
            eprintln!("perfbench: {} did not measure {name}", args.workload);
            return ExitCode::FAILURE;
        }
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::F64(value.unwrap_or(0.0))),
                ("unit".into(), Value::str(unit)),
            ]),
        ));
    }
    let mut details = vec![
        ("workload".to_string(), Value::str(args.workload.as_str())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "errors".to_string(),
            Value::Array(report.tally.reasons.iter().map(Value::str).collect()),
        ),
    ];
    details.append(&mut report.details);
    println!("{}", Value::Object(details));
    println!(
        "{}",
        Value::Object(vec![
            ("correct".into(), Value::Bool(report.tally.failed == 0)),
            ("attempted".into(), Value::U64(report.tally.attempted)),
            ("failed".into(), Value::U64(report.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counters_repeat_exactly_for_a_seed() {
        for spec in [&PROVE_CEX, &PROVE_UNSAT] {
            let first = prove::work_counters(spec, 7);
            assert!(first.conflicts > 0 && first.sat_calls > 0 && first.resolutions > 0);
            assert_eq!(first, prove::work_counters(spec, 7));
        }
    }

    #[test]
    fn metric_names_and_units_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }
}
