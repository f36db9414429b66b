//! `rfraig` — functional reduction (FRAIG) of an AIGER netlist.
//!
//! ```text
//! rfraig IN.aag OUT.aag [--binary] [--limit=N] [--threads=N]
//!        [--pairs-per-worker=N] [--verify] [--lint-proof] [--lint-bundle]
//!        [--trace-out=FILE] [--trace-chrome=FILE] [--stats-json=FILE]
//!        [--verbose] [--quiet]
//! ```
//!
//! `--trace-out` / `--trace-chrome` / `--stats-json` export the
//! reduction run's event journal (JSON Lines), Chrome `trace_event`
//! timeline, and machine-readable stats tree, exactly as in `rcec`;
//! with `--verify` the trace also covers the verification run.
//! `--verbose` prints the reduction's phase breakdown and histograms.
//!
//! `--threads=N` shards the sweeping phase over `N` worker threads
//! (deterministic for a given seed and thread count);
//! `--pairs-per-worker=N` sizes each parallel round's candidate window.
//! `--lint-proof` statically lints the proof recorded by the `--verify`
//! equivalence check (it implies nothing on its own: reduction itself
//! records no refutation); `--lint-bundle` additionally checks the
//! cross-artifact AIG↔CNF↔proof↔certificate binding of that check.
//!
//! Merges functionally equivalent nodes by SAT sweeping and writes the
//! reduced circuit. With `--verify`, the reduction is proven
//! equivalence-preserving by the proof-producing checker before the
//! output is written.
//!
//! Exit codes: 0 success, 2 error.

use cec::{reduce_with_stats, EngineConfig, Session, SharedContext};
use cec_tools::{exit, trace, Args};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rfraig: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "binary",
            "limit",
            "threads",
            "pairs-per-worker",
            "verify",
            "lint-proof",
            "lint-bundle",
            "trace-out",
            "trace-chrome",
            "stats-json",
            "verbose",
            "quiet",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.positional.len() != 2 {
        return Err(
            "usage: rfraig IN.aag OUT.aag [--binary] [--limit=N] [--threads=N] \
                    [--pairs-per-worker=N] [--verify] [--lint-proof] [--lint-bundle] \
                    [--trace-out=FILE] [--trace-chrome=FILE] [--stats-json=FILE] \
                    [--verbose] [--quiet]"
                .into(),
        );
    }
    let in_path = &args.positional[0];
    let out_path = &args.positional[1];
    let f = File::open(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let input = aig::aiger::read(BufReader::new(f)).map_err(|e| format!("{in_path}: {e}"))?;

    let ctx = SharedContext::new(
        trace::recorder_for(&args),
        obs::metrics::Metrics::disabled(),
    );
    let mut options = EngineConfig::default();
    if let Some(v) = args.value("limit") {
        let limit: u64 = v.parse().map_err(|e| format!("--limit: {e}"))?;
        options.pair_conflict_limit = Some(limit);
    }
    if let Some(v) = args.value("threads") {
        let threads: usize = v.parse().map_err(|e| format!("--threads: {e}"))?;
        if threads == 0 {
            return Err("--threads: must be at least 1".into());
        }
        options.threads = threads;
    }
    if let Some(v) = args.value("pairs-per-worker") {
        let pairs: usize = v.parse().map_err(|e| format!("--pairs-per-worker: {e}"))?;
        if pairs == 0 {
            return Err("--pairs-per-worker: must be at least 1".into());
        }
        options.pairs_per_worker = Some(pairs);
    }
    let (reduced, stats) = reduce_with_stats(&input, &options, &ctx);
    if !args.has("quiet") {
        eprintln!(
            "reduced {} -> {} AND gates ({:.1}% removed)",
            input.num_ands(),
            reduced.num_ands(),
            100.0 * (1.0 - reduced.num_ands() as f64 / input.num_ands().max(1) as f64)
        );
    }
    if args.has("verbose") {
        eprintln!("phases: {}", stats.phases);
        eprintln!("sat-call conflicts: {}", stats.sat_conflict_hist);
        eprintln!("lemma chain lengths: {}", stats.lemma_chain_hist);
    }
    if let Some(path) = args.value("stats-json") {
        trace::write_json_file(path, &stats.to_json())?;
    }

    if args.has("verify") {
        let verify = EngineConfig {
            verify: true,
            lint_proof: args.has("lint-proof"),
            lint_bundle: args.has("lint-bundle"),
            threads: options.threads,
            pairs_per_worker: options.pairs_per_worker,
            ..EngineConfig::default()
        };
        let outcome = Session::new(verify, &ctx)
            .check(&input, &reduced)
            .map_err(|e| e.to_string())?;
        if !outcome.is_equivalent() {
            return Err("internal error: reduction changed the function".into());
        }
        if let cec::CecOutcome::Equivalent(cert) = &outcome {
            if let Some(report) = &cert.lint_report {
                let stderr = std::io::stderr();
                let mut w = stderr.lock();
                report.write_text(&mut w).map_err(|e| e.to_string())?;
                if !report.is_clean() {
                    return Err(format!("proof lint failed: {}", report.counts()));
                }
            }
        }
        if !args.has("quiet") {
            eprintln!("verified: reduction is equivalence-preserving (proof checked)");
        }
    }
    trace::write_trace_files(&ctx.recorder, &args)?;

    let f = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let mut w = BufWriter::new(f);
    if args.has("binary") {
        aig::aiger::write_binary(&reduced, &mut w)
    } else {
        aig::aiger::write_ascii(&reduced, &mut w)
    }
    .and_then(|()| w.flush())
    .map_err(|e| format!("{out_path}: {e}"))?;
    Ok(exit::OK)
}
