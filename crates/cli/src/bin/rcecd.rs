//! `rcecd` — persistent combinational-equivalence-checking service.
//!
//! ```text
//! rcecd [--addr=HOST:PORT] [--workers=N] [--threads=N]
//!       [--engine=static|adaptive] [--no-share-learnts]
//!       [--cache-capacity=N] [--cache-dir=PATH]
//!       [--metrics-out=FILE] [--metrics-period-ms=N] [--metrics-status[=FILE]]
//!       [--quiet]
//! ```
//!
//! The daemon keeps one engine context and one certificate cache warm
//! across queries: clients connect over TCP (default `127.0.0.1:7163`;
//! port `0` picks a free port), send JSON Lines requests (`check`,
//! `batch`, `ping`, `metrics`, `shutdown` — see crate `serve`), and get
//! back the verdict, the TraceCheck certificate or counterexample
//! pattern, and a `cache_hit` flag. `rcec query ADDR A.aag B.aag` is
//! the matching one-shot client.
//!
//! Each of the `--workers` pool threads runs one engine session at a
//! time; `--threads` sets how many sweeping threads each session may
//! use, and `--engine` picks the dispatch schedule, exactly as in
//! `rcec`. Learnt-clause sharing between sweeping workers defaults
//! **on** in the daemon (it optimizes for throughput; every imported
//! clause is still re-derived into the checked proof) — pin the
//! single-run byte layout with `--no-share-learnts`.
//!
//! The certificate cache keys queries by a *structural* canonical form:
//! any renaming of the same netlist pair hits the same entry, and every
//! hit is re-validated against the incoming query by certificate replay
//! before it is served (a corrupted or mismatched entry is silently
//! re-proved, never served). `--cache-capacity` bounds the in-memory
//! tier (default 256 verdicts); with `--cache-dir` evicted entries
//! spill to disk and can be promoted back.
//!
//! On startup the daemon prints `rcecd listening on ADDR` to stdout so
//! scripts can scrape the resolved address. `--metrics-out` /
//! `--metrics-status` attach background samplers to the live registry
//! (cache hits/misses/evictions/replay rejects/spill errors, serve
//! connections/requests/checks, engine counters); the `metrics`
//! protocol request returns the same snapshot on demand either way.
//!
//! Exit code 0 after a clean `shutdown` request, 2 on startup or fatal
//! accept errors.

use cec_tools::{exit, trace, Args};
use serve::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: rcecd [--addr=HOST:PORT] [--workers=N] [--threads=N] \
     [--engine=static|adaptive] [--no-share-learnts] \
     [--cache-capacity=N] [--cache-dir=PATH] \
     [--metrics-out=FILE] [--metrics-period-ms=N] [--metrics-status[=FILE]] [--quiet]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rcecd: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "addr",
            "workers",
            "threads",
            "engine",
            "no-share-learnts",
            "cache-capacity",
            "cache-dir",
            "metrics-out",
            "metrics-period-ms",
            "metrics-status",
            "quiet",
        ],
    )
    .map_err(|e| e.to_string())?;
    if !args.positional.is_empty() {
        return Err(USAGE.into());
    }
    let quiet = args.has("quiet");

    // The registry is always live: the `metrics` protocol request must
    // answer even when no sampler was asked for.
    let metrics = obs::metrics::Metrics::new();
    let samplers = trace::samplers_for(&args, &metrics)?;

    let mut config = ServerConfig {
        metrics,
        ..ServerConfig::default()
    };
    if let Some(v) = args.value("addr") {
        config.addr = v.to_string();
    }
    if let Some(v) = args.value("workers") {
        let workers: usize = v.parse().map_err(|e| format!("--workers: {e}"))?;
        if workers == 0 {
            return Err("--workers: must be at least 1".into());
        }
        config.workers = workers;
    }
    if let Some(v) = args.value("threads") {
        let threads: usize = v.parse().map_err(|e| format!("--threads: {e}"))?;
        if threads == 0 {
            return Err("--threads: must be at least 1".into());
        }
        config.engine.threads = threads;
    }
    if let Some(v) = args.value("engine") {
        config.engine.engine = match v {
            "static" => cec::EngineSelect::Static,
            "adaptive" => cec::EngineSelect::Adaptive,
            other => return Err(format!("--engine: unknown engine '{other}'")),
        };
    }
    if args.has("no-share-learnts") {
        config.engine.share_learnts = false;
    }
    if let Some(v) = args.value("cache-capacity") {
        let capacity: usize = v.parse().map_err(|e| format!("--cache-capacity: {e}"))?;
        if capacity == 0 {
            return Err("--cache-capacity: must be at least 1".into());
        }
        config.cache.capacity = capacity;
    }
    if let Some(v) = args.value("cache-dir") {
        config.cache.spill_dir = Some(std::path::PathBuf::from(v));
    }

    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Announced on stdout (and flushed) so wrapping scripts can scrape
    // the resolved address even when the port was 0.
    println!("rcecd listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    server.run().map_err(|e| format!("serve: {e}"))?;

    for sampler in samplers {
        let lines = sampler.stop().map_err(|e| format!("metrics: {e}"))?;
        if !quiet {
            eprintln!("metrics: {lines} snapshots");
        }
    }
    if !quiet {
        eprintln!("rcecd: shut down");
    }
    Ok(exit::OK)
}
