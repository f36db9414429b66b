//! Ramping-load throughput observatory for the CEC engine.
//!
//! The engine's perf story so far is *trajectories of single runs*
//! (`BENCH_*.json`, schema `bench-v1`: one `--stats-json` tree per
//! (pair, engine, threads) cell). This crate adds the production
//! question those cells cannot answer: **how many equivalence checks
//! per second can this host sustain before latency or failures blow
//! up?** — the IC-scalability-suite style of benchmark
//! (`initial_rps` / `increment_rps` / `max_rps`, workload descriptions
//! as config, auto-generated reports).
//!
//! - [`workload`]: workload *descriptions* — which generator families at
//!   which widths, under which ramp schedule and success criteria —
//!   parsed from a small TOML subset or plain JSON into [`Workload`].
//! - [`ramp`]: the open-loop load driver. Each step offers requests at a
//!   fixed rate to a pool of serving threads, measures latency **from
//!   the scheduled arrival time** (so queueing delay counts — no
//!   coordinated omission), and passes or fails the step on the
//!   configured failure-rate and p95-latency criteria. The ramp stops at
//!   the first failing step; the last passing rate is the scenario's
//!   *max sustainable rate*.
//! - [`trajectory`]: `bench-v2` documents — a superset of `bench-v1`
//!   (the `runs` array is unchanged) adding a `scenarios` array with the
//!   ramp results and embedded `metrics-v1` snapshots, plus the
//!   in-process bench snapshotter that replaces the Python fold-up in
//!   `scripts/bench_snapshot.sh` (and records the *real* CPU census via
//!   `std::thread::available_parallelism`).
//! - [`compare`]: trajectory diffing for CI gating — per-cell regression
//!   detection beyond a threshold, with new/removed cells reported but
//!   never failing the gate.
//! - [`report`]: markdown rendering of a trajectory (the auto-generated
//!   report table).
//!
//! Everything here rides on the repo's certified-proof discipline:
//! every request the driver counts as *completed* was a full
//! [`cec::Session::check`] run producing a checkable verdict, so the published
//! rates are rates of **certified** answers, not of optimistic guesses.

#![warn(missing_docs)]

pub mod compare;
pub mod ramp;
pub mod report;
pub mod trajectory;
pub mod workload;

pub use compare::{compare, CompareOutcome, CompareReport};
pub use ramp::{run_scenario, run_scenario_daemon, RampResult, StepResult};
pub use trajectory::{bench_doc, host_json, snapshot_runs, snapshot_runs_with, utc_date};
pub use workload::{RampConfig, Scenario, Workload};
