//! Adversarial audit harness: fault-injected bundle/checker pairs.
//!
//! The engine's claim — every verdict ships as a bundle an independent
//! checker can audit — is only worth what survives adversity. This
//! crate attacks it on two axes:
//!
//! - [`workload`]: long randomized op streams (generate → prove → emit
//!   → mutate → re-prove → cross-check against exhaustive ground
//!   truth), every op a pure function of the master seed;
//! - [`fault`]: seeded bit flips, truncations and torn lines over every
//!   persisted artifact class, which [`bundle::check_bundle`] must
//!   reject with a stable diagnostic code — never accept, never panic.
//!
//! [`bundle`] writes and checks the bundles: the AIGER pair, the miter
//! CNF, the proof side or the counterexample, committed by a
//! fingerprinting [`Manifest`]. The `rchaos` binary (in `crates/cli`)
//! drives it all from the command line; `tests/fault_matrix.rs` and
//! `tests/chaos_stress.rs` run the acceptance matrices.

#![warn(missing_docs)]

pub mod bundle;
pub mod fault;
pub mod workload;

pub use bundle::{
    check_bundle, parse_cex, prove_and_emit, write_cex, BundlePaths, EmitError, Manifest,
    ARTIFACTS, MANIFEST,
};
pub use fault::{corrupt, FaultMode, FAULT_MODES};
pub use workload::{generate_pair, run_workload, WorkloadOptions, WorkloadReport, PAIR_NAMES};
