//! Baseline shootout: the three ways to decide combinational
//! equivalence, side by side on the same pairs.
//!
//! 1. **BDD** — canonical form; fastest when it fits, no certificate,
//!    exponential cliff on multipliers.
//! 2. **Monolithic SAT** — one solver call on the miter CNF; robust,
//!    proof available, but the proof is large.
//! 3. **Sweeping + proof stitching** (the paper) — exploits similarity,
//!    and its compact proof is replayed by the independent checker.
//!
//! Run with: `cargo run --release --example baseline_shootout`

use resolution_cec::aig::gen;
use resolution_cec::cec::bdd_baseline::{prove_bdd, BddOptions, BddVerdict};
use resolution_cec::cec::monolithic::{prove_monolithic, MonolithicOptions};
use resolution_cec::cec::{EngineConfig, Session, SharedContext};
use resolution_cec::proof;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pairs = vec![
        (
            "32-bit adders (rca vs kogge-stone)",
            gen::ripple_carry_adder(32),
            gen::kogge_stone_adder(32),
        ),
        (
            "6-bit multipliers (array vs carry-save)",
            gen::array_multiplier(6),
            gen::carry_save_multiplier(6),
        ),
    ];

    for (name, a, b) in &pairs {
        println!("== {name} ==");

        // BDD baseline.
        let t = Instant::now();
        let verdict = prove_bdd(a, b, &BddOptions::default())?;
        match verdict {
            BddVerdict::Equivalent { nodes, .. } => println!(
                "  bdd:        EQUIVALENT in {:>10.3?}  ({nodes} nodes, no proof object)",
                t.elapsed()
            ),
            BddVerdict::Overflow(e) => println!("  bdd:        UNDECIDED ({e})"),
            BddVerdict::Inequivalent { .. } => println!("  bdd:        INEQUIVALENT?!"),
        }

        // Monolithic SAT with proof.
        let t = Instant::now();
        let mono = prove_monolithic(a, b, &MonolithicOptions::default())?;
        let cert = mono.certificate().expect("equivalent");
        let mono_proof = cert.proof.as_ref().expect("proof");
        proof::check::check_refutation(mono_proof)?;
        println!(
            "  monolithic: EQUIVALENT in {:>10.3?}  ({} resolutions, proof checked)",
            t.elapsed(),
            mono_proof.stats().resolutions
        );

        // Sweeping with stitched proof.
        let t = Instant::now();
        let sweep =
            Session::new(EngineConfig::default(), &SharedContext::disabled()).check(a, b)?;
        let cert = sweep.certificate().expect("equivalent");
        let sweep_proof = cert.proof.as_ref().expect("proof");
        proof::check::check_refutation(sweep_proof)?;
        println!(
            "  sweeping:   EQUIVALENT in {:>10.3?}  ({} resolutions, proof checked, {} struct merges)",
            t.elapsed(),
            sweep_proof.stats().resolutions,
            cert.stats.structural_merges
        );
        println!();
    }
    Ok(())
}
