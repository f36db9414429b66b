//! Synthesis audit: verify that an "optimized" netlist still implements
//! the original design, and hand the auditor a machine-checkable proof.
//!
//! This is the workflow the paper motivates: a synthesis tool restructures
//! a design (here: `balance` + randomized associativity rewriting stand in
//! for a synthesis run), and the CEC engine must not just say "equivalent"
//! but *prove* it in a format a third party can replay. The proof is also
//! exported in TraceCheck format for external checkers.
//!
//! Run with: `cargo run --release --example synthesis_audit`

use resolution_cec::aig::gen::{alu, AluArch};
use resolution_cec::cec::{EngineConfig, Session, SharedContext};
use resolution_cec::proof;
use std::io::Write;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "golden" design: an 8-bit ALU with a ripple arithmetic core.
    let golden = alu(8, AluArch::Ripple);

    // The "synthesized" design: a different arithmetic architecture,
    // then two structural rewrites on top.
    let synthesized = alu(8, AluArch::BrentKung).balance().shuffle_rebuild(42);

    println!(
        "golden:      {} gates, depth {}",
        golden.num_ands(),
        golden.depth()
    );
    println!(
        "synthesized: {} gates, depth {}",
        synthesized.num_ands(),
        synthesized.depth()
    );

    let config = EngineConfig {
        verify: true, // engine re-checks its own proof before answering
        ..EngineConfig::default()
    };
    let outcome = Session::new(config, &SharedContext::disabled()).check(&golden, &synthesized)?;

    let Some(cert) = outcome.certificate() else {
        let cex = outcome.counterexample().expect("inequivalent");
        eprintln!("SYNTHESIS BUG on input {:?}", cex.pattern);
        eprintln!("  golden outputs:      {:?}", cex.outputs_a);
        eprintln!("  synthesized outputs: {:?}", cex.outputs_b);
        std::process::exit(1);
    };

    let stats = &cert.stats;
    println!("verdict: EQUIVALENT in {:?}", stats.elapsed);
    println!(
        "engine:  {} candidates in {} classes, {} SAT calls, {} structural merges",
        stats.initial_candidates, stats.initial_classes, stats.sat_calls, stats.structural_merges
    );

    // Trim to the unsat core and export for an external checker.
    let p = cert.proof.as_ref().expect("proof recorded");
    let trimmed = proof::trim_refutation(p);
    println!(
        "proof:   {} steps recorded, {} needed for the refutation",
        p.len(),
        trimmed.proof.len()
    );

    let path = std::env::temp_dir().join("synthesis_audit.trace");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    proof::export::write_tracecheck(&trimmed.proof, &mut file)?;
    file.flush()?;
    println!("export:  TraceCheck proof written to {}", path.display());

    // Replay it once more, as the auditor would.
    proof::check::check_refutation(&trimmed.proof)?;
    println!("checker: trimmed proof ACCEPTED — verdict is auditable");
    Ok(())
}
