//! Quickstart: prove two adder architectures equivalent and audit the
//! resolution proof with the independent checker.
//!
//! Run with: `cargo run --release --example quickstart`

use resolution_cec::aig::gen::{kogge_stone_adder, ripple_carry_adder};
use resolution_cec::cec::{EngineConfig, Session, SharedContext};
use resolution_cec::proof;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 32;
    let a = ripple_carry_adder(width);
    let b = kogge_stone_adder(width);
    println!(
        "circuit A (ripple):      {} AND gates, depth {}",
        a.num_ands(),
        a.depth()
    );
    println!(
        "circuit B (kogge-stone): {} AND gates, depth {}",
        b.num_ands(),
        b.depth()
    );

    let ctx = SharedContext::disabled();
    let outcome = Session::new(EngineConfig::default(), &ctx).check(&a, &b)?;
    let cert = outcome.certificate().expect("the adders are equivalent");
    let stats = &cert.stats;
    println!("verdict: EQUIVALENT in {:?}", stats.elapsed);
    println!(
        "engine:  {} SAT calls ({} lemmas, {} structural merges, {} refinements)",
        stats.sat_calls, stats.lemmas, stats.structural_merges, stats.refinements
    );

    let p = cert.proof.as_ref().expect("proof recorded");
    println!("proof:   {}", p.stats());

    // Audit the verdict without trusting the engine.
    let t = std::time::Instant::now();
    proof::check::check_refutation(p)?;
    println!("checker: proof ACCEPTED in {:?}", t.elapsed());

    let trimmed = proof::trim_refutation(p);
    println!(
        "trim:    {} steps -> {} steps ({:.1}% kept)",
        p.len(),
        trimmed.proof.len(),
        100.0 * trimmed.proof.len() as f64 / p.len() as f64
    );
    proof::check::check_refutation(&trimmed.proof)?;
    println!("checker: trimmed proof ACCEPTED");
    Ok(())
}
