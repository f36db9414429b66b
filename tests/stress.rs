//! Larger-scale stress tests. The quick variants run in the normal
//! suite; the `#[ignore]`d ones are laptop-minutes scale and run with
//! `cargo test --release --test stress -- --ignored`.

use resolution_cec::aig::gen;
use resolution_cec::aig::Aig;
use resolution_cec::cec::{CecError, CecOutcome, EngineConfig, Session, SharedContext};
use resolution_cec::proof;

/// One check of `a` against `b` under `config`.
fn check(config: EngineConfig, a: &Aig, b: &Aig) -> Result<CecOutcome, CecError> {
    Session::new(config, &SharedContext::disabled()).check(a, b)
}

fn verified() -> EngineConfig {
    EngineConfig {
        verify: true,
        ..EngineConfig::default()
    }
}

#[test]
fn adder_48bit_proof_checks() {
    let a = gen::ripple_carry_adder(48);
    let b = gen::kogge_stone_adder(48);
    let outcome = check(verified(), &a, &b).unwrap();
    let cert = outcome.certificate().expect("equivalent");
    let p = cert.proof.as_ref().unwrap();
    proof::check::check_refutation(p).unwrap();
    let t = proof::compact_refutation(p);
    proof::check::check_refutation(&t.proof).unwrap();
}

#[test]
fn wide_alu_with_budget() {
    let a = gen::alu(24, gen::AluArch::Ripple);
    let b = gen::alu(24, gen::AluArch::BrentKung);
    let opts = EngineConfig {
        pair_conflict_limit: Some(1000),
        verify: true,
        ..EngineConfig::default()
    };
    let outcome = check(opts, &a, &b).unwrap();
    assert!(outcome.is_equivalent());
}

#[test]
#[ignore = "minutes-scale: 64-bit adders across all architectures"]
fn adder_64bit_all_architectures() {
    let reference = gen::ripple_carry_adder(64);
    for (name, other) in [
        ("kogge-stone", gen::kogge_stone_adder(64)),
        ("brent-kung", gen::brent_kung_adder(64)),
        ("carry-select", gen::carry_select_adder(64, 8)),
        ("carry-skip", gen::carry_skip_adder(64, 8)),
    ] {
        let outcome = check(verified(), &reference, &other).unwrap();
        let cert = outcome
            .certificate()
            .unwrap_or_else(|| panic!("{name}: expected equivalent"));
        proof::check::check_refutation(cert.proof.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        proof::check::check_rup(cert.proof.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("{name}: rup: {e}"));
    }
}

#[test]
#[ignore = "minutes-scale: 8-bit heterogeneous multipliers"]
fn multiplier_8bit_with_checked_proof() {
    let a = gen::array_multiplier(8);
    let b = gen::carry_save_multiplier(8);
    let outcome = check(EngineConfig::default(), &a, &b).unwrap();
    let cert = outcome.certificate().expect("equivalent");
    let p = cert.proof.as_ref().unwrap();
    proof::check::check_refutation(p).unwrap();
    let t = proof::trim_refutation(p);
    proof::check::check_refutation(&t.proof).unwrap();
}

#[test]
#[ignore = "minutes-scale: randomized sweep over many rewrite pairs"]
fn rewrite_campaign() {
    for seed in 0..40 {
        let g = gen::random_aig(14, 300, 6, seed);
        let h = g.shuffle_rebuild(seed.wrapping_mul(7919));
        let outcome = check(verified(), &g, &h).unwrap();
        assert!(outcome.is_equivalent(), "seed {seed}");
    }
}
