//! Property-based tests over the whole stack.
//!
//! Random circuits, random rewrites, and random faults drive the
//! equivalence checker; every claimed equivalence is backed by a checked
//! resolution proof and every claimed difference by a re-executed
//! counterexample — and for small input counts, both verdicts are
//! compared against exhaustive evaluation.

use proptest::prelude::*;
use resolution_cec::aig::gen::{mutate, random_aig};
use resolution_cec::aig::sim::exhaustive_diff;
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Rewriting (shuffle/balance) never changes the function, and the
    /// engine can always prove it with a checkable refutation.
    #[test]
    fn rewrites_are_equivalence_preserving(
        inputs in 2usize..8,
        gates in 5usize..80,
        outputs in 1usize..4,
        seed in any::<u64>(),
        rewrite_seed in any::<u64>(),
        balance in any::<bool>(),
    ) {
        let a = random_aig(inputs, gates, outputs, seed);
        let b = if balance { a.balance() } else { a.shuffle_rebuild(rewrite_seed) };
        prop_assert_eq!(exhaustive_diff(&a, &b, 8), None);
        let outcome = check(verified(), &a, &b).unwrap();
        let cert = outcome.certificate().expect("rewrite preserves function");
        prop_assert!(proof::check::check_refutation(cert.proof.as_ref().unwrap()).is_ok());
    }

    /// The engine's verdict matches exhaustive ground truth on mutants.
    #[test]
    fn engine_matches_ground_truth_on_mutants(
        inputs in 2usize..7,
        gates in 5usize..60,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let Some(b) = mutate(&a, fault_seed) else {
            return Ok(());
        };
        let truth_equal = exhaustive_diff(&a, &b, 8).is_none();
        let outcome = check(verified(), &a, &b).unwrap();
        prop_assert_eq!(outcome.is_equivalent(), truth_equal);
        if let Some(cex) = outcome.counterexample() {
            prop_assert_eq!(&a.evaluate(&cex.pattern), &cex.outputs_a);
            prop_assert_eq!(&b.evaluate(&cex.pattern), &cex.outputs_b);
            prop_assert_ne!(&cex.outputs_a, &cex.outputs_b);
        }
    }

    /// Engine options never change the verdict, only the work profile.
    #[test]
    fn options_do_not_change_verdicts(
        inputs in 2usize..6,
        gates in 5usize..40,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        share in any::<bool>(),
        structural in any::<bool>(),
        sim_words in 1usize..8,
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let b = match fault_seed % 3 {
            0 => a.shuffle_rebuild(fault_seed),
            _ => match mutate(&a, fault_seed) {
                Some(m) => m,
                None => return Ok(()),
            },
        };
        let truth_equal = exhaustive_diff(&a, &b, 8).is_none();
        let opts = EngineConfig {
            share_structure: share,
            structural_merging: structural,
            sim_words,
            verify: true,
            ..EngineConfig::default()
        };
        let outcome = check(opts, &a, &b).unwrap();
        prop_assert_eq!(outcome.is_equivalent(), truth_equal);
    }

    /// Trimming any engine proof preserves checkability and the root.
    #[test]
    fn trimmed_engine_proofs_check(
        inputs in 2usize..6,
        gates in 5usize..40,
        seed in any::<u64>(),
        rewrite_seed in any::<u64>(),
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let b = a.shuffle_rebuild(rewrite_seed);
        let outcome = check(EngineConfig::default(), &a, &b).unwrap();
        let cert = outcome.certificate().expect("equivalent");
        let p = cert.proof.as_ref().unwrap();
        let t = proof::trim_refutation(p);
        prop_assert!(t.proof.len() <= p.len());
        prop_assert!(proof::check::check_refutation(&t.proof).is_ok());
        prop_assert!(proof::check::check_rup(&t.proof).is_ok());
    }
}
