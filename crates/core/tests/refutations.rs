//! Cone-complete refutations on the counterexample-heavy families.
//!
//! Every satisfiable sweep call stops as soon as the candidate pair's
//! fan-in cone is assigned, and its model is widened into 64 distance-1
//! patterns before the classes are refined. This suite runs the adder,
//! Brent–Kung, comparator and priority-encoder pairs at widths 16–32,
//! each next to a confirmed mutant, through the sequential sweep, the
//! parallel sweep and the parallel sweep with learnt sharing, and checks:
//!
//! - every refutation's pattern re-simulates to different values on its
//!   pair and splits the pair's class — the sweeps' `debug_assert`s, so
//!   this part needs a build with debug assertions (`cargo test`'s
//!   default);
//! - the verdict is the true one: `exhaustive_diff` where the inputs
//!   allow it, else the construction (equivalent family pairs) and a
//!   simulation-separated mutant;
//! - every `Equivalent` certificate passes strict `check_refutation`, and
//!   every counterexample re-simulates to different outputs on the two
//!   circuits.

use aig::gen::{family_pair, mutate};
use aig::Aig;
use cec::{CecOutcome, EngineConfig, Session, SharedContext};

/// Largest input count checked exhaustively.
const EXHAUSTIVE_INPUTS: u32 = 16;

/// Whether random simulation tells `a` and `b` apart on some output.
fn separated(a: &Aig, b: &Aig) -> bool {
    let sigs = |g: &Aig| g.output_signatures(&g.simulate_random(8, 0x5EED));
    sigs(a) != sigs(b)
}

/// The equivalent pair of each cell and a confirmed mutant of its second
/// circuit, with whether the two circuits are equivalent.
fn cases() -> Vec<(String, Aig, Aig, bool)> {
    let mut out = Vec::new();
    for family in ["adder", "bk", "cmp", "penc"] {
        for width in [16, 24, 32] {
            let (a, b) = family_pair(family, width).expect("known family");
            let mutant = (0..64)
                .filter_map(|s| mutate(&b, s))
                .find(|m| separated(&a, m))
                .expect("a confirmed mutant");
            out.push((format!("{family}-{width}"), a.clone(), b, true));
            out.push((format!("{family}-{width}-mutant"), a, mutant, false));
        }
    }
    out
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig {
        verify: true,
        ..EngineConfig::default()
    };
    vec![
        ("t1", base.clone()),
        (
            "t2",
            EngineConfig {
                threads: 2,
                ..base.clone()
            },
        ),
        (
            "t2-share",
            EngineConfig {
                threads: 2,
                share_learnts: true,
                ..base
            },
        ),
    ]
}

#[test]
fn refutations_separate_their_pairs_and_verdicts_hold() {
    let ctx = SharedContext::disabled();
    let mut refinements = 0;
    for (name, a, b, equivalent) in cases() {
        if a.num_inputs() <= EXHAUSTIVE_INPUTS as usize {
            let diff = aig::sim::exhaustive_diff(&a, &b, EXHAUSTIVE_INPUTS);
            assert_eq!(diff.is_none(), equivalent, "{name}: ground truth");
        }
        for (mode, config) in configs() {
            let outcome = Session::new(config, &ctx)
                .check(&a, &b)
                .unwrap_or_else(|e| panic!("{name}/{mode}: {e}"));
            refinements += outcome.stats().refinements;
            match outcome {
                CecOutcome::Equivalent(cert) => {
                    assert!(equivalent, "{name}/{mode}: mutant proved equivalent");
                    let proof = cert.proof.as_ref().expect("proof recorded");
                    proof::check::check_refutation(proof)
                        .unwrap_or_else(|e| panic!("{name}/{mode}: {e}"));
                }
                CecOutcome::Inequivalent { counterexample, .. } => {
                    assert!(!equivalent, "{name}/{mode}: equivalent pair refuted");
                    let pattern = &counterexample.pattern;
                    assert_eq!(a.evaluate(pattern), counterexample.outputs_a);
                    assert_eq!(b.evaluate(pattern), counterexample.outputs_b);
                    assert_ne!(
                        counterexample.outputs_a, counterexample.outputs_b,
                        "{name}/{mode}: counterexample does not separate"
                    );
                }
            }
        }
    }
    assert!(refinements > 0, "the suite exercises refutations");
}
