//! Cross-version golden test: the engine's certificates must not drift.
//!
//! Every other determinism test compares two runs of the *same* build.
//! This one pins the exact output of each cell below as checked-in
//! constants: the FNV-1a-64 of the TraceCheck proof bytes (of the
//! counterexample pattern, as `0`/`1` characters, for the mutant), plus
//! the `sat_calls`, `lemmas` and `refinements` work counters. A refactor
//! of the sweep, the pair discharge or the session layer must leave all
//! of them unchanged.
//!
//! Regenerate the table only when a change is *meant* to alter proofs
//! (a new heuristic, a different lemma shape). On a mismatch the test
//! prints the complete table computed by the current build, ready to
//! paste over `GOLDEN`; say in the change description why proofs moved.

use aig::gen;
use aig::Aig;
use cec::{CecOutcome, EngineConfig, Session, SharedContext};

/// `(cell, hash, sat_calls, lemmas, refinements)`.
type Row = (&'static str, &'static str, u64, u64, u64);

const GOLDEN: &[Row] = &[
    ("adder-16/t1", "c87c53521acd2640", 148, 216, 9),
    ("adder-16/t1-limit2", "5bd1725395a6cb41", 209, 146, 7),
    ("adder-16/t2", "b1db997d120d9714", 165, 216, 10),
    ("adder-16/t2-share", "9feda83db11d9c40", 165, 216, 10),
    ("mul-4/t1", "b0450b98ee06bc86", 64, 64, 0),
    ("mul-4/t1-limit2", "2bce26b43b69a52f", 50, 2, 0),
    ("mul-4/t2", "c3ad165e08080ebf", 64, 64, 0),
    ("mul-4/t2-share", "c3ad165e08080ebf", 64, 64, 0),
    ("popcount-12/t1", "d8af367017719f76", 101, 100, 1),
    ("popcount-12/t1-limit2", "d5be68e34a9bf988", 93, 62, 1),
    ("popcount-12/t2", "7f080eeef22312ae", 109, 100, 6),
    ("popcount-12/t2-share", "d7de8f315a6574ea", 109, 100, 6),
    ("shift-16/t1", "67a78a5dcb8c391a", 166, 168, 0),
    ("shift-16/t1-limit2", "a37894ed58753f97", 134, 20, 0),
    ("shift-16/t2", "2a4ad7b6f4e8ff16", 168, 168, 0),
    ("shift-16/t2-share", "3c50e364a809c00e", 168, 168, 0),
    ("parity-32/t1", "ad5fa04fe7d9f726", 14, 14, 0),
    ("parity-32/t1-limit2", "8eae81cd6aad87f4", 9, 0, 0),
    ("parity-32/t2", "0b56a3ffea9c72b0", 14, 14, 0),
    ("parity-32/t2-share", "0b56a3ffea9c72b0", 14, 14, 0),
    ("adder-16-mutant/t1", "a451eaf73400d051", 123, 174, 7),
    ("adder-16-mutant/t1-limit2", "6beeed288a4a62e5", 170, 118, 5),
    ("adder-16-mutant/t2", "c8e732bc23c4eda4", 132, 174, 11),
    ("adder-16-mutant/t2-share", "c8e732bc23c4eda4", 132, 174, 11),
];

/// The circuit pairs: five equivalent families and one adder mutant
/// whose inequivalence random simulation confirms.
fn pairs() -> Vec<(&'static str, Aig, Aig)> {
    let adder = gen::ripple_carry_adder(16);
    let ks = gen::kogge_stone_adder(16);
    let mutant = (0..64)
        .filter_map(|s| gen::mutate(&ks, s))
        .find(|m| differs(&adder, m))
        .expect("a confirmed adder mutant");
    vec![
        ("adder-16", adder.clone(), ks),
        (
            "mul-4",
            gen::array_multiplier(4),
            gen::carry_save_multiplier(4),
        ),
        (
            "popcount-12",
            gen::popcount_serial(12),
            gen::popcount_csa(12),
        ),
        (
            "shift-16",
            gen::barrel_shifter_log(16),
            gen::barrel_shifter_mux(16),
        ),
        ("parity-32", gen::parity_chain(32), gen::parity_tree(32)),
        ("adder-16-mutant", adder, mutant),
    ]
}

/// Whether random simulation tells `a` and `b` apart on some output.
fn differs(a: &Aig, b: &Aig) -> bool {
    let sigs = |g: &Aig| g.output_signatures(&g.simulate_random(8, 0x5EED));
    sigs(a) != sigs(b)
}

/// The engine configurations every pair runs under.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::default();
    vec![
        ("t1", base.clone()),
        (
            "t1-limit2",
            EngineConfig {
                pair_conflict_limit: Some(2),
                ..base.clone()
            },
        ),
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

/// The certificate fingerprint of one outcome.
fn fingerprint(outcome: &CecOutcome) -> String {
    let bytes = match outcome {
        CecOutcome::Equivalent(cert) => {
            let mut bytes = Vec::new();
            proof::export::write_tracecheck(
                cert.proof.as_ref().expect("proof recorded"),
                &mut bytes,
            )
            .expect("write to Vec");
            bytes
        }
        CecOutcome::Inequivalent { counterexample, .. } => counterexample
            .pattern
            .iter()
            .map(|&b| if b { b'1' } else { b'0' })
            .collect(),
    };
    obs::hash::fnv1a64_hex(&bytes)
}

#[test]
fn certificates_match_the_golden_table() {
    let ctx = SharedContext::disabled();
    let mut rows = Vec::new();
    for (pair, a, b) in pairs() {
        for (mode, config) in configs() {
            let outcome = Session::new(config, &ctx)
                .check(&a, &b)
                .unwrap_or_else(|e| panic!("{pair}/{mode}: {e}"));
            assert_eq!(
                outcome.is_equivalent(),
                !pair.ends_with("mutant"),
                "{pair}/{mode}: wrong verdict"
            );
            let s = outcome.stats();
            rows.push((
                format!("{pair}/{mode}"),
                fingerprint(&outcome),
                s.sat_calls,
                s.lemmas,
                s.refinements,
            ));
        }
    }
    let actual: Vec<(&str, &str, u64, u64, u64)> = rows
        .iter()
        .map(|(c, h, s, l, r)| (c.as_str(), h.as_str(), *s, *l, *r))
        .collect();
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(c, h, s, l, r)| format!("    ({c:?}, {h:?}, {s}, {l}, {r}),\n"))
            .collect();
        panic!("certificates moved; the current build computes:\n{table}");
    }
}
