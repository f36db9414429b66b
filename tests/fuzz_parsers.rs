//! Fuzz-style robustness tests for every persisted-artifact parser.
//!
//! Two attack surfaces, one contract: a parser fed hostile bytes must
//! return a parse error or a successful parse — it must never panic,
//! hang, or allocate absurdly. The first surface is fully random bytes;
//! the second is structure-aware mutation — take a byte-exact valid
//! artifact, then flip a bit, truncate it, or splice a line, which
//! lands much deeper in each grammar than noise ever does.
//!
//! `REGRESSIONS` pins inputs that broke (or nearly broke) a parser in
//! the past so the suite replays them forever, proptest or not.

use proptest::prelude::*;
use resolution_cec::aig::Aig;
use resolution_cec::aig::{aiger, gen};
use resolution_cec::cec::{
    miter_cnf, CecError, CecOutcome, EngineConfig, Miter, Session, SharedContext,
};
use resolution_cec::cnf::dimacs;
use resolution_cec::proof::{export, import};

/// One check of `a` against `b` under `config`.
fn check(config: EngineConfig, a: &Aig, b: &Aig) -> Result<CecOutcome, CecError> {
    Session::new(config, &SharedContext::disabled()).check(a, b)
}

/// Past panics and pathological headers, replayed on every run.
///
/// The first three target the AIGER header paths hardened against
/// oversized node counts (`M`/`I`/`A` fields near or past `MAX_NODES`
/// and `u64::MAX`); the rest probe truncation, NUL bytes, and
/// grammar-adjacent noise in all the text formats.
const REGRESSIONS: &[&[u8]] = &[
    b"aag 18446744073709551615 1 0 1 18446744073709551614",
    b"aag 999999999999 999999999999 0 1 0\n",
    b"aig 536870911 536870911 0 0 0\n",
    b"aag 3 1 0 1 2\n2\n4\n4 2 3\n",
    b"p cnf 4294967295 4294967295\n1 -1 0",
    b"p cnf 2 1\n1 \x00 2 0\n",
    b"1 1 2 0 0\n2 -1 0 1 0\n",
    b"d 1 2 3 0\n0\n",
    b"rounds 18446744073709551615\n",
    b"{\"format\":2,\"verdict\":\"equivalent\",\"share_structure\":true,\"entries\":[{\"file\":\"../x\",\"fnv\":\"0\"}]}\n",
    b"{\"format\":2,\"verdict\":\"inequivalent\",\"share_structure\":1,\"entries\":{}}",
    b"0110\x001\n",
    b"\xff\xfe\x00aag 1 1 0 1 0",
];

/// Feeds one byte string to every parser in the workspace. The test
/// is the absence of a panic; results are deliberately discarded.
fn feed_all_parsers(bytes: &[u8]) {
    let opts = lint::LintOptions::default();
    let _ = aiger::read(bytes);
    let _ = dimacs::read(bytes);
    let _ = import::read_tracecheck(bytes);
    let _ = lint::read_tracecheck(bytes, &opts);
    let _ = lint::lint_drat(bytes, None, &opts);
    let _ = chaos::parse_cex(bytes);
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = lint::CertificateInfo::parse(text);
        let _ = chaos::Manifest::parse(text);
    }
}

#[test]
fn regressions_never_panic() {
    for case in REGRESSIONS {
        feed_all_parsers(case);
    }
}

/// Byte-exact valid artifacts of every class, from one real engine run.
fn valid_artifacts() -> Vec<Vec<u8>> {
    let a = gen::ripple_carry_adder(3);
    let b = gen::carry_lookahead_adder(3);
    let outcome = check(EngineConfig::default(), &a, &b).unwrap();
    let cert = outcome.certificate().expect("adders are equivalent");
    let proof = cert.proof.as_ref().expect("proof logging is on");

    let mut aig_bytes = Vec::new();
    aiger::write_ascii(&a, &mut aig_bytes).unwrap();
    let miter = Miter::build(&a, &b, true);
    let mut cnf_bytes = Vec::new();
    dimacs::write(&miter_cnf(&miter), &mut cnf_bytes).unwrap();
    let mut tc_bytes = Vec::new();
    export::write_tracecheck(proof, &mut tc_bytes).unwrap();
    let mut drat_bytes = Vec::new();
    export::write_drat(proof, &mut drat_bytes).unwrap();
    let mut cert_bytes = Vec::new();
    cert.info().write(&mut cert_bytes).unwrap();
    let manifest = chaos::Manifest {
        equivalent: true,
        share_structure: true,
        entries: [
            ("a.aag", &aig_bytes),
            ("miter.cnf", &cnf_bytes),
            ("proof.tc", &tc_bytes),
        ]
        .into_iter()
        .map(|(name, bytes)| (name, obs::hash::fnv1a64_hex(bytes)))
        .collect(),
    };
    let manifest_bytes = manifest.render().into_bytes();
    let cex_bytes = chaos::write_cex(&[true, false, true, true, false, false]);
    vec![
        aig_bytes,
        cnf_bytes,
        tc_bytes,
        drat_bytes,
        cert_bytes,
        manifest_bytes,
        cex_bytes,
    ]
}

fn mutate(bytes: &mut Vec<u8>, op: u8, pos: usize, byte: u8) {
    if bytes.is_empty() {
        bytes.push(byte);
        return;
    }
    let pos = pos % bytes.len();
    match op % 4 {
        0 => bytes[pos] ^= 1 << (byte % 8),
        1 => bytes.truncate(pos),
        2 => bytes.insert(pos, byte),
        _ => {
            bytes.remove(pos);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Fully random bytes: noise must bounce off every parser.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        feed_all_parsers(&bytes);
    }

    /// Structure-aware: start from valid artifacts and damage them a
    /// little — the parsers must still return, not panic.
    #[test]
    fn mutated_valid_artifacts_never_panic(
        op1 in any::<u8>(),
        pos1 in any::<usize>(),
        byte1 in any::<u8>(),
        op2 in any::<u8>(),
        pos2 in any::<usize>(),
        byte2 in any::<u8>(),
    ) {
        for mut artifact in valid_artifacts() {
            mutate(&mut artifact, op1, pos1, byte1);
            mutate(&mut artifact, op2, pos2, byte2);
            feed_all_parsers(&artifact);
        }
    }

    /// ASCII-biased noise reaches deeper grammar states than raw bytes
    /// (headers parse, then counts/literals go wrong).
    #[test]
    fn ascii_noise_never_panics(
        head in 0usize..5,
        body in prop::collection::vec(0u8..128, 0..256),
    ) {
        let mut bytes: Vec<u8> =
            [&b"aag "[..], &b"p cnf "[..], &b"1 "[..], &b"d "[..], &b""[..]][head].to_vec();
        bytes.extend_from_slice(&body);
        feed_all_parsers(&bytes);
    }
}
