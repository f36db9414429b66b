//! The output correctness gate. A verdict counts only after it is
//! checked here, independently of the engine that produced it:
//!
//! - the verdict must be the one the pair was built to have;
//! - an equivalence certificate is re-imported from its TraceCheck
//!   bytes, replayed with `proof::check::check_refutation`, and every
//!   original clause must be a clause of the pair's miter CNF (the
//!   binding the certificate cache's validator uses), so a certificate
//!   for some other formula cannot pass;
//! - a counterexample must re-simulate to different outputs on the two
//!   circuits.

use aig::Aig;
use cec::{miter_cnf, Miter};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the program answered for one pair.
pub enum Answer<'a> {
    Equivalent { tracecheck: &'a [u8] },
    Inequivalent { pattern: &'a [bool] },
}

/// Checks `answer` for the pair `(a, b)` whose expected verdict is
/// `expect_equivalent`, adding the time spent in the proof layer
/// (import plus replay) to `proof_time`. `Err` names why the answer
/// must count as an error.
pub fn check(
    a: &Aig,
    b: &Aig,
    expect_equivalent: bool,
    answer: &Answer<'_>,
    proof_time: &mut Duration,
) -> Result<(), String> {
    match *answer {
        Answer::Equivalent { tracecheck } => {
            if !expect_equivalent {
                return Err("equivalent verdict for an inequivalent pair".into());
            }
            let t0 = Instant::now();
            let p = proof::import::read_tracecheck(tracecheck)
                .map_err(|e| format!("certificate does not parse: {e}"))?;
            proof::check::check_refutation(&p).map_err(|e| format!("certificate rejected: {e}"))?;
            *proof_time += t0.elapsed();
            bind_to_miter(a, b, &p)
        }
        Answer::Inequivalent { pattern } => {
            if expect_equivalent {
                return Err("inequivalent verdict for an equivalent pair".into());
            }
            if pattern.len() != a.num_inputs() {
                return Err("counterexample has the wrong width".into());
            }
            if a.evaluate(pattern) == b.evaluate(pattern) {
                return Err("counterexample does not distinguish the circuits".into());
            }
            Ok(())
        }
    }
}

/// Every original step of `p` must occur, as a literal multiset, among
/// the clauses of the miter CNF of `(a, b)`.
fn bind_to_miter(a: &Aig, b: &Aig, p: &proof::Proof) -> Result<(), String> {
    let formula = miter_cnf(&Miter::build(a, b, true));
    let mut available: HashMap<Vec<cnf::Lit>, usize> = HashMap::new();
    for c in formula.clauses() {
        let mut k = c.clone();
        k.sort_unstable_by_key(|l| l.to_dimacs());
        *available.entry(k).or_insert(0) += 1;
    }
    for (id, step) in p.iter() {
        if !step.is_original() {
            continue;
        }
        let mut k = step.clause.to_vec();
        k.sort_unstable_by_key(|l| l.to_dimacs());
        match available.get_mut(&k) {
            Some(n) if *n > 0 => *n -= 1,
            _ => return Err(format!("original step {id:?} is not a miter clause")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{confirmed_mutant, pair};
    use crate::stats::Tally;

    fn certificate(a: &Aig, b: &Aig) -> Vec<u8> {
        let ctx = cec::SharedContext::disabled();
        let outcome = cec::Session::new(cec::EngineConfig::default(), &ctx)
            .check(a, b)
            .unwrap();
        let cert = outcome.certificate().expect("equivalent pair");
        let mut bytes = Vec::new();
        proof::export::write_tracecheck(cert.proof.as_ref().unwrap(), &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn a_sound_certificate_passes() {
        let (a, b) = pair("adder", 8);
        let bytes = certificate(&a, &b);
        let answer = Answer::Equivalent { tracecheck: &bytes };
        assert_eq!(
            check(&a, &b, true, &answer, &mut Duration::default()),
            Ok(())
        );
    }

    /// Flips the first literal of the first chain-resolution step (a
    /// non-empty clause derived from two or more antecedents), so the
    /// chain no longer resolves to the recorded clause.
    fn corrupt(tracecheck: &[u8]) -> String {
        let text = std::str::from_utf8(tracecheck).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let step = lines
            .iter()
            .position(|l| {
                let toks: Vec<&str> = l.split_whitespace().collect();
                let zero = 1 + toks[1..].iter().position(|t| *t == "0").unwrap();
                zero > 1 && toks.len() - zero - 2 >= 2
            })
            .expect("a chain-resolution step");
        let mut toks: Vec<String> = lines[step].split_whitespace().map(str::to_string).collect();
        let lit: i64 = toks[1].parse().unwrap();
        toks[1] = (-lit).to_string();
        lines[step] = toks.join(" ");
        lines.join("\n") + "\n"
    }

    /// A pattern on which `a` and `m` agree.
    fn agreeing_pattern(a: &Aig, m: &Aig) -> Vec<bool> {
        let n = a.num_inputs();
        (0..1u32 << n)
            .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect::<Vec<bool>>())
            .find(|p| a.evaluate(p) == m.evaluate(p))
            .expect("a pattern the circuits agree on")
    }

    #[test]
    fn a_corrupted_certificate_is_an_error() {
        let (a, b) = pair("adder", 8);
        let corrupted = corrupt(&certificate(&a, &b));
        let answer = Answer::Equivalent {
            tracecheck: corrupted.as_bytes(),
        };
        let e = check(&a, &b, true, &answer, &mut Duration::default()).unwrap_err();
        assert!(e.starts_with("certificate rejected"), "{e}");
    }

    #[test]
    fn a_certificate_for_another_pair_is_an_error() {
        let (a, b) = pair("adder", 8);
        let (c, d) = pair("bk", 8);
        let bytes = certificate(&c, &d);
        let answer = Answer::Equivalent { tracecheck: &bytes };
        assert!(check(&a, &b, true, &answer, &mut Duration::default()).is_err());
    }

    #[test]
    fn a_non_distinguishing_pattern_is_an_error() {
        let (a, b) = pair("adder", 8);
        let m = confirmed_mutant(&a, &b, 1).expect("a separable mutant");
        let same = agreeing_pattern(&a, &m);
        let answer = Answer::Inequivalent { pattern: &same };
        assert!(check(&a, &m, false, &answer, &mut Duration::default()).is_err());
        let differs = aig::sim::exhaustive_diff(&a, &m, 16).expect("inequivalent");
        let answer = Answer::Inequivalent { pattern: &differs };
        assert_eq!(
            check(&a, &m, false, &answer, &mut Duration::default()),
            Ok(())
        );
    }

    /// The benchmark self-test: one corrupted certificate and one
    /// non-distinguishing counterexample among sound answers must each
    /// count as an error in the tally that `error_rate` reads.
    #[test]
    fn gate_failures_feed_the_error_rate() {
        let (a, b) = pair("adder", 8);
        let m = confirmed_mutant(&a, &b, 1).expect("a separable mutant");
        let sound = certificate(&a, &b);
        let corrupted = corrupt(&sound);
        let differs = aig::sim::exhaustive_diff(&a, &m, 16).expect("inequivalent");
        let same = agreeing_pattern(&a, &m);
        let mut times = Duration::default();
        let mut tally = Tally::default();
        let answers = [
            Answer::Equivalent { tracecheck: &sound },
            Answer::Equivalent {
                tracecheck: corrupted.as_bytes(),
            },
        ];
        for answer in &answers {
            tally.record(check(&a, &b, true, answer, &mut times));
        }
        tally.record(check(
            &a,
            &m,
            false,
            &Answer::Inequivalent { pattern: &differs },
            &mut times,
        ));
        tally.record(check(
            &a,
            &m,
            false,
            &Answer::Inequivalent { pattern: &same },
            &mut times,
        ));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
    }

    #[test]
    fn a_wrong_verdict_is_an_error() {
        let (a, b) = pair("adder", 8);
        let bytes = certificate(&a, &b);
        let eq = Answer::Equivalent { tracecheck: &bytes };
        assert!(check(&a, &b, false, &eq, &mut Duration::default()).is_err());
        let ne = Answer::Inequivalent {
            pattern: &[false; 16],
        };
        assert!(check(&a, &b, true, &ne, &mut Duration::default()).is_err());
    }
}
