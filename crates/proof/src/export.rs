//! Proof export in standard textual formats.
//!
//! - **TraceCheck** (`%RESL` traces as consumed by `tracecheck`): every
//!   step lists its clause and its antecedent ids. Original clauses have
//!   empty antecedent lists.
//! - **DRAT** (clausal): derived clauses only, in order; deletions are
//!   not emitted (the proofs here are already trimmed when it matters).
//!
//! Both use DIMACS literal conventions (1-based, sign = polarity).

use crate::Proof;
use std::io::{self, Write};

/// Writes the proof in TraceCheck format.
///
/// Step ids are 1-based in the output, matching the format's convention.
/// Numbers are formatted by hand into one reused buffer that goes to `w`
/// in ≈64 KB `write_all` calls, so `w` needs no buffering of its own.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::{export, Proof};
///
/// # fn main() -> std::io::Result<()> {
/// let mut p = Proof::new();
/// let x = Var::new(0);
/// let a = p.add_original([x.positive()]);
/// let b = p.add_original([x.negative()]);
/// p.add_derived([], [a, b]);
/// let mut out = Vec::new();
/// export::write_tracecheck(&p, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert_eq!(text.lines().count(), 3);
/// assert!(text.lines().last().unwrap().starts_with("3 "));
/// # Ok(())
/// # }
/// ```
pub fn write_tracecheck<W: Write>(proof: &Proof, mut w: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(FLUSH_AT + 4096);
    for (id, step) in proof.iter() {
        push_uint(&mut buf, id.index() + 1);
        buf.push(b' ');
        for l in step.clause {
            let d = l.to_dimacs();
            if d < 0 {
                buf.push(b'-');
            }
            push_uint(&mut buf, d.unsigned_abs());
            buf.push(b' ');
        }
        buf.extend_from_slice(b"0 ");
        for a in step.antecedents {
            push_uint(&mut buf, a.index() + 1);
            buf.push(b' ');
        }
        buf.extend_from_slice(b"0\n");
        if buf.len() >= FLUSH_AT {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

/// Bytes [`write_tracecheck`] gathers before each `write_all`.
const FLUSH_AT: usize = 64 * 1024;

/// Appends the decimal digits of `n`.
fn push_uint(buf: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Writes the derived clauses of the proof in DRAT format (additions
/// only, no deletions).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_drat<W: Write>(proof: &Proof, mut w: W) -> io::Result<()> {
    for (_, step) in proof.iter() {
        if step.is_original() {
            continue;
        }
        for l in step.clause {
            write!(w, "{} ", l.to_dimacs())?;
        }
        writeln!(w, "0")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClauseId;
    use cnf::{Lit, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Proof {
        let mut p = Proof::new();
        let x = Var::new(0);
        let y = Var::new(1);
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative()]);
        let d = p.add_derived([y.positive()], [c1, c2]);
        let c3 = p.add_original([y.negative()]);
        p.add_derived([], [d, c3]);
        p
    }

    #[test]
    fn tracecheck_layout() {
        let p = sample();
        let mut out = Vec::new();
        write_tracecheck(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // Original clause: `id lits 0 0`.
        assert_eq!(lines[0], "1 1 2 0 0");
        assert_eq!(lines[1], "2 -1 0 0");
        // Derived clause: `id lits 0 antecedents 0`.
        assert_eq!(lines[2], "3 2 0 1 2 0");
        // Empty clause line.
        assert_eq!(lines[4], "5 0 3 4 0");
    }

    /// The `fmt`-based writer `write_tracecheck` replaced, kept as the
    /// byte-for-byte reference.
    fn write_tracecheck_fmt<W: Write>(proof: &Proof, mut w: W) -> io::Result<()> {
        for (id, step) in proof.iter() {
            write!(w, "{} ", id.index() + 1)?;
            for l in step.clause {
                write!(w, "{} ", l.to_dimacs())?;
            }
            write!(w, "0 ")?;
            for a in step.antecedents {
                write!(w, "{} ", a.index() + 1)?;
            }
            writeln!(w, "0")?;
        }
        Ok(())
    }

    /// A seeded random proof: `originals` original clauses, then
    /// `derived` derived steps with antecedents among the earlier steps
    /// (the last one the empty clause). Variables range up to 2^21, so
    /// literals of every digit count and sign occur. The steps need not
    /// resolve; only their text matters here.
    fn random_proof(seed: u64, originals: usize, derived: usize) -> Proof {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Proof::new();
        let clause = |rng: &mut StdRng| -> Vec<Lit> {
            let len = rng.gen_range(0..6);
            (0..len)
                .map(|_| {
                    let bits = rng.gen_range(1..=21);
                    Var::new(rng.gen_range(0..1u32 << bits)).lit(rng.gen_bool(0.5))
                })
                .collect()
        };
        for _ in 0..originals {
            let c = clause(&mut rng);
            p.add_original(c);
        }
        for k in 0..derived {
            let n = p.len() as u32;
            let ants: Vec<ClauseId> = (0..rng.gen_range(1..8))
                .map(|_| ClauseId::new(rng.gen_range(0..n)))
                .collect();
            let c = if k + 1 == derived {
                Vec::new()
            } else {
                clause(&mut rng)
            };
            p.add_derived(c, ants);
        }
        p
    }

    fn steps(p: &Proof) -> Vec<(Vec<Lit>, Vec<ClauseId>)> {
        p.iter()
            .map(|(_, st)| (st.clause.to_vec(), st.antecedents.to_vec()))
            .collect()
    }

    fn assert_writers_agree(p: &Proof) {
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        write_tracecheck(p, &mut fast).unwrap();
        write_tracecheck_fmt(p, &mut reference).unwrap();
        assert!(fast == reference, "writers disagree");
        let back = crate::import::read_tracecheck(fast.as_slice()).unwrap();
        assert_eq!(steps(&back), steps(p));
    }

    #[test]
    fn tracecheck_writer_matches_fmt_reference() {
        assert_writers_agree(&Proof::new());
        assert_writers_agree(&sample());
        for seed in 0..20 {
            assert_writers_agree(&random_proof(seed, 40, 60));
            assert_writers_agree(&random_proof(seed, 25, 0)); // originals only
        }
    }

    #[test]
    fn tracecheck_writer_matches_fmt_reference_past_a_million_steps() {
        // Step ids and antecedents of seven digits, and many flushes.
        let p = random_proof(7, 1_000_000, 300);
        assert!(p.len() > 1_000_000);
        assert_writers_agree(&p);
    }

    /// Counts `write_all` calls and the largest chunk.
    #[derive(Default)]
    struct Chunks {
        calls: usize,
        largest: usize,
        bytes: usize,
    }

    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.largest = self.largest.max(buf.len());
            self.bytes += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn tracecheck_writer_flushes_in_large_chunks() {
        let p = random_proof(3, 20_000, 20_000);
        let mut sink = Chunks::default();
        write_tracecheck(&p, &mut sink).unwrap();
        assert!(sink.bytes > 4 * FLUSH_AT);
        assert!(
            sink.calls <= sink.bytes / FLUSH_AT + 1,
            "{} calls",
            sink.calls
        );
        assert!(sink.largest < FLUSH_AT + 4096);
    }

    #[test]
    fn drat_contains_only_derived() {
        let p = sample();
        let mut out = Vec::new();
        write_drat(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["2 0", "0"]);
    }
}
