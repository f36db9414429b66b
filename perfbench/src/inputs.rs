//! Seeded workload inputs. The program under test only ever sees the
//! ASCII AIGER text made here; the expected verdict of every pair is
//! known from how it was built.

use crate::rng::Rng;
use aig::gen::{family_pair, mutate};
use aig::Aig;

/// One query: two circuits as ASCII AIGER and the verdict they must get.
#[derive(Clone, Debug)]
pub struct Case {
    pub label: String,
    pub a: String,
    pub b: String,
    pub expect_equivalent: bool,
}

/// A circuit family of a proving workload and the widths it is used at.
pub struct Family {
    pub name: &'static str,
    pub widths: &'static [usize],
}

/// `prove-cex`: equivalence-rich pairs whose sweeps are dominated by
/// satisfiable (counterexample) SAT calls.
pub const PROVE_CEX: &[Family] = &[
    Family {
        name: "adder",
        widths: &[64, 80, 96, 112, 128],
    },
    Family {
        name: "bk",
        widths: &[64, 80, 96, 112, 128],
    },
    Family {
        name: "cmp",
        widths: &[64, 80, 96, 112, 128],
    },
    Family {
        name: "penc",
        widths: &[64, 80, 96, 112, 128],
    },
];

/// `prove-unsat`: conflict-heavy pairs with large certificates and few
/// counterexample calls.
pub const PROVE_UNSAT: &[Family] = &[
    Family {
        name: "mul",
        widths: &[5, 6],
    },
    Family {
        name: "popcount",
        widths: &[16, 20, 24],
    },
    Family {
        name: "shift",
        widths: &[32, 48, 64],
    },
];

/// The t7 mixed-hardness zoo: the resident pool of `serve-mix`. A copy
/// of the load generator's list, so the benchmark depends only on the
/// layers it measures.
pub const ZOO: &[(&str, usize)] = &[
    ("adder", 16),
    ("bk", 24),
    ("parity", 24),
    ("popcount", 12),
    ("cmp", 12),
    ("penc", 16),
    ("mul", 4),
];

const SIM_WORDS: usize = 4;
const SIM_SEED: u64 = 0xD1FF;
const MUTANT_TRIES: u64 = 64;

pub fn aiger(g: &Aig) -> String {
    let mut v = Vec::new();
    aig::aiger::write_ascii(g, &mut v).expect("write to Vec cannot fail");
    String::from_utf8(v).expect("ASCII AIGER is UTF-8")
}

pub fn pair(family: &str, width: usize) -> (Aig, Aig) {
    family_pair(family, width).expect("benchmark families are known")
}

/// Whether random simulation tells `a` and `b` apart.
fn separated(a: &Aig, b: &Aig) -> bool {
    a.output_signatures(&a.simulate_random(SIM_WORDS, SIM_SEED))
        != b.output_signatures(&b.simulate_random(SIM_WORDS, SIM_SEED))
}

/// A seeded one-gate mutant of `b` that simulation separates from `a`.
/// Mutant seeds that simulation cannot separate are skipped in order, so
/// the choice is deterministic; `None` if none of the tries separates.
pub fn confirmed_mutant(a: &Aig, b: &Aig, seed: u64) -> Option<Aig> {
    (0..MUTANT_TRIES)
        .filter_map(|i| mutate(b, seed.wrapping_add(i)))
        .find(|m| separated(a, m))
}

/// Renumbered copies of every pair; a cell serves them in turn.
const RENUMBERINGS: usize = 4;

/// The seeded case stream of a proving workload. Every (family, width)
/// cell gets [`RENUMBERINGS`] copies of its pair whose circuits are
/// renumbered by seeded `permute_rebuild`s (so each seed gives the
/// program different bytes), and one confirmed inequivalent mutant. The
/// stream runs in cycles of every cell's pair plus `mutants_per_cycle`
/// mutants, rotating through the cells, in a seeded order: every cycle
/// has the same mix of sizes whatever the seed.
pub struct ProveStream {
    pairs: Vec<Vec<Case>>,
    mutants: Vec<Case>,
    mutants_per_cycle: usize,
    rng: Rng,
    cycle: usize,
    /// The rest of the current cycle: `(is_mutant, index)`.
    order: Vec<(bool, usize)>,
}

impl ProveStream {
    /// Generates every cell's pairs and mutant.
    pub fn new(families: &'static [Family], mutants_per_cycle: usize, seed: u64) -> ProveStream {
        let mut rng = Rng::new(seed);
        let (mut pairs, mut mutants) = (Vec::new(), Vec::new());
        for family in families {
            for &width in family.widths {
                let (a, b) = pair(family.name, width);
                let label = format!("{}-{width}", family.name);
                let copies: Vec<Case> = (0..RENUMBERINGS)
                    .map(|_| Case {
                        label: label.clone(),
                        a: aiger(&a.permute_rebuild(rng.next_u64())),
                        b: aiger(&b.permute_rebuild(rng.next_u64())),
                        expect_equivalent: true,
                    })
                    .collect();
                if let Some(m) = confirmed_mutant(&a, &b, rng.next_u64()) {
                    mutants.push(Case {
                        label: format!("{label}/mutant"),
                        a: copies[0].a.clone(),
                        b: aiger(&m.permute_rebuild(rng.next_u64())),
                        expect_equivalent: false,
                    });
                }
                pairs.push(copies);
            }
        }
        ProveStream {
            pairs,
            mutants,
            mutants_per_cycle,
            rng,
            cycle: 0,
            order: Vec::new(),
        }
    }

    pub fn next_case(&mut self) -> &Case {
        if self.order.is_empty() {
            let first = self.cycle * self.mutants_per_cycle;
            self.order = (0..self.pairs.len()).map(|i| (false, i)).collect();
            self.order.extend(
                (first..first + self.mutants_per_cycle).map(|k| (true, k % self.mutants.len())),
            );
            self.rng.shuffle(&mut self.order);
            self.cycle += 1;
        }
        match self.order.pop().expect("a non-empty cycle") {
            (true, k) => &self.mutants[k],
            (false, i) => &self.pairs[i][self.cycle % RENUMBERINGS],
        }
    }
}
