//! Simulation-guided candidate equivalence classes.
//!
//! Random bit-parallel simulation partitions the miter's nodes into
//! classes of equal (up to complement) signatures. The classes are the
//! SAT sweeper's worklist: only nodes sharing a class are ever submitted
//! to the solver. Counterexamples returned by the solver feed back as
//! additional simulation patterns and *refine* the classes, so each
//! failed SAT call strictly shrinks future work.

use aig::{Aig, NodeId};

/// Candidate equivalence classes over the nodes of one AIG.
///
/// Each class holds nodes in topological (index) order; the first member
/// is the class *leader*. Each member carries a phase bit: `phase`
/// distinguishes candidates for `n ≡ leader` from `n ≡ ¬leader`.
#[derive(Clone, Debug)]
pub struct SimClasses {
    classes: Vec<Vec<NodeId>>,
    /// Indices of the classes that had at least two members when last
    /// looked at; classes shrunk by [`SimClasses::remove`] since then are
    /// dropped lazily, so scans never revisit dead classes.
    live: Vec<u32>,
    /// `membership[node] = Some((class, phase))`.
    membership: Vec<Option<(u32, bool)>>,
    /// Normalization phase per node: LSB of the node's first signature
    /// word. Two nodes are candidates iff their phase-normalized
    /// signatures agree; `phase(n) ^ phase(m)` is the complement bit of
    /// the candidate equivalence.
    phase: Vec<bool>,
}

impl SimClasses {
    /// Builds initial classes from `words` random simulation words.
    ///
    /// Only classes with at least two members are kept; the constant
    /// node participates like any other node, so "equivalent to
    /// constant" candidates are ordinary class members.
    pub fn from_random_simulation(graph: &Aig, words: usize, seed: u64) -> SimClasses {
        let sigs = graph.simulate_random(words.max(1), seed);
        let mut canon: Vec<Vec<u64>> = Vec::with_capacity(sigs.len());
        let mut phase = Vec::with_capacity(sigs.len());
        for sig in &sigs {
            let p = sig[0] & 1 == 1;
            let mask = if p { !0u64 } else { 0 };
            canon.push(sig.iter().map(|w| w ^ mask).collect());
            phase.push(p);
        }
        let mut by_sig: std::collections::HashMap<&[u64], Vec<NodeId>> =
            std::collections::HashMap::new();
        #[allow(clippy::needless_range_loop)] // canon and phase are parallel to node ids
        for idx in 0..graph.len() {
            by_sig
                .entry(canon[idx].as_slice())
                .or_default()
                .push(NodeId::new(idx as u32));
        }
        let mut classes: Vec<Vec<NodeId>> = by_sig
            .into_values()
            .filter(|members| members.len() >= 2)
            .collect();
        // Deterministic order: by leader index.
        for members in &mut classes {
            members.sort_unstable();
        }
        classes.sort_by_key(|m| m[0]);
        let mut membership = vec![None; graph.len()];
        for (ci, members) in classes.iter().enumerate() {
            for &n in members {
                membership[n.as_usize()] = Some((ci as u32, phase[n.as_usize()]));
            }
        }
        SimClasses {
            live: (0..classes.len() as u32).collect(),
            classes,
            membership,
            phase,
        }
    }

    /// The live (≥2 member) classes.
    fn live_classes(&self) -> impl Iterator<Item = &Vec<NodeId>> + '_ {
        self.live
            .iter()
            .map(|&c| &self.classes[c as usize])
            .filter(|c| c.len() >= 2)
    }

    /// Number of (live, ≥2 member) classes.
    pub fn num_classes(&self) -> usize {
        self.live_classes().count()
    }

    /// Total number of nodes in live classes.
    pub fn num_candidates(&self) -> usize {
        self.live_classes().map(Vec::len).sum()
    }

    /// The class and phase of `n`, if it is in a live class.
    pub fn class_of(&self, n: NodeId) -> Option<(u32, bool)> {
        let (c, p) = self.membership[n.as_usize()]?;
        if self.classes[c as usize].len() >= 2 {
            Some((c, p))
        } else {
            None
        }
    }

    /// The leader (topologically first member) of class `c`.
    ///
    /// # Panics
    ///
    /// Panics if the class index is out of range or the class is empty.
    pub fn leader(&self, c: u32) -> NodeId {
        self.classes[c as usize][0]
    }

    /// The phase bit of node `n` (complement normalization).
    pub fn phase(&self, n: NodeId) -> bool {
        self.phase[n.as_usize()]
    }

    /// Candidate target for `n`: the leader `m` of `n`'s class and the
    /// complement bit `c` such that the candidate equivalence is
    /// `n ≡ m ^ c`. Returns `None` if `n` is a leader or unclassed.
    pub fn candidate(&self, n: NodeId) -> Option<(NodeId, bool)> {
        let (c, pn) = self.class_of(n)?;
        let m = self.leader(c);
        if m == n {
            return None;
        }
        Some((m, pn ^ self.phase[m.as_usize()]))
    }

    /// Whether `a` and `b` are members of the same live class.
    pub(crate) fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        matches!(
            (self.class_of(a), self.class_of(b)),
            (Some((x, _)), Some((y, _))) if x == y
        )
    }

    /// Removes `n` from its class (after it has been merged or refuted
    /// for good). Classes shrinking below two members become inert.
    pub fn remove(&mut self, n: NodeId) {
        if let Some((c, _)) = self.membership[n.as_usize()].take() {
            self.classes[c as usize].retain(|&m| m != n);
        }
    }

    /// Refines every class with 64 input patterns at once: `words[i]`
    /// holds input `i`'s value in each of the 64 patterns, one per bit (a
    /// single pattern is a word with all 64 bits equal). Each live class
    /// is regrouped by its members' phase-normalized signature words: the
    /// group holding the leader keeps the class, every other group of at
    /// least two members becomes a new class, and singletons leave the
    /// classes altogether.
    ///
    /// Returns the number of classes that were split.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != graph.num_inputs()`.
    pub fn refine_with_words(&mut self, graph: &Aig, words: &[u64]) -> usize {
        let sig = graph.simulate_word(words);
        let mut splits = 0;
        // `(normalized signature word, member)` of the class being regrouped.
        let mut keyed: Vec<(u64, NodeId)> = Vec::new();
        let old_live = std::mem::take(&mut self.live);
        for ci in old_live {
            let members = &self.classes[ci as usize];
            if members.len() < 2 {
                continue; // shrunk by `remove` since the last scan
            }
            let key = |n: NodeId| {
                let mask = if self.phase[n.as_usize()] { !0u64 } else { 0 };
                sig[n.as_usize()] ^ mask
            };
            let leader_key = key(members[0]);
            if members.iter().all(|&n| key(n) == leader_key) {
                self.live.push(ci);
                continue;
            }
            splits += 1;
            keyed.clear();
            keyed.extend(members.iter().map(|&n| (key(n), n)));
            // Stable: each group stays in topological order.
            keyed.sort_by_key(|&(k, _)| k);
            let mut stay = Vec::new();
            for group in keyed.chunk_by(|x, y| x.0 == y.0) {
                let nodes = group.iter().map(|&(_, n)| n);
                if group[0].0 == leader_key {
                    stay.extend(nodes);
                } else if group.len() == 1 {
                    self.membership[group[0].1.as_usize()] = None;
                } else {
                    let new_ci = self.classes.len() as u32;
                    for (_, n) in group {
                        if let Some(m) = &mut self.membership[n.as_usize()] {
                            m.0 = new_ci;
                        }
                    }
                    self.classes.push(nodes.collect());
                    self.live.push(new_ci);
                }
            }
            if stay.len() >= 2 {
                self.live.push(ci);
            }
            self.classes[ci as usize] = stay;
        }
        splits
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::miter::Miter;
    use aig::gen::{kogge_stone_adder, ripple_carry_adder};

    fn adder_miter() -> Miter {
        Miter::build(&ripple_carry_adder(4), &kogge_stone_adder(4), true)
    }

    #[test]
    fn adder_miter_has_many_candidates() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 1);
        // Adders in different architectures share many internal signals.
        assert!(classes.num_classes() > 4, "{}", classes.num_classes());
        assert!(classes.num_candidates() > 10);
    }

    #[test]
    fn candidates_are_simulation_consistent() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 2);
        // Every candidate pair must agree on fresh patterns too
        // (they are *functionally* equivalent for adders, which the
        // sweeping engine will prove).
        let fresh = m.graph.simulate_random(4, 999);
        for idx in 0..m.graph.len() {
            let n = NodeId::new(idx as u32);
            if let Some((leader, compl)) = classes.candidate(n) {
                let mask = if compl { !0u64 } else { 0 };
                for w in 0..4 {
                    assert_eq!(
                        fresh[n.as_usize()][w],
                        fresh[leader.as_usize()][w] ^ mask,
                        "node {n} vs leader {leader}"
                    );
                }
            }
        }
    }

    #[test]
    fn refinement_splits_on_distinguishing_pattern() {
        // Two functions equal on pattern 00 but different on 11: x&y vs x|y.
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let and = g.and(x, y);
        let or = g.or(x, y);
        g.add_output(and);
        g.add_output(or);
        // Seed a simulation that happens to equate them: use a pattern
        // set where x == y on every bit. Craft manually via one word of
        // patterns 00 and 11 only: we emulate by building classes from a
        // single word simulation with seed chosen so they collide; if
        // they don't collide there is nothing to refine — so instead
        // build the class by hand through refinement of a collision.
        let mut classes = SimClasses::from_random_simulation(&g, 1, 0);
        // Whatever the initial classes, refining with a distinguishing
        // pattern must never leave `and` and `or` in the same class.
        classes.refine_with_words(&g, &[!0, 0]);
        let ca = classes.class_of(and.node());
        let co = classes.class_of(or.node());
        if let (Some((ca, _)), Some((co, _))) = (ca, co) {
            assert_ne!(ca, co, "x&y and x|y distinguished by pattern 10");
        }
    }

    #[test]
    fn distance_one_words_split_classes_and_drop_singletons() {
        // c_i is true only where input i is the one zero input, so random
        // simulation puts every c_i (and its unshared twin) in the
        // constant class; distance-1 flips of the all-ones pattern give
        // each twin pair its own signature bit.
        let n = 20;
        let mut g = Aig::new();
        let inputs = g.add_inputs(n);
        let mut twins = Vec::new();
        for i in 0..n {
            let lits: Vec<aig::Lit> = (0..n)
                .map(|j| if i == j { !inputs[j] } else { inputs[j] })
                .collect();
            let a = lits[1..]
                .iter()
                .fold(lits[0], |acc, &l| g.and_unshared(acc, l));
            let b = lits[1..]
                .iter()
                .fold(lits[0], |acc, &l| g.and_unshared(acc, l));
            g.add_output(a);
            g.add_output(b);
            twins.push((a.node(), b.node()));
        }
        let mut classes = SimClasses::from_random_simulation(&g, 1, 7);
        assert!(twins.iter().all(|&(a, b)| classes.same_class(a, b)));
        assert!(classes.same_class(twins[0].0, twins[1].0));
        let mut words = vec![!0u64; n];
        for (j, w) in words.iter_mut().enumerate() {
            *w ^= 1 << (j + 1);
        }
        assert!(classes.refine_with_words(&g, &words) > 0);
        for (i, &(a, b)) in twins.iter().enumerate() {
            assert!(classes.same_class(a, b), "twins {i} stay together");
            for &(c, _) in &twins[i + 1..] {
                assert!(!classes.same_class(a, c), "c_{i} split from the others");
            }
        }
        // The counts see exactly the classes that still have two members.
        let mut live = std::collections::BTreeMap::new();
        for idx in 0..g.len() as u32 {
            if let Some((c, _)) = classes.class_of(NodeId::new(idx)) {
                *live.entry(c).or_insert(0usize) += 1;
            }
        }
        assert_eq!(classes.num_classes(), live.len());
        assert_eq!(classes.num_candidates(), live.values().sum::<usize>());
        // A second refinement with the same words splits nothing.
        assert_eq!(classes.refine_with_words(&g, &words), 0);
    }

    #[test]
    fn remove_disbands_small_classes() {
        let m = adder_miter();
        let mut classes = SimClasses::from_random_simulation(&m.graph, 8, 3);
        // Find a live class of exactly two members and remove one.
        let two: Vec<NodeId> = (0..m.graph.len() as u32)
            .map(NodeId::new)
            .filter(|&n| classes.class_of(n).is_some())
            .collect();
        let victim = *two.last().unwrap();
        classes.remove(victim);
        assert!(classes.class_of(victim).is_none());
    }

    #[test]
    fn candidate_of_leader_is_none() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 4);
        for idx in 0..m.graph.len() as u32 {
            let n = NodeId::new(idx);
            if let Some((c, _)) = classes.class_of(n) {
                if classes.leader(c) == n {
                    assert!(classes.candidate(n).is_none());
                }
            }
        }
    }
}
