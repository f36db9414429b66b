//! Clause storage: one flat arena.
//!
//! Every clause is a header of [`HEADER`] words followed by its literals
//! and, for a learnt clause, a tail of [`LEARNT_TAIL`] words; all in one
//! `Vec<Lit>`, in insertion order. A [`ClauseRef`] is the offset of a
//! clause's header, so a watch visit reads the header and the literals
//! from one contiguous run of memory. Header and tail words are stored as
//! literal codes (`Lit::from_code`), which keeps the arena a plain
//! literal slice: [`ClauseDb::lits`] hands out `&[Lit]` without any
//! reinterpretation.
//!
//! Layout (one `u32` per word):
//!
//! | word | contents |
//! |---|---|
//! | header 0 | `len << 2 \| deleted << 1 \| learnt` |
//! | header 1 | proof step id, [`NO_ID`] when not logging (after compaction: forwarding offset) |
//! | `len` words | the literals |
//! | tail 0 (learnt only) | activity (`f32::to_bits`) |
//! | tail 1 (learnt only) | LBD |
//!
//! Deleting a clause only sets its flag; the words stay until
//! [`ClauseDb::compact`] copies the live clauses, in order, into a fresh
//! arena. Compaction never reorders clauses, so every scan in insertion
//! order (reduction's stable sort, [`ClauseDb::live_iter`], the learnt
//! export cursor) sees the same sequence before and after it.

use cnf::Lit;
use proof::ClauseId;
use std::num::NonZeroU32;

/// Header words per clause.
const HEADER: usize = 2;
/// Words after the literals of a learnt clause: activity and LBD.
const LEARNT_TAIL: usize = 2;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;
/// Proof-id word of a clause without a proof step.
const NO_ID: u32 = u32::MAX;
/// [`ClauseDb::wants_compaction`] fires once deleted clauses hold more
/// than this share (in percent) of the arena.
const MAX_WASTE_PERCENT: usize = 20;

/// Reference to a clause in the [`ClauseDb`]: its arena offset, stored
/// plus one so that `Option<ClauseRef>` (the per-variable reason) takes
/// four bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(NonZeroU32);

impl ClauseRef {
    #[inline]
    pub(crate) fn new(offset: usize) -> Self {
        let code = u32::try_from(offset + 1).expect("clause arena exceeds 2^32 words");
        ClauseRef(NonZeroU32::new(code).expect("offset + 1 is nonzero"))
    }

    #[inline]
    fn offset(self) -> usize {
        self.0.get() as usize - 1
    }
}

#[inline]
fn word(x: u32) -> Lit {
    Lit::from_code(x)
}

/// Arena words of a clause whose first header word is `flags`.
#[inline]
fn span(flags: u32) -> usize {
    let tail = if flags & LEARNT != 0 { LEARNT_TAIL } else { 0 };
    HEADER + (flags >> 2) as usize + tail
}

/// The solver's clause database: original (permanent) and learnt
/// (reducible) clauses, each carrying its proof step id when proof
/// logging is enabled.
#[derive(Debug)]
pub struct ClauseDb {
    arena: Vec<Lit>,
    num_live: usize,
    num_learnt: usize,
    /// Arena words held by deleted clauses.
    wasted: usize,
    /// Compaction threshold in percent of the arena; fixed at
    /// [`MAX_WASTE_PERCENT`] outside this crate's tests.
    max_waste_percent: usize,
    compactions: u64,
}

impl Default for ClauseDb {
    fn default() -> Self {
        ClauseDb {
            arena: Vec::new(),
            num_live: 0,
            num_learnt: 0,
            wasted: 0,
            max_waste_percent: MAX_WASTE_PERCENT,
            compactions: 0,
        }
    }
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Adds a clause; `learnt` clauses are eligible for reduction.
    pub fn add(&mut self, lits: &[Lit], learnt: bool, proof_id: Option<ClauseId>) -> ClauseRef {
        let r = ClauseRef::new(self.arena.len());
        let len = u32::try_from(lits.len()).expect("clause too long");
        assert!(len < 1 << 30, "clause too long");
        self.arena.extend_from_slice(&[
            word(len << 2 | if learnt { LEARNT } else { 0 }),
            word(proof_id.map_or(NO_ID, ClauseId::index)),
        ]);
        self.arena.extend_from_slice(lits);
        self.num_live += 1;
        if learnt {
            self.arena
                .extend_from_slice(&[word(0f32.to_bits()), word(0)]);
            self.num_learnt += 1;
        }
        r
    }

    #[inline]
    fn flags(&self, r: ClauseRef) -> u32 {
        self.arena[r.offset()].code()
    }

    #[inline]
    fn len_of(&self, r: ClauseRef) -> usize {
        (self.flags(r) >> 2) as usize
    }

    /// Offset of the learnt tail of `r`.
    #[inline]
    fn tail(&self, r: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(r), "only learnt clauses have a tail");
        r.offset() + HEADER + self.len_of(r)
    }

    /// The literals of a clause. The first two are the watched ones.
    #[inline]
    pub fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = r.offset() + HEADER;
        &self.arena[start..start + self.len_of(r)]
    }

    /// Mutable literals of a live clause (for watch reordering), or
    /// `None` if the clause is deleted: one header read for both.
    #[inline]
    pub fn live_lits_mut(&mut self, r: ClauseRef) -> Option<&mut [Lit]> {
        let flags = self.flags(r);
        if flags & DELETED != 0 {
            return None;
        }
        let start = r.offset() + HEADER;
        Some(&mut self.arena[start..start + (flags >> 2) as usize])
    }

    /// The proof step that introduced this clause, if logging.
    #[inline]
    pub fn proof_id(&self, r: ClauseRef) -> Option<ClauseId> {
        let id = self.arena[r.offset() + 1].code();
        (id != NO_ID).then(|| ClauseId::new(id))
    }

    /// Whether the clause was learnt (reducible).
    #[inline]
    pub fn is_learnt(&self, r: ClauseRef) -> bool {
        self.flags(r) & LEARNT != 0
    }

    /// Whether the clause has been deleted.
    #[inline]
    pub fn is_deleted(&self, r: ClauseRef) -> bool {
        self.flags(r) & DELETED != 0
    }

    /// Marks a clause deleted. Its words are reclaimed at the next
    /// [`ClauseDb::compact`].
    pub fn delete(&mut self, r: ClauseRef) {
        debug_assert!(!self.is_deleted(r));
        let flags = self.flags(r);
        self.arena[r.offset()] = word(flags | DELETED);
        self.wasted += self.next(r) - r.offset();
        self.num_live -= 1;
        if flags & LEARNT != 0 {
            self.num_learnt -= 1;
        }
    }

    /// Glue (LBD) of a learnt clause.
    #[inline]
    pub fn lbd(&self, r: ClauseRef) -> u32 {
        self.arena[self.tail(r) + 1].code()
    }

    /// Sets the glue (LBD) of a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        let t = self.tail(r);
        self.arena[t + 1] = word(lbd);
    }

    /// Activity of a learnt clause (for reduction ordering).
    #[inline]
    pub fn activity(&self, r: ClauseRef) -> f32 {
        f32::from_bits(self.arena[self.tail(r)].code())
    }

    fn set_activity(&mut self, r: ClauseRef, a: f32) {
        let t = self.tail(r);
        self.arena[t] = word(a.to_bits());
    }

    /// Bumps a learnt clause's activity; returns true if a global rescale
    /// of all activities is needed (caller then calls [`ClauseDb::rescale`]).
    pub fn bump(&mut self, r: ClauseRef, inc: f32) -> bool {
        let a = self.activity(r) + inc;
        self.set_activity(r, a);
        a >= 1e20
    }

    /// Rescales all learnt clause activities by `factor`.
    pub fn rescale(&mut self, factor: f32) {
        let mut o = 0;
        while o < self.arena.len() {
            let r = ClauseRef::new(o);
            if self.is_learnt(r) {
                self.set_activity(r, self.activity(r) * factor);
            }
            o = self.next(r);
        }
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Number of live clauses.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.num_live
    }

    /// Arena length in words. Clause offsets lie below it, in insertion
    /// order — the basis of cursor-style scans such as
    /// [`crate::Solver::drain_new_learnts`].
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Offset of the clause after `r` (or [`ClauseDb::len`] for the last).
    #[inline]
    pub fn next(&self, r: ClauseRef) -> usize {
        r.offset() + span(self.flags(r))
    }

    /// All clause references, deleted ones included, in insertion order.
    fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut o = 0;
        std::iter::from_fn(move || {
            (o < self.arena.len()).then(|| {
                let r = ClauseRef::new(o);
                o = self.next(r);
                r
            })
        })
    }

    /// Iterates over all live clauses in insertion order, as
    /// `(literals, proof id)`. The literal order within a clause is the
    /// current watch order, not sorted.
    pub fn live_iter(&self) -> impl Iterator<Item = (&[Lit], Option<ClauseId>)> + '_ {
        self.refs()
            .filter(|&r| !self.is_deleted(r))
            .map(|r| (self.lits(r), self.proof_id(r)))
    }

    /// All live learnt clause references, in insertion order.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.refs()
            .filter(|&r| self.flags(r) & (LEARNT | DELETED) == LEARNT)
            .collect()
    }

    /// Whether deleted clauses hold enough of the arena to compact it.
    pub fn wants_compaction(&self) -> bool {
        self.wasted * 100 > self.arena.len() * self.max_waste_percent
    }

    /// Number of compactions so far.
    #[cfg(test)]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Sets the compaction threshold (percent of the arena held by
    /// deleted clauses); 100 or more never compacts.
    #[cfg(test)]
    pub fn set_max_waste_percent(&mut self, percent: usize) {
        self.max_waste_percent = percent;
    }

    /// Copies the live clauses, in order, into a fresh arena and returns
    /// the old one as a [`Relocation`] that maps old references to new
    /// ones. Every reference held outside the database must be passed
    /// through it.
    pub fn compact(&mut self) -> Relocation {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut o = 0;
        while o < self.arena.len() {
            let r = ClauseRef::new(o);
            let next = self.next(r);
            if !self.is_deleted(r) {
                let to = word(u32::try_from(fresh.len()).expect("arena offset fits u32"));
                fresh.extend_from_slice(&self.arena[o..next]);
                // Forwarding address in the old copy's proof-id word.
                self.arena[o + 1] = to;
            }
            o = next;
        }
        self.wasted = 0;
        self.compactions += 1;
        Relocation {
            old: std::mem::replace(&mut self.arena, fresh),
            new_len: self.arena.len(),
        }
    }
}

/// The old arena of a [`ClauseDb::compact`], holding each surviving
/// clause's new offset.
pub struct Relocation {
    old: Vec<Lit>,
    new_len: usize,
}

impl Relocation {
    /// The new reference of `r`, or `None` if `r` was deleted.
    #[inline]
    pub fn get(&self, r: ClauseRef) -> Option<ClauseRef> {
        let o = r.offset();
        (self.old[o].code() & DELETED == 0).then(|| ClauseRef::new(self.old[o + 1].code() as usize))
    }

    /// The new offset of the first surviving clause at or after the old
    /// clause offset `offset` (the new arena length if there is none).
    pub fn offset(&self, mut offset: usize) -> usize {
        while offset < self.old.len() {
            let r = ClauseRef::new(offset);
            if let Some(n) = self.get(r) {
                return n.offset();
            }
            offset += span(self.old[offset].code());
        }
        self.new_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn l(i: u32) -> Lit {
        Var::new(i).positive()
    }

    #[test]
    fn add_and_access() {
        let mut db = ClauseDb::new();
        let r = db.add(&[l(0), l(1)], false, None);
        assert_eq!(db.lits(r), &[l(0), l(1)]);
        assert_eq!(db.proof_id(r), None);
        assert!(!db.is_learnt(r));
        assert!(!db.is_deleted(r));
        assert_eq!(db.num_live(), 1);
        let s = db.add(&[l(2)], true, Some(ClauseId::new(7)));
        assert_eq!(db.lits(s), &[l(2)]);
        assert_eq!(db.proof_id(s), Some(ClauseId::new(7)));
        assert!(db.is_learnt(s));
        assert_eq!(db.next(r), s.offset());
        assert_eq!(db.next(s), db.len());
        assert_eq!(size_of::<Option<ClauseRef>>(), 4);
    }

    #[test]
    fn delete_frees_and_counts() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(0)], true, None);
        let b = db.add(&[l(1)], true, Some(ClauseId::new(3)));
        assert_eq!(db.num_learnt(), 2);
        db.delete(a);
        assert!(db.is_deleted(a));
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.learnt_refs(), vec![b]);
        // The words are reclaimed at compaction, not at deletion.
        let before = db.len();
        assert!(db.wants_compaction());
        let reloc = db.compact();
        assert_eq!(db.len(), before - HEADER - 1 - LEARNT_TAIL);
        assert!(!db.wants_compaction());
        assert_eq!(reloc.get(a), None);
        let b2 = reloc.get(b).expect("live clause survives");
        assert_eq!(db.lits(b2), &[l(1)]);
        assert_eq!(db.proof_id(b2), Some(ClauseId::new(3)));
        assert_eq!(db.learnt_refs(), vec![b2]);
        assert_eq!(db.num_live(), 1);
    }

    #[test]
    fn compaction_keeps_order_and_attributes() {
        let mut db = ClauseDb::new();
        let db_lits = |i: u32| [l(i), l(i + 1), l(i + 2)];
        let refs: Vec<ClauseRef> = (0..10)
            .map(|i| db.add(&db_lits(i), i % 2 == 1, Some(ClauseId::new(i))))
            .collect();
        for (i, &r) in refs.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            db.set_lbd(r, i as u32);
            db.bump(r, i as f32);
        }
        for &r in refs.iter().step_by(3) {
            db.delete(r);
        }
        let live_before: Vec<(Vec<Lit>, Option<ClauseId>)> =
            db.live_iter().map(|(ls, id)| (ls.to_vec(), id)).collect();
        let reloc = db.compact();
        let live_after: Vec<(Vec<Lit>, Option<ClauseId>)> =
            db.live_iter().map(|(ls, id)| (ls.to_vec(), id)).collect();
        assert_eq!(live_before, live_after);
        for (i, &r) in refs.iter().enumerate() {
            match reloc.get(r) {
                None => assert_eq!(i % 3, 0),
                Some(n) => {
                    assert_eq!(db.lits(n), db_lits(i as u32));
                    assert_eq!(db.proof_id(n), Some(ClauseId::new(i as u32)));
                    assert_eq!(db.is_learnt(n), i % 2 == 1);
                    if db.is_learnt(n) {
                        assert_eq!(db.lbd(n), i as u32);
                        assert_eq!(db.activity(n), i as f32);
                    }
                }
            }
        }
        // Offsets of deleted clauses forward to the next survivor.
        assert_eq!(reloc.offset(refs[0].offset()), 0);
        assert_eq!(
            reloc.offset(refs[3].offset()),
            reloc.get(refs[4]).unwrap().offset()
        );
        assert_eq!(reloc.offset(refs[9].offset()), db.len());
        assert_eq!(reloc.offset(refs[9].offset() + 1000), db.len());
    }

    #[test]
    fn activity_rescale() {
        let mut db = ClauseDb::new();
        let r = db.add(&[l(0)], true, None);
        assert!(!db.bump(r, 1.0));
        assert!(db.bump(r, 1e20));
        db.rescale(1e-20);
        assert!(db.activity(r) <= 1.001);
    }
}
