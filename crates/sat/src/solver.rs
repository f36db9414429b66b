//! A CDCL SAT solver with resolution-proof logging.
//!
//! The solver is a conventional conflict-driven clause-learning engine
//! (two-watched-literal propagation, VSIDS decisions with phase saving,
//! first-UIP learning with recursive clause minimization, Luby restarts,
//! LBD-guided learnt-clause reduction, incremental solving under
//! assumptions) with one addition that the paper requires: **every clause
//! it ever holds carries a step in a [`proof::Proof`]**, and every learnt
//! clause, every level-0 consequence, and every final conflict under
//! assumptions records the antecedent chain by which it follows by chain
//! resolution.
//!
//! The chain for a learnt clause is reconstructed after conflict
//! analysis by *replaying* the implication trail: starting from the
//! conflicting clause, literals not in the learnt clause are resolved
//! out against their reason clauses in reverse trail order. This yields
//! a regular input-resolution derivation that the independent checker in
//! the `proof` crate verifies literally — including the effects of
//! clause minimization, which only changes *which* literals get resolved
//! out.

use crate::db::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::luby::luby;
use cnf::{Lit, Var};
use proof::{ClauseId, Proof, StepRole};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; see [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; see
    /// [`Solver::final_clause`].
    Unsat,
    /// The conflict budget (see [`Solver::set_conflict_budget`]) was
    /// exhausted before a verdict. Learnt clauses are kept, so retrying
    /// (or solving a different query) resumes from the progress made.
    Unknown,
}

/// Tuning knobs for the solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Record resolution proofs for every clause (the paper's mode).
    pub proof_logging: bool,
    /// Multiplicative VSIDS decay applied after each conflict.
    pub var_decay: f64,
    /// Multiplicative clause-activity decay applied after each conflict.
    pub clause_decay: f32,
    /// Base number of conflicts between restarts (scaled by Luby).
    pub restart_base: u64,
    /// Initial learnt-clause limit as a fraction of problem clauses.
    pub learnt_size_factor: f64,
    /// Growth factor of the learnt-clause limit at each reduction.
    pub learnt_size_inc: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            proof_logging: false,
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            learnt_size_factor: 1.0 / 3.0,
            learnt_size_inc: 1.1,
        }
    }
}

/// Run counters, exposed for the experiment tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses (including later-deleted ones).
    pub learnt: u64,
    /// Number of learnt clauses deleted by reduction.
    pub deleted: u64,
    /// Number of `solve` calls.
    pub solves: u64,
}

impl std::ops::AddAssign for SolverStats {
    /// Sums the counters of two solvers (e.g. the workers of a parallel
    /// run into one total).
    fn add_assign(&mut self, o: SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.learnt += o.learnt;
        self.deleted += o.deleted;
        self.solves += o.solves;
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// A proof-logging CDCL solver.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use sat::{SolveResult, Solver};
///
/// let mut s = Solver::with_proof();
/// let x = s.new_var();
/// let y = s.new_var();
/// s.add_clause(&[x.positive(), y.positive()]);
/// s.add_clause(&[x.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert!(s.model_value(y));
///
/// s.add_clause(&[y.negative()]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// let proof = s.proof().expect("logging enabled");
/// assert!(proof::check::check_refutation(proof).is_ok());
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    // Per literal (indexed by `Lit::code`): UNDEF, TRUE or FALSE, set in
    // `assign` and cleared in `cancel_until`.
    lval: Vec<u8>,
    // Per variable:
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    polarity: Vec<bool>,
    seen: Vec<bool>,
    // Trail:
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Decision order:
    order: VarHeap,
    var_inc: f64,
    cla_inc: f32,
    // Learnt DB sizing:
    max_learnt: f64,
    num_problem_clauses: usize,
    // Arena cursor of [`Solver::drain_new_learnts`]: clauses below it
    // have already been offered for export.
    learnt_export_cursor: usize,
    // Analysis scratch:
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    learnt_buf: Vec<Lit>,
    // LBD counting: `level_stamp[l] == lbd_stamp` marks decision level
    // `l` as already counted for the current learnt clause.
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    // Chain-replay scratch (lit-indexed marks, reused buffers):
    mark_s: Vec<bool>,
    mark_l: Vec<bool>,
    chain_touched: Vec<Lit>,
    chain_start: Vec<Lit>,
    chain_ids: Vec<ClauseId>,
    // Proof and outcome:
    proof: Option<Proof>,
    conflict_budget: Option<u64>,
    unsat: bool,
    empty_id: Option<ClauseId>,
    final_clause: Option<(Vec<Lit>, Option<ClauseId>)>,
    saved_model: Option<Vec<bool>>,
    // Cone-complete solving (see [`Solver::solve_in_cone`]): the cone's
    // variables are marked, and `cone_unassigned` counts the cone
    // variables not assigned by `trail[..cone_scanned]`. Decision points
    // advance the scan to the trail's end; `cancel_until` rewinds it.
    // Counting off the trail keeps `enqueue`, the propagation hot path,
    // as it is.
    in_cone: Vec<bool>,
    cone_unassigned: usize,
    cone_scanned: usize,
    cone_active: bool,
    stats: SolverStats,
    // Tracing (free when the recorder is disabled, the default):
    recorder: obs::Recorder,
    recorder_tid: u32,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver without proof logging.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with resolution-proof logging enabled.
    pub fn with_proof() -> Self {
        Solver::with_config(SolverConfig {
            proof_logging: true,
            ..SolverConfig::default()
        })
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let proof = config.proof_logging.then(Proof::new);
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            lval: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnt: 0.0,
            num_problem_clauses: 0,
            learnt_export_cursor: 0,
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            learnt_buf: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            mark_s: Vec::new(),
            mark_l: Vec::new(),
            chain_touched: Vec::new(),
            chain_start: Vec::new(),
            chain_ids: Vec::new(),
            proof,
            conflict_budget: None,
            unsat: false,
            empty_id: None,
            final_clause: None,
            saved_model: None,
            in_cone: Vec::new(),
            cone_unassigned: 0,
            cone_scanned: 0,
            cone_active: false,
            stats: SolverStats::default(),
            recorder: obs::Recorder::disabled(),
            recorder_tid: obs::TID_COORDINATOR,
        }
    }

    /// Attaches a trace recorder; the solver emits `restart` and
    /// `reduce_db` instant events on logical thread `tid`. The default
    /// is a disabled recorder (no events, no overhead).
    pub fn set_recorder(&mut self, recorder: obs::Recorder, tid: u32) {
        self.recorder = recorder;
        self.recorder_tid = tid;
    }

    /// Whether proof logging is enabled.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Limits each subsequent `solve` call to at most `budget` conflicts;
    /// `None` removes the limit. A budgeted call that runs out returns
    /// [`SolveResult::Unknown`] and keeps all learnt clauses.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// The proof recorded so far, if logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// Consumes the solver and returns its proof, if logging.
    pub fn into_proof(self) -> Option<Proof> {
        self.proof
    }

    /// Tags a proof step with an advisory role (reporting metadata; see
    /// [`proof::StepRole`]). No-op when logging is off.
    pub fn tag_proof_step(&mut self, id: ClauseId, role: StepRole) {
        if let Some(p) = &mut self.proof {
            p.set_role(id, role);
        }
    }

    /// Run counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Number of live (non-deleted) clauses in the database.
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Whether the clause set has been refuted outright (the proof
    /// contains the empty clause); subsequent solves return `Unsat`
    /// regardless of assumptions.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The proof step of the empty clause, once derived.
    pub fn empty_clause_id(&self) -> Option<ClauseId> {
        self.empty_id
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars());
        self.lval.push(UNDEF);
        self.lval.push(UNDEF);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.in_cone.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.mark_s.push(false);
        self.mark_s.push(false);
        self.mark_l.push(false);
        self.mark_l.push(false);
        self.level_stamp.push(0);
        self.order.grow_to(self.level.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: u32) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        self.lval[l.code() as usize]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds an input clause. Records it as an *original* proof step and
    /// returns the step id (if logging). Returns `None` for tautologies
    /// (which are skipped) or when logging is off.
    ///
    /// Adding a clause may immediately derive the empty clause (making
    /// the solver permanently [`Solver::is_unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has not been allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> Option<ClauseId> {
        self.cancel_until(0);
        let mut ls = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        for l in &ls {
            assert!(
                l.var().index() < self.num_vars(),
                "literal variable not allocated"
            );
        }
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return None; // tautology
        }
        let id = self
            .proof
            .as_mut()
            .map(|p| p.add_original(ls.iter().copied()));
        self.num_problem_clauses += 1;
        self.insert_clause(ls, false, id);
        id
    }

    /// Adds a clause *derived outside the solver* — the structural-hash
    /// equivalence lemmas of the CEC engine. The clause is appended to
    /// the proof as a derived step with the given antecedents and to the
    /// database as a permanent clause.
    ///
    /// The derivation is not checked here; the independent checker will
    /// reject an invalid chain.
    ///
    /// # Panics
    ///
    /// Panics if proof logging is disabled, a variable is unallocated,
    /// or the clause is empty or tautological.
    pub fn add_derived_clause(&mut self, lits: &[Lit], antecedents: &[ClauseId]) -> ClauseId {
        assert!(
            self.proof.is_some(),
            "derived clauses require proof logging"
        );
        self.cancel_until(0);
        let mut ls = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        assert!(
            !ls.is_empty(),
            "empty derived clause must come from solving"
        );
        assert!(
            ls.windows(2).all(|w| w[0].var() != w[1].var()),
            "tautological derived clause"
        );
        let id = self
            .proof
            .as_mut()
            .expect("checked above")
            .add_derived(ls.iter().copied(), antecedents.iter().copied());
        self.insert_clause(ls, false, Some(id));
        id
    }

    /// Adds a clause whose proof step *already exists* in this solver's
    /// proof (or in no proof at all): the merged equivalence lemmas of
    /// parallel sweep workers, whose derivations were stitched in via
    /// [`Solver::merge_proof_cone`]. No new proof step is recorded.
    ///
    /// # Panics
    ///
    /// Panics if a variable is unallocated, the clause is empty or
    /// tautological, or proof logging is on but `id` is `None` (the
    /// clause could then become an unjustified reason in later chains).
    pub fn add_proved_clause(&mut self, lits: &[Lit], id: Option<ClauseId>) {
        self.cancel_until(0);
        let mut ls = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        for l in &ls {
            assert!(
                l.var().index() < self.num_vars(),
                "literal variable not allocated"
            );
        }
        assert!(!ls.is_empty(), "empty proved clause must come from solving");
        assert!(
            ls.windows(2).all(|w| w[0].var() != w[1].var()),
            "tautological proved clause"
        );
        assert!(
            self.proof.is_none() || id.is_some(),
            "proved clause needs a proof id when logging"
        );
        self.num_problem_clauses += 1;
        self.insert_clause(ls, false, id);
    }

    /// Snapshots the live clause database: every live clause with its
    /// proof step id, in insertion order. This is the deterministic
    /// basis a parallel sweep worker rebuilds its private solver from.
    pub fn live_clauses(&self) -> impl Iterator<Item = (&[Lit], Option<ClauseId>)> + '_ {
        self.db.live_iter()
    }

    /// Drains learnt clauses added since the previous drain: scans the
    /// clause arena from a persistent cursor and returns up to
    /// `max_count` still-live learnt clauses of at most `max_len`
    /// literals, each as `(literals, proof step id)`. Every learnt
    /// clause is implied by the clause database alone (assumptions only
    /// ever enter conflict analysis as decisions, so they are resolved
    /// into the learnt clause, never assumed by it), which makes the
    /// drained clauses sound to add verbatim to any solver over the
    /// same formula — the basis of worker-to-worker clause sharing in
    /// the parallel sweep.
    ///
    /// The cursor advances past everything examined, so a clause is
    /// reported at most once over the solver's lifetime; clauses
    /// skipped only because the round's `max_count` was reached remain
    /// eligible for the next drain. Insertion order is preserved, so
    /// repeated runs drain identical sequences.
    pub fn drain_new_learnts(
        &mut self,
        max_len: usize,
        max_count: usize,
    ) -> Vec<(Vec<Lit>, Option<ClauseId>)> {
        let mut out = Vec::new();
        while self.learnt_export_cursor < self.db.len() && out.len() < max_count {
            let r = ClauseRef::new(self.learnt_export_cursor);
            self.learnt_export_cursor = self.db.next(r);
            if self.db.is_deleted(r) || !self.db.is_learnt(r) {
                continue;
            }
            let lits = self.db.lits(r);
            if lits.is_empty() || lits.len() > max_len {
                continue;
            }
            out.push((lits.to_vec(), self.db.proof_id(r)));
        }
        out
    }

    /// Merges the cone of `roots` from another proof into this solver's
    /// proof (see [`proof::Proof::merge_cone`]); `map` is the persistent
    /// local→global id translation table, updated in place.
    ///
    /// # Panics
    ///
    /// Panics if proof logging is disabled.
    pub fn merge_proof_cone(
        &mut self,
        other: &Proof,
        roots: &[ClauseId],
        map: &mut Vec<Option<ClauseId>>,
    ) {
        self.proof
            .as_mut()
            .expect("merging derivations requires proof logging")
            .merge_cone(other, roots, map);
    }

    /// Core clause insertion at decision level 0 (watch setup, unit
    /// propagation, level-0 conflict handling).
    fn insert_clause(&mut self, mut ls: Vec<Lit>, learnt: bool, id: Option<ClauseId>) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return;
        }
        if ls.is_empty() {
            self.unsat = true;
            self.empty_id = id;
            return;
        }
        // Order literals: non-false first.
        ls.sort_by_key(|&l| match self.lit_value(l) {
            UNDEF => 0u8,
            TRUE => 1,
            _ => 2,
        });
        if self.lit_value(ls[0]) == FALSE {
            // Entire clause false at level 0: resolve it to the empty clause.
            let chain_id = self.build_chain_from(&ls, id, &[]);
            self.unsat = true;
            self.empty_id = chain_id;
            return;
        }
        let first = ls[0];
        let unit = ls.len() == 1 || self.lit_value(ls[1]) == FALSE;
        let r = self.db.add(&ls, learnt, id);
        if ls.len() >= 2 {
            self.attach(r);
        }
        if unit && self.lit_value(first) == UNDEF {
            let ok = self.enqueue(first, Some(r));
            debug_assert!(ok);
            if let Some(confl) = self.propagate() {
                let chain_id = self.build_chain_from_clause(confl, &[]);
                self.unsat = true;
                self.empty_id = chain_id;
            }
        }
    }

    fn attach(&mut self, r: ClauseRef) {
        let lits = self.db.lits(r);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code() as usize].push(Watcher {
            clause: r,
            blocker: l1,
        });
        self.watches[(!l1).code() as usize].push(Watcher {
            clause: r,
            blocker: l0,
        });
    }

    fn enqueue(&mut self, l: Lit, from: Option<ClauseRef>) -> bool {
        match self.lit_value(l) {
            TRUE => true,
            FALSE => false,
            _ => {
                self.assign(l, from);
                true
            }
        }
    }

    /// Makes the unassigned literal `l` true at the current level.
    #[inline]
    fn assign(&mut self, l: Lit, from: Option<ClauseRef>) {
        self.lval[l.code() as usize] = TRUE;
        self.lval[(!l).code() as usize] = FALSE;
        let v = l.var().as_usize();
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let false_lit = !p;
            let mut i = 0;
            let mut j = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lval[w.blocker.code() as usize] == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let Some(lits) = self.db.live_lits_mut(w.clause) else {
                    continue; // drop watcher of deleted clause
                };
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let w2 = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                let first_value = self.lval[first.code() as usize];
                if first != w.blocker && first_value == TRUE {
                    ws[j] = w2;
                    j += 1;
                    continue;
                }
                // Search for a replacement watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.lval[lk.code() as usize] != FALSE {
                        lits.swap(1, k);
                        self.watches[(!lk).code() as usize].push(w2);
                        continue 'watches;
                    }
                }
                // Unit or conflicting.
                ws[j] = w2;
                j += 1;
                if first_value == FALSE {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    break 'watches;
                }
                debug_assert_eq!(first_value, UNDEF);
                self.assign(first, Some(w.clause));
            }
            ws.truncate(j);
            self.watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn new_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        if self.cone_scanned > bound {
            for l in &self.trail[bound..self.cone_scanned] {
                if self.in_cone[l.var().as_usize()] {
                    self.cone_unassigned += 1;
                }
            }
            self.cone_scanned = bound;
        }
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.lval[l.code() as usize] = UNDEF;
            self.lval[(!l).code() as usize] = UNDEF;
            self.polarity[v.as_usize()] = l.is_negative();
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.as_usize()] += self.var_inc;
        if self.activity[v.as_usize()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    /// First-UIP conflict analysis with recursive minimization.
    /// Returns `(learnt, backtrack_level, lbd)`; `learnt[0]` is the
    /// asserting literal. The learnt vector is `learnt_buf`, taken out;
    /// the caller hands it back.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // slot for UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            if self.db.is_learnt(clause) {
                self.bump_clause(clause);
            }
            let start = if p.is_some() { 1 } else { 0 };
            let len = self.db.lits(clause).len();
            for k in start..len {
                let q = self.db.lits(clause)[k];
                let v = q.var();
                if !self.seen[v.as_usize()] && self.level[v.as_usize()] > 0 {
                    self.seen[v.as_usize()] = true;
                    self.bump_var(v);
                    if self.level[v.as_usize()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next clause to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().as_usize()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().as_usize()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            clause = self.reason[pl.var().as_usize()].expect("non-UIP literal has a reason");
            p = Some(pl);
        }

        // Recursive minimization.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        let abstract_levels = learnt[1..].iter().fold(0u32, |acc, l| {
            acc | 1 << (self.level[l.var().as_usize()] & 31)
        });
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().as_usize()].is_none() || !self.lit_redundant(l, abstract_levels)
            {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for l in self.analyze_toclear.drain(..) {
            self.seen[l.var().as_usize()] = false;
        }

        // Backtrack level: highest level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().as_usize()]
                    > self.level[learnt[max_i].var().as_usize()]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().as_usize()]
        };

        // LBD: number of distinct decision levels.
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in &learnt {
            let lv = self.level[l.var().as_usize()] as usize;
            if self.level_stamp[lv] != self.lbd_stamp {
                self.level_stamp[lv] = self.lbd_stamp;
                lbd += 1;
            }
        }

        (learnt, bt, lbd)
    }

    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let r = self.reason[q.var().as_usize()].expect("stacked literal has a reason");
            for &x in &self.db.lits(r)[1..] {
                let v = x.var();
                if !self.seen[v.as_usize()] && self.level[v.as_usize()] > 0 {
                    if self.reason[v.as_usize()].is_some()
                        && (1u32 << (self.level[v.as_usize()] & 31)) & abstract_levels != 0
                    {
                        self.seen[v.as_usize()] = true;
                        self.analyze_stack.push(x);
                        self.analyze_toclear.push(x);
                    } else {
                        for &y in &self.analyze_toclear[top..] {
                            self.seen[y.var().as_usize()] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    fn bump_clause(&mut self, r: ClauseRef) {
        if self.db.bump(r, self.cla_inc) {
            self.db.rescale(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// Reconstructs a chain-resolution derivation of `target` from the
    /// clause `start` (with proof id `start_id`) and the reason clauses
    /// on the trail, and records it in the proof. Returns the new step
    /// id (or `None` when logging is off).
    ///
    /// Precondition: every literal of `start` is false under the current
    /// assignment, and every literal that must be resolved out has a
    /// reason clause.
    fn build_chain_from(
        &mut self,
        start: &[Lit],
        start_id: Option<ClauseId>,
        target: &[Lit],
    ) -> Option<ClauseId> {
        self.proof.as_ref()?;
        let chain = &mut self.chain_ids;
        chain.clear();
        chain.push(start_id.expect("proof id missing on start clause"));
        debug_assert!(self.chain_touched.is_empty());
        for &l in target {
            self.mark_l[l.code() as usize] = true;
        }
        let mut remaining = 0usize;
        for &l in start {
            if !self.mark_s[l.code() as usize] {
                self.mark_s[l.code() as usize] = true;
                self.chain_touched.push(l);
                if !self.mark_l[l.code() as usize] {
                    remaining += 1;
                }
            }
        }
        for idx in (0..self.trail.len()).rev() {
            if remaining == 0 {
                break;
            }
            let p = self.trail[idx];
            let np = !p;
            if !self.mark_s[np.code() as usize] || self.mark_l[np.code() as usize] {
                continue;
            }
            let r = self.reason[p.var().as_usize()]
                .expect("chain replay: resolved literal must have a reason");
            chain.push(
                self.db
                    .proof_id(r)
                    .expect("proof id missing on reason clause"),
            );
            self.mark_s[np.code() as usize] = false;
            remaining -= 1;
            let reason = self.db.lits(r);
            debug_assert_eq!(reason[0], p, "reason clause invariant");
            for &q in &reason[1..] {
                if !self.mark_s[q.code() as usize] {
                    self.mark_s[q.code() as usize] = true;
                    self.chain_touched.push(q);
                    if !self.mark_l[q.code() as usize] {
                        remaining += 1;
                    }
                }
            }
        }
        debug_assert_eq!(remaining, 0, "chain replay left unresolved literals");
        for l in self.chain_touched.drain(..) {
            self.mark_s[l.code() as usize] = false;
        }
        for &l in target {
            self.mark_l[l.code() as usize] = false;
        }
        let p = self.proof.as_mut().expect("checked at entry");
        let id = p.add_derived(target.iter().copied(), chain.iter().copied());
        p.set_role(id, StepRole::Learned);
        Some(id)
    }

    /// [`Solver::build_chain_from`] starting at the database clause `r`.
    fn build_chain_from_clause(&mut self, r: ClauseRef, target: &[Lit]) -> Option<ClauseId> {
        self.proof.as_ref()?;
        let mut start = std::mem::take(&mut self.chain_start);
        start.clear();
        start.extend_from_slice(self.db.lits(r));
        let id = self.build_chain_from(&start, self.db.proof_id(r), target);
        self.chain_start = start;
        id
    }

    /// Computes the final conflict clause when assumption `failed` is
    /// falsified, together with its derivation.
    fn analyze_final(&mut self, failed: Lit) -> (Vec<Lit>, Option<ClauseId>) {
        let Some(r0) = self.reason[failed.var().as_usize()] else {
            // ¬failed is itself an assumption decision: the conflict
            // clause is the tautology (failed ∨ ¬failed), which has no
            // resolution derivation. This only happens with
            // contradictory assumption lists.
            return (vec![failed, !failed], None);
        };
        // Collect the involved assumption negations.
        let mut out = vec![!failed];
        if self.decision_level() > 0 {
            self.seen[failed.var().as_usize()] = true;
            for idx in (self.trail_lim[0]..self.trail.len()).rev() {
                let x = self.trail[idx];
                let v = x.var();
                if !self.seen[v.as_usize()] {
                    continue;
                }
                self.seen[v.as_usize()] = false;
                match self.reason[v.as_usize()] {
                    None => {
                        if x != !failed {
                            out.push(!x);
                        }
                    }
                    Some(r) => {
                        for &q in &self.db.lits(r)[1..] {
                            if self.level[q.var().as_usize()] > 0 {
                                self.seen[q.var().as_usize()] = true;
                            }
                        }
                    }
                }
            }
            self.seen[failed.var().as_usize()] = false;
        }
        out.sort_unstable();
        out.dedup();
        let id = self.build_chain_from_clause(r0, &out);
        if let Some(id) = id {
            self.tag_proof_step(id, StepRole::FinalConflict);
        }
        (out, id)
    }

    /// The conflict clause of the last `Unsat` answer: a clause over the
    /// negations of the failed assumptions (empty for an outright
    /// refutation), plus its proof step when logging.
    pub fn final_clause(&self) -> Option<(&[Lit], Option<ClauseId>)> {
        self.final_clause
            .as_ref()
            .map(|(c, id)| (c.as_slice(), *id))
    }

    /// Adds the last final conflict clause permanently to the clause
    /// database (no new proof step — it is already derived). This is how
    /// the CEC engine turns a per-pair UNSAT answer into a reusable
    /// equivalence lemma. Returns its proof id.
    ///
    /// # Panics
    ///
    /// Panics if there is no final clause (last solve was SAT or never
    /// ran) or if the final clause is the unusable tautology produced by
    /// contradictory assumptions.
    pub fn commit_final_clause(&mut self) -> Option<ClauseId> {
        let (lits, id) = self
            .final_clause
            .clone()
            .expect("no final conflict clause available");
        assert!(
            lits.windows(2).all(|w| w[0].var() != w[1].var()),
            "cannot commit a tautological final clause"
        );
        self.cancel_until(0);
        if !lits.is_empty() {
            self.insert_clause(lits, false, id);
        }
        id
    }

    /// Value of `v` in the last satisfying model.
    ///
    /// # Panics
    ///
    /// Panics if the last solve did not return [`SolveResult::Sat`].
    pub fn model_value(&self, v: Var) -> bool {
        self.saved_model
            .as_ref()
            .expect("no model: last solve was not SAT")[v.as_usize()]
    }

    /// The last satisfying model (indexed by variable), if any.
    pub fn model(&self) -> Option<&[bool]> {
        self.saved_model.as_deref()
    }

    /// Solves under `assumptions`, answering `Sat` as soon as every
    /// variable of `cone` is assigned without conflict at a decision
    /// point. The saved model is then *cone-complete*: cone variables
    /// hold the values of the search, variables outside the cone that the
    /// search never assigned read `false`. Decisions still follow the
    /// usual VSIDS order over all variables, and a call that ends `Unsat`
    /// or `Unknown` never completed its cone, so it searched exactly as
    /// [`Solver::solve_with`] would have and logged the same proof.
    ///
    /// Meant for cones closed under a clause structure, such as the
    /// transitive fan-in of circuit nodes under their Tseitin clauses: a
    /// conflict-free assignment of every cone variable then satisfies all
    /// clauses over the cone, and its values are determined by the
    /// cone's free variables alone.
    ///
    /// # Panics
    ///
    /// Panics if an assumption or cone variable has not been allocated.
    /// Assumption variables must lie in `cone`: for one outside it, a
    /// `Sat` answer does not show the formula satisfiable under it.
    pub fn solve_in_cone(&mut self, assumptions: &[Lit], cone: &[Var]) -> SolveResult {
        self.cancel_until(0);
        for &v in cone {
            if !self.in_cone[v.as_usize()] {
                self.in_cone[v.as_usize()] = true;
                if self.lit_value(v.positive()) == UNDEF {
                    self.cone_unassigned += 1;
                }
            }
        }
        self.cone_scanned = self.trail.len();
        self.cone_active = true;
        let result = self.solve_with(assumptions);
        debug_assert_eq!(self.decision_level(), 0, "search returns at level 0");
        for &v in cone {
            self.in_cone[v.as_usize()] = false;
        }
        self.cone_unassigned = 0;
        self.cone_scanned = 0;
        self.cone_active = false;
        result
    }

    /// Whether every cone variable is assigned: advances the cone scan
    /// over the trail literals assigned since the last decision point.
    fn cone_complete(&mut self) -> bool {
        for &l in &self.trail[self.cone_scanned..] {
            if self.in_cone[l.var().as_usize()] {
                self.cone_unassigned -= 1;
            }
        }
        self.cone_scanned = self.trail.len();
        self.cone_unassigned == 0
    }

    /// Saves the current assignment as the model and returns `Sat`.
    fn answer_sat(&mut self) -> SolveResult {
        let model: Vec<bool> = self.lval.iter().step_by(2).map(|&v| v == TRUE).collect();
        self.saved_model = Some(model);
        self.cancel_until(0);
        SolveResult::Sat
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::final_clause`] holds a clause over the
    /// negations of the assumptions actually used (empty if the formula
    /// is unsatisfiable outright).
    ///
    /// # Panics
    ///
    /// Panics if an assumption variable has not been allocated.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.saved_model = None;
        self.final_clause = None;
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption variable not allocated"
            );
        }
        self.cancel_until(0);
        if self.unsat {
            self.final_clause = Some((Vec::new(), self.empty_id));
            return SolveResult::Unsat;
        }
        if self.max_learnt == 0.0 {
            self.max_learnt =
                (self.num_problem_clauses as f64 * self.config.learnt_size_factor).max(100.0);
        }

        let mut restart_count = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut conflicts_this_call = 0u64;
        let mut budget = self.config.restart_base * luby(1);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.empty_id = self.build_chain_from_clause(confl, &[]);
                    self.unsat = true;
                    self.final_clause = Some((Vec::new(), self.empty_id));
                    return SolveResult::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                // Record the derivation before unwinding the trail.
                let id = self.build_chain_from_clause(confl, &learnt);
                self.cancel_until(bt);
                self.stats.learnt += 1;
                let r = self.db.add(&learnt, true, id);
                self.db.set_lbd(r, lbd);
                // A unit learnt clause is asserted at level 0, unwatched.
                if learnt.len() > 1 {
                    self.attach(r);
                }
                debug_assert_eq!(self.lit_value(learnt[0]), UNDEF);
                self.assign(learnt[0], Some(r));
                self.learnt_buf = learnt;
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= self.config.clause_decay;
            } else {
                // No conflict.
                if self.cone_active
                    && self.decision_level() as usize >= assumptions.len()
                    && self.cone_complete()
                {
                    // Every cone variable is assigned and every assumption
                    // holds: the cone part of the assignment is a model.
                    return self.answer_sat();
                }
                if let Some(limit) = self.conflict_budget {
                    if conflicts_this_call >= limit {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if conflicts_since_restart >= budget {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    conflicts_since_restart = 0;
                    budget = self.config.restart_base * luby(restart_count + 1);
                    self.recorder.instant(
                        "restart",
                        self.recorder_tid,
                        &[
                            ("restarts", obs::ArgVal::U64(self.stats.restarts)),
                            ("conflicts", obs::ArgVal::U64(self.stats.conflicts)),
                            ("next_budget", obs::ArgVal::U64(budget)),
                        ],
                    );
                    self.cancel_until(0);
                    continue;
                }
                if self.db.num_learnt() as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= self.config.learnt_size_inc;
                }
                let lvl = self.decision_level() as usize;
                if lvl < assumptions.len() {
                    let p = assumptions[lvl];
                    match self.lit_value(p) {
                        TRUE => {
                            self.new_level();
                        }
                        FALSE => {
                            let (clause, id) = self.analyze_final(p);
                            self.cancel_until(0);
                            self.final_clause = Some((clause, id));
                            return SolveResult::Unsat;
                        }
                        _ => {
                            self.new_level();
                            let ok = self.enqueue(p, None);
                            debug_assert!(ok);
                        }
                    }
                } else {
                    // Regular decision.
                    let next = loop {
                        match self.order.pop(&self.activity) {
                            None => break None,
                            Some(v) => {
                                if self.lit_value(v.positive()) == UNDEF {
                                    break Some(v);
                                }
                            }
                        }
                    };
                    match next {
                        // All variables assigned: model found.
                        None => return self.answer_sat(),
                        Some(v) => {
                            self.stats.decisions += 1;
                            let l = v.lit(self.polarity[v.as_usize()]);
                            self.new_level();
                            let ok = self.enqueue(l, None);
                            debug_assert!(ok);
                        }
                    }
                }
            }
        }
    }

    fn reduce_db(&mut self) {
        let mut refs = self.db.learnt_refs();
        // Delete the worst half: high LBD first, then low activity.
        refs.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut deleted = 0;
        for &r in &refs {
            if deleted >= target {
                break;
            }
            if self.db.lbd(r) <= 2 || self.is_locked(r) {
                continue;
            }
            self.db.delete(r);
            deleted += 1;
            self.stats.deleted += 1;
        }
        if self.db.wants_compaction() {
            self.compact_db();
        }
        self.recorder.instant(
            "reduce_db",
            self.recorder_tid,
            &[
                ("deleted", obs::ArgVal::U64(deleted as u64)),
                ("learnt_live", obs::ArgVal::U64(self.db.num_learnt() as u64)),
            ],
        );
    }

    /// Compacts the clause arena and remaps every clause reference the
    /// solver holds. Reasons of unassigned variables are stale and never
    /// read; those pointing at deleted clauses are cleared. Watchers of
    /// deleted clauses are dropped, as `propagate` would drop them.
    fn compact_db(&mut self) {
        let reloc = self.db.compact();
        for r in &mut self.reason {
            *r = r.and_then(|r| reloc.get(r));
        }
        for ws in &mut self.watches {
            ws.retain_mut(|w| match reloc.get(w.clause) {
                Some(n) => {
                    w.clause = n;
                    true
                }
                None => false,
            });
        }
        self.learnt_export_cursor = reloc.offset(self.learnt_export_cursor);
    }

    fn is_locked(&self, r: ClauseRef) -> bool {
        let l0 = self.db.lits(r)[0];
        self.lit_value(l0) == TRUE && self.reason[l0.var().as_usize()] == Some(r)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // test builders index parallel tables
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&v| solver_vars[(v.unsigned_abs() - 1) as usize].lit(v < 0))
            .collect()
    }

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&lits(&v, &[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert!(m[0] || m[1]);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        s.add_clause(&lits(&v, &[1]));
        s.add_clause(&lits(&v, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.is_unsat());
        let p = s.proof().unwrap();
        assert!(proof::check::check_refutation(p).is_ok());
    }

    #[test]
    fn empty_clause_input() {
        let mut s = Solver::with_proof();
        s.add_clause(&[]);
        assert!(s.is_unsat());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_without_assumptions_has_empty_final() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        s.add_clause(&lits(&v, &[1, 2]));
        s.add_clause(&lits(&v, &[1, -2]));
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-1, -2]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        assert!(fc.is_empty());
        assert!(id.is_some());
        assert!(proof::check::check_refutation(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        // x -> y
        s.add_clause(&lits(&v, &[-1, 2]));
        assert_eq!(s.solve_with(&lits(&v, &[1])), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        assert_eq!(s.solve_with(&lits(&v, &[1, -2])), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        // Final clause over negated assumptions: ¬x ∨ y.
        assert_eq!(fc.len(), 2);
        assert!(id.is_some());
        // Formula itself still satisfiable.
        assert!(!s.is_unsat());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn committed_final_clause_is_usable() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-2, 3]));
        // x ∧ ¬z is contradictory.
        assert_eq!(s.solve_with(&lits(&v, &[1, -3])), SolveResult::Unsat);
        let id = s.commit_final_clause();
        assert!(id.is_some());
        // The lemma (¬x ∨ z) is now in the database: asserting x forces z.
        assert_eq!(s.solve_with(&lits(&v, &[1])), SolveResult::Sat);
        assert!(s.model_value(v[2]));
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        assert_eq!(s.solve_with(&lits(&v, &[1, -1])), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        assert_eq!(fc.len(), 2);
        assert!(id.is_none(), "tautology has no resolution derivation");
    }

    #[test]
    fn derived_clause_round_trip() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        let c1 = s.add_clause(&lits(&v, &[1, 2])).unwrap();
        let c2 = s.add_clause(&lits(&v, &[1, -2])).unwrap();
        // (x) follows by resolution on y.
        s.add_derived_clause(&lits(&v, &[1]), &[c1, c2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0]));
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
        assert!(proof::check::check_rup(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn snapshot_worker_merge_round_trip() {
        // The parallel-sweep worker protocol in miniature: a global
        // proof-logging solver, a worker rebuilt from its live-clause
        // snapshot, a lemma proved in the worker, and the derivation
        // cone stitched back into the global proof.
        let mut global = Solver::with_proof();
        let v = vars(&mut global, 3);
        global.add_clause(&lits(&v, &[-1, 2]));
        global.add_clause(&lits(&v, &[-2, 3]));

        let snapshot: Vec<(Vec<Lit>, Option<ClauseId>)> = global
            .live_clauses()
            .map(|(ls, id)| (ls.to_vec(), id))
            .collect();
        assert_eq!(snapshot.len(), 2);

        let mut worker = Solver::with_proof();
        worker.ensure_vars(global.num_vars());
        let mut original_map: Vec<Option<ClauseId>> = Vec::new();
        for (ls, gid) in &snapshot {
            let lid = worker.add_clause(ls).expect("logging on, no tautologies");
            assert_eq!(lid.as_usize(), original_map.len());
            original_map.push(*gid);
        }
        // Worker proves x → z and commits the lemma locally.
        assert_eq!(worker.solve_with(&lits(&v, &[1, -3])), SolveResult::Unsat);
        let fc = worker.commit_final_clause().unwrap();
        let lemma = lits(&v, &[-1, 3]);
        let lemma_id = worker.add_derived_clause(&lemma, &[fc]);
        worker.tag_proof_step(lemma_id, StepRole::Lemma);

        // Stitch the worker's derivation into the global proof.
        let local = worker.into_proof().unwrap();
        let mut map = original_map;
        global.merge_proof_cone(&local, &[lemma_id], &mut map);
        let gid = map[lemma_id.as_usize()].expect("root merged");
        global.add_proved_clause(&lemma, Some(gid));
        assert_eq!(global.proof().unwrap().role(gid), StepRole::Lemma);
        assert!(proof::check::check_strict(global.proof().unwrap()).is_ok());
        assert!(proof::check::check_rup(global.proof().unwrap()).is_ok());
        // The merged lemma is live in the global database: x forces z.
        assert_eq!(global.solve_with(&lits(&v, &[1])), SolveResult::Sat);
        assert!(global.model_value(v[2]));
    }

    #[test]
    fn tautology_skipped() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&lits(&v, &[1, -1])).is_none());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        s.add_clause(&lits(&v, &[1, 1, 1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0]));
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons, n holes — UNSAT,
    /// requires real conflict analysis and learning.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let mut var = vec![vec![Var::new(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                var[p][h] = s.new_var();
            }
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| var[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[var[p1][h].negative(), var[p2][h].negative()]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat_with_checked_proof() {
        for n in 2..=5 {
            let mut s = Solver::with_proof();
            pigeonhole(&mut s, n + 1, n);
            assert_eq!(s.solve(), SolveResult::Unsat, "php({}, {})", n + 1, n);
            let p = s.proof().unwrap();
            proof::check::check_refutation(p).expect("proof must check");
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn stats_progress() {
        let mut s = Solver::with_proof();
        pigeonhole(&mut s, 5, 4);
        s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert_eq!(st.solves, 1);
    }

    #[test]
    fn incremental_reuse_after_unsat_assumptions() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 4);
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-2, 3]));
        s.add_clause(&lits(&v, &[-3, 4]));
        for _ in 0..3 {
            assert_eq!(s.solve_with(&lits(&v, &[1, -4])), SolveResult::Unsat);
            assert_eq!(s.solve_with(&lits(&v, &[1, 4])), SolveResult::Sat);
        }
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn clause_db_reduction_fires_and_stays_sound() {
        // Force aggressive reduction with a tiny learnt limit, then make
        // sure the verdict and the proof are still right.
        let mut s = Solver::with_config(SolverConfig {
            proof_logging: true,
            learnt_size_factor: 0.001,
            learnt_size_inc: 1.01,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().deleted > 0, "reduction never fired");
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    /// A proof-logging solver with a tiny learnt-clause limit, so that
    /// reduction runs often; `compact` false never compacts the arena.
    fn reducing_solver(compact: bool) -> Solver {
        let mut s = Solver::with_config(SolverConfig {
            proof_logging: true,
            learnt_size_factor: 0.001,
            learnt_size_inc: 1.01,
            ..SolverConfig::default()
        });
        if !compact {
            s.db.set_max_waste_percent(100);
        }
        s
    }

    fn proof_steps(p: &Proof) -> Vec<(Vec<Lit>, Vec<ClauseId>)> {
        p.iter()
            .map(|(_, st)| (st.clause.to_vec(), st.antecedents.to_vec()))
            .collect()
    }

    #[test]
    fn arena_compaction_leaves_search_and_proof_unchanged() {
        let mut compacting = reducing_solver(true);
        let mut reference = reducing_solver(false);
        pigeonhole(&mut compacting, 7, 6);
        pigeonhole(&mut reference, 7, 6);
        assert_eq!(compacting.solve(), SolveResult::Unsat);
        assert_eq!(reference.solve(), SolveResult::Unsat);
        assert!(
            compacting.db.compactions() >= 3,
            "only {} compactions",
            compacting.db.compactions()
        );
        assert_eq!(reference.db.compactions(), 0);
        assert!(compacting.db.len() < reference.db.len());
        assert_eq!(compacting.stats(), reference.stats());
        let (cp, rp) = (compacting.proof().unwrap(), reference.proof().unwrap());
        assert_eq!(proof_steps(cp), proof_steps(rp));
        proof::check::check_refutation(cp).unwrap();
    }

    #[test]
    fn live_clauses_and_drained_learnts_survive_compaction() {
        let mut compacting = reducing_solver(true);
        let mut reference = reducing_solver(false);
        pigeonhole(&mut compacting, 7, 6);
        pigeonhole(&mut reference, 7, 6);
        compacting.set_conflict_budget(Some(40));
        reference.set_conflict_budget(Some(40));
        let mut compactions_between_drains = 0;
        loop {
            let before = compacting.db.compactions();
            let verdict = compacting.solve();
            assert_eq!(reference.solve(), verdict);
            if compacting.db.compactions() > before {
                compactions_between_drains += 1;
            }
            let live = |s: &Solver| -> Vec<(Vec<Lit>, Option<ClauseId>)> {
                s.live_clauses().map(|(ls, id)| (ls.to_vec(), id)).collect()
            };
            assert_eq!(live(&compacting), live(&reference));
            // A small max_count leaves the cursor mid-arena.
            assert_eq!(
                compacting.drain_new_learnts(8, 5),
                reference.drain_new_learnts(8, 5)
            );
            if verdict != SolveResult::Unknown {
                assert_eq!(verdict, SolveResult::Unsat);
                break;
            }
        }
        assert!(
            compactions_between_drains >= 2,
            "only {compactions_between_drains} drain rounds saw a compaction"
        );
        assert_eq!(compacting.stats(), reference.stats());
        proof::check::check_refutation(compacting.proof().unwrap()).unwrap();
    }

    #[test]
    fn restarts_fire_with_small_base() {
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 2,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().restarts > 0, "restarts never fired");
    }

    #[test]
    fn restarts_and_learnt_counters_nonzero_on_hard_instance() {
        // php(8,7) is hard enough that a default-configured solver must
        // both learn clauses and restart; the telemetry layer depends on
        // these counters being live.
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().restarts > 0, "no restarts counted");
        assert!(s.stats().learnt > 0, "no learnt clauses counted");
        assert!(s.stats().learnt >= s.stats().restarts);
    }

    #[test]
    fn recorder_captures_restart_and_reduce_db_events() {
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 2,
            learnt_size_factor: 0.001,
            learnt_size_inc: 1.01,
            ..SolverConfig::default()
        });
        let rec = obs::Recorder::new();
        s.set_recorder(rec.clone(), 5);
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let events = rec.take_events();
        let restarts = events.iter().filter(|e| e.name == "restart").count();
        let reductions = events.iter().filter(|e| e.name == "reduce_db").count();
        assert_eq!(restarts as u64, s.stats().restarts);
        assert!(reductions > 0, "no reduce_db events");
        assert!(events.iter().all(|e| e.tid == 5));
    }

    #[test]
    fn adding_clauses_after_solving_works() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&lits(&v, &[-1]));
        s.add_clause(&lits(&v, &[-2, 3]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        assert!(s.model_value(v[2]));
        s.add_clause(&lits(&v, &[-3]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    #[test]
    fn conflict_budget_yields_unknown_then_resumes() {
        let mut s = Solver::with_proof();
        pigeonhole(&mut s, 7, 6);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(!s.is_unsat(), "unknown must not claim a verdict");
        // Remove the budget: the verdict is reached and the proof —
        // including clauses learnt during the budgeted attempt — checks.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    #[test]
    fn generous_budget_does_not_change_verdict() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 4);
        s.set_conflict_budget(Some(1_000_000));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn model_covers_all_vars() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model().unwrap().len(), 3);
    }

    /// The Tseitin clauses of a seeded random AND circuit over `inputs`
    /// free variables and `gates` AND variables (gate `g` is variable
    /// `inputs + g`, its fanins come from lower variables). Returns the
    /// variables, the clauses, and each gate's fanin literals.
    #[allow(clippy::type_complexity)]
    fn random_circuit(
        s: &mut Solver,
        inputs: usize,
        gates: usize,
        seed: u64,
    ) -> (Vec<Var>, Vec<Vec<Lit>>, Vec<(Lit, Lit)>) {
        let v = vars(s, inputs + gates);
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let mut clauses = Vec::new();
        let mut fanins = Vec::new();
        for g in 0..gates {
            let x = v[inputs + g].positive();
            let below = inputs + g;
            let a = v[next(below)].lit(next(2) == 1);
            let b = v[next(below)].lit(next(2) == 1);
            for c in [vec![!x, a], vec![!x, b], vec![x, !a, !b]] {
                s.add_clause(&c);
                clauses.push(c);
            }
            fanins.push((a, b));
        }
        (v, clauses, fanins)
    }

    /// Transitive fan-in of `roots` (variables) in a [`random_circuit`].
    fn fanin_cone(inputs: usize, fanins: &[(Lit, Lit)], roots: &[Var]) -> Vec<Var> {
        let mut seen = vec![false; inputs + fanins.len()];
        let mut stack: Vec<Var> = roots.to_vec();
        let mut cone = Vec::new();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v.as_usize()], true) {
                continue;
            }
            cone.push(v);
            if let Some(&(a, b)) = v.as_usize().checked_sub(inputs).map(|g| &fanins[g]) {
                stack.push(a.var());
                stack.push(b.var());
            }
        }
        cone
    }

    fn lit_true(model: &[bool], l: Lit) -> bool {
        model[l.var().as_usize()] != l.is_negative()
    }

    #[test]
    fn cone_complete_model_satisfies_every_cone_clause() {
        let (inputs, gates) = (12, 60);
        let mut cone_sat = 0;
        for seed in 0..20 {
            let mut s = Solver::new();
            let (v, clauses, fanins) = random_circuit(&mut s, inputs, gates, seed);
            let (x, y) = (v[inputs + gates - 1], v[inputs + gates - 7]);
            let cone = fanin_cone(inputs, &fanins, &[x, y]);
            let mut member = vec![false; v.len()];
            for c in &cone {
                member[c.as_usize()] = true;
            }
            let assumptions = [x.positive(), y.negative()];
            if s.solve_in_cone(&assumptions, &cone) != SolveResult::Sat {
                continue;
            }
            cone_sat += 1;
            let model = s.model().unwrap().to_vec();
            assert_eq!(model.len(), v.len());
            assert!(assumptions.iter().all(|&a| lit_true(&model, a)));
            for c in clauses
                .iter()
                .filter(|c| c.iter().all(|l| member[l.var().as_usize()]))
            {
                assert!(
                    c.iter().any(|&l| lit_true(&model, l)),
                    "seed {seed}: cone clause {c:?} falsified"
                );
            }
            // A plain solve afterwards still assigns every variable.
            assert_eq!(s.solve_with(&assumptions), SolveResult::Sat);
            let full = s.model().unwrap();
            assert_eq!(full.len(), v.len());
            assert!(clauses.iter().all(|c| c.iter().any(|&l| lit_true(full, l))));
        }
        assert!(cone_sat >= 5, "only {cone_sat} satisfiable cone queries");
    }

    #[test]
    fn cone_solve_unsat_matches_plain_solve() {
        let (inputs, gates) = (10, 50);
        for seed in 0..10 {
            let mut plain = Solver::with_proof();
            let mut coned = Solver::with_proof();
            let (v, _, mut fanins) = random_circuit(&mut plain, inputs, gates, seed);
            random_circuit(&mut coned, inputs, gates, seed);
            // y ≡ x rebuilt through t ≡ b: y = a ∧ t, t = b ∧ b.
            let x = v[inputs + gates - 1];
            let (a, b) = fanins[gates - 1];
            let mut add_and = |fa: Lit, fb: Lit| {
                let g = plain.new_var();
                coned.new_var();
                for c in [
                    vec![g.negative(), fa],
                    vec![g.negative(), fb],
                    vec![g.positive(), !fa, !fb],
                ] {
                    plain.add_clause(&c);
                    coned.add_clause(&c);
                }
                fanins.push((fa, fb));
                g
            };
            let t = add_and(b, b);
            let y = add_and(a, t.positive());
            let cone = fanin_cone(inputs, &fanins, &[x, y]);
            for assumptions in [[x.positive(), y.negative()], [x.negative(), y.positive()]] {
                assert_eq!(plain.solve_with(&assumptions), SolveResult::Unsat);
                assert_eq!(coned.solve_in_cone(&assumptions, &cone), SolveResult::Unsat);
                let (pc, pid) = plain.final_clause().unwrap();
                let (cc, cid) = coned.final_clause().unwrap();
                assert_eq!(pc, cc, "seed {seed}: final clauses differ");
                assert_eq!(pid, cid);
                assert_eq!(plain.stats(), coned.stats(), "seed {seed}: search differs");
                plain.commit_final_clause();
                coned.commit_final_clause();
            }
            let (pp, cp) = (plain.proof().unwrap(), coned.proof().unwrap());
            proof::check::check_strict(cp).unwrap();
            assert_eq!(pp.len(), cp.len());
            // A satisfiable query against another gate agrees on the verdict.
            let z = v[inputs + gates - 5];
            let cone = fanin_cone(inputs, &fanins, &[x, z]);
            for assumptions in [[x.positive(), z.negative()], [x.negative(), z.positive()]] {
                let r = plain.solve_with(&assumptions);
                assert_eq!(coned.solve_in_cone(&assumptions, &cone), r, "seed {seed}");
                if r == SolveResult::Sat {
                    break; // the searches diverge from here on
                }
            }
        }
    }
}
