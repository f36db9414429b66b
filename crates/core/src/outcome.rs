//! Results of an equivalence check.

use obs::LogHistogram;
use proof::{ClauseId, Proof, ProofStats};
use sat::SolverStats;
use std::fmt;
use std::time::Duration;

/// Wall-clock breakdown of one engine run by pipeline phase. Phases are
/// disjoint (sweeping time excludes the simulation that seeded it), so
/// the [`PhaseTimes::sum`] accounts for nearly all of
/// [`EngineStats::elapsed`] — the remainder is verdict assembly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Miter construction (or monolithic CNF encoding).
    pub miter: Duration,
    /// Random simulation seeding the candidate classes.
    pub sim: Duration,
    /// The sweeping loop: structural merges, candidate SAT calls,
    /// refinements, and (in parallel mode) worker rounds and stitching.
    pub sweep: Duration,
    /// The final solve of the asserted miter output.
    pub final_solve: Duration,
    /// Backward trimming of the recorded refutation.
    pub trim: Duration,
    /// Independent proof checking ([`crate::EngineConfig::verify`]).
    pub check: Duration,
    /// Proof / bundle lint passes.
    pub lint: Duration,
}

impl PhaseTimes {
    /// Total time attributed to a phase.
    pub fn sum(&self) -> Duration {
        self.miter + self.sim + self.sweep + self.final_solve + self.trim + self.check + self.lint
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "miter={:.3}s sim={:.3}s sweep={:.3}s final={:.3}s trim={:.3}s check={:.3}s lint={:.3}s",
            self.miter.as_secs_f64(),
            self.sim.as_secs_f64(),
            self.sweep.as_secs_f64(),
            self.final_solve.as_secs_f64(),
            self.trim.as_secs_f64(),
            self.check.as_secs_f64(),
            self.lint.as_secs_f64()
        )
    }
}

/// SAT work of the sweeping calls that ended in one verdict: the
/// per-verdict split of the solver counters (see
/// [`EngineStats::sat_cex_work`] and [`EngineStats::sat_unsat_work`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatWork {
    /// Calls that ended in this verdict.
    pub calls: u64,
    /// Decisions made by those calls.
    pub decisions: u64,
    /// Literals propagated by those calls.
    pub propagations: u64,
    /// Wall-clock time spent in those calls.
    pub elapsed: Duration,
}

impl SatWork {
    /// Adds another block's counters into this one.
    pub(crate) fn add(&mut self, o: &SatWork) {
        self.calls += o.calls;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.elapsed += o.elapsed;
    }
}

/// Counters for one parallel-sweep worker, aggregated over all rounds
/// it participated in (see [`crate::EngineConfig::threads`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Sweeping SAT calls issued by this worker.
    pub sat_calls: u64,
    /// SAT calls that returned UNSAT (half of an equivalence).
    pub sat_unsat: u64,
    /// SAT calls that returned a counterexample.
    pub sat_cex: u64,
    /// Work of this worker's counterexample calls.
    pub sat_cex_work: SatWork,
    /// Work of this worker's UNSAT calls.
    pub sat_unsat_work: SatWork,
    /// CDCL conflicts in this worker's private solvers.
    pub conflicts: u64,
    /// Candidate pairs this worker proved equivalent (merges).
    pub merges: u64,
    /// Equivalence lemma clauses this worker committed.
    pub lemmas: u64,
    /// Wall-clock time this worker spent across all rounds.
    pub elapsed: Duration,
    /// Distribution of CDCL conflicts per sweeping SAT call.
    pub conflict_hist: LogHistogram,
    /// Distribution of resolution-chain lengths per committed lemma
    /// (empty with proof logging off).
    pub lemma_chain_hist: LogHistogram,
}

impl WorkerStats {
    /// Adds one round's counters into these running totals.
    pub(crate) fn add(&mut self, round: &WorkerStats) {
        self.sat_calls += round.sat_calls;
        self.sat_unsat += round.sat_unsat;
        self.sat_cex += round.sat_cex;
        self.sat_cex_work.add(&round.sat_cex_work);
        self.sat_unsat_work.add(&round.sat_unsat_work);
        self.conflicts += round.conflicts;
        self.merges += round.merges;
        self.lemmas += round.lemmas;
        self.elapsed += round.elapsed;
        self.conflict_hist.merge(&round.conflict_hist);
        self.lemma_chain_hist.merge(&round.lemma_chain_hist);
    }
}

impl fmt::Display for WorkerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sat={}({}u/{}c) conflicts={} merges={} lemmas={} time={:.3}s",
            self.sat_calls,
            self.sat_unsat,
            self.sat_cex,
            self.conflicts,
            self.merges,
            self.lemmas,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Per-engine dispatch counters of the adaptive scheduler (see
/// [`crate::EngineSelect::Adaptive`]): how candidate pairs were routed
/// between the BDD probe and budgeted/unbudgeted SAT, and how the
/// end-of-round hard queue was used. Absent under static scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DispatchStats {
    /// Whole-miter static hardness score in `[0, 1]`.
    pub score: f64,
    /// Pairs dispatched to SAT under an adaptive conflict budget.
    pub sat_budgeted: u64,
    /// Pairs dispatched to SAT without a budget (BDD-confirmed pairs
    /// and unbudgeted hard-queue retries).
    pub sat_unbudgeted: u64,
    /// Cone-bounded BDD probes attempted.
    pub bdd_calls: u64,
    /// Probes that refuted the pair (refinement without a SAT call).
    pub bdd_refuted: u64,
    /// Probes that confirmed equivalence (SAT then runs unbudgeted to
    /// extract the lemma).
    pub bdd_confirmed: u64,
    /// Probes abandoned on node-limit overflow.
    pub bdd_overflow: u64,
    /// Pairs whose budget ran out, deferred to the hard queue.
    pub deferred: u64,
    /// Hard-queue pairs retried after the main sweep.
    pub retried: u64,
    /// Smallest conflict budget issued (0 when none were).
    pub budget_min: u64,
    /// Largest conflict budget issued.
    pub budget_max: u64,
    /// Worker learnt clauses exported through the clause feed (parallel
    /// sweep with learnt-clause sharing enabled).
    pub learnts_shared: u64,
    /// Shared learnt clauses imported by workers from the feed (each
    /// shared clause is imported by every worker except its origin).
    pub learnts_imported: u64,
}

impl DispatchStats {
    /// Adds a discharger's counters (budgets issued, BDD probes, learnt
    /// imports) into these; the scheduler-side fields stay untouched.
    pub(crate) fn absorb(&mut self, d: &DispatchStats) {
        self.sat_budgeted += d.sat_budgeted;
        self.sat_unbudgeted += d.sat_unbudgeted;
        self.bdd_calls += d.bdd_calls;
        self.bdd_refuted += d.bdd_refuted;
        self.bdd_confirmed += d.bdd_confirmed;
        self.bdd_overflow += d.bdd_overflow;
        self.learnts_imported += d.learnts_imported;
        if d.budget_min != 0 && (self.budget_min == 0 || d.budget_min < self.budget_min) {
            self.budget_min = d.budget_min;
        }
        self.budget_max = self.budget_max.max(d.budget_max);
    }
}

impl fmt::Display for DispatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "score={:.3} sat={}b/{}u bdd={}({}r/{}c/{}o) deferred={} retried={} budget={}..{} learnts={}s/{}i",
            self.score,
            self.sat_budgeted,
            self.sat_unbudgeted,
            self.bdd_calls,
            self.bdd_refuted,
            self.bdd_confirmed,
            self.bdd_overflow,
            self.deferred,
            self.retried,
            self.budget_min,
            self.budget_max,
            self.learnts_shared,
            self.learnts_imported
        )
    }
}

/// Counters describing one run of the equivalence checker, as printed in
/// the experiment tables.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Nodes in the combined miter graph (including difference logic).
    pub miter_nodes: usize,
    /// Nodes belonging to the two circuit cones only.
    pub circuit_nodes: usize,
    /// Initial candidate equivalence classes from simulation.
    pub initial_classes: usize,
    /// Initial candidate nodes (members of live classes).
    pub initial_candidates: usize,
    /// SAT calls issued by the sweeper.
    pub sat_calls: u64,
    /// SAT calls that returned UNSAT (a lemma).
    pub sat_unsat: u64,
    /// SAT calls that returned a counterexample.
    pub sat_cex: u64,
    /// Decisions, propagations and time of the counterexample calls
    /// (parallel runs fold every worker's block in here). Calls cut off
    /// by a conflict budget count in neither this nor
    /// [`EngineStats::sat_unsat_work`].
    pub sat_cex_work: SatWork,
    /// Decisions, propagations and time of the UNSAT calls.
    pub sat_unsat_work: SatWork,
    /// Class refinement rounds triggered by counterexamples.
    pub refinements: u64,
    /// Merges discharged purely by structural-hash resolution.
    pub structural_merges: u64,
    /// Candidate pairs skipped because the per-pair conflict budget
    /// ran out (always zero without a budget).
    pub pairs_skipped: u64,
    /// Equivalence lemmas committed to the clause database.
    pub lemmas: u64,
    /// Proof size before trimming (if proofs were recorded).
    pub proof: Option<ProofStats>,
    /// Proof size after backward trimming (if a refutation was trimmed).
    pub trimmed: Option<ProofStats>,
    /// Sweep rounds executed by the parallel engine (zero when the
    /// sequential single-pass sweep ran).
    pub rounds: u64,
    /// Per-worker counters of the parallel sweep (empty when the
    /// sequential sweep ran).
    pub workers: Vec<WorkerStats>,
    /// SAT-solver counters, aggregated over all calls.
    pub solver: SolverStats,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
    /// Wall-clock time spent checking the proof, when verification ran.
    pub check_elapsed: Option<Duration>,
    /// Per-phase wall-clock breakdown of [`EngineStats::elapsed`].
    pub phases: PhaseTimes,
    /// Distribution of CDCL conflicts per sweeping SAT call (parallel
    /// runs merge every worker's histogram in here).
    pub sat_conflict_hist: LogHistogram,
    /// Distribution of resolution-chain lengths per committed
    /// equivalence lemma (empty with proof logging off).
    pub lemma_chain_hist: LogHistogram,
    /// Proof lengths recorded around the parallel sweep: the length when
    /// the sweep began, then after each round's merge phase. Empty for
    /// sequential runs or with proof logging off. Feeds the lint pass's
    /// stitch-boundary consistency check (RP007).
    pub stitch_boundaries: Vec<u32>,
    /// Diagnostic counts from the proof lint pass, when
    /// [`crate::EngineConfig::lint_proof`] ran.
    pub lints: Option<lint::LintCounts>,
    /// Per-engine dispatch counters, present when the adaptive
    /// scheduler ran (see [`crate::EngineSelect`]).
    pub dispatch: Option<DispatchStats>,
    /// Pairs-per-worker window used in each parallel round. With
    /// auto-tuning ([`crate::EngineConfig::pairs_per_worker`] `= None`)
    /// the trajectory shows the tuner reacting to round imbalance; with
    /// a fixed override every entry repeats the override.
    pub pair_windows: Vec<u32>,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} classes={} sat={}({}u/{}c) struct={} lemmas={}",
            self.miter_nodes,
            self.initial_classes,
            self.sat_calls,
            self.sat_unsat,
            self.sat_cex,
            self.structural_merges,
            self.lemmas
        )
    }
}

/// A proof-carrying "equivalent" verdict.
#[derive(Debug)]
pub struct Certificate {
    /// The recorded resolution refutation of the miter (present when
    /// proof logging was enabled). Contains the empty clause.
    pub proof: Option<Proof>,
    /// The empty clause's step id inside [`Certificate::proof`].
    pub empty_clause: Option<ClauseId>,
    /// Craig-interpolation partition of the original proof clauses:
    /// which side of the miter each input clause encodes. Present only
    /// when the engine ran with proofs on and *without* cross-circuit
    /// structural sharing (shared nodes would make sides ambiguous).
    pub partition: Option<Vec<(ClauseId, cnf::tseitin::Partition)>>,
    /// Run counters.
    pub stats: EngineStats,
    /// The proof lint report, when [`crate::EngineConfig::lint_proof`]
    /// ran (its counts are also in [`EngineStats::lints`]).
    pub lint_report: Option<lint::Report>,
}

impl Certificate {
    /// Extracts a Craig interpolant between the two circuits from the
    /// recorded refutation (McMillan's construction): a circuit over the
    /// shared proof variables implied by circuit A's encoding and
    /// inconsistent with circuit B's side of the miter.
    ///
    /// Returns `None` when the certificate has no proof or no clause
    /// partition (the engine must run with proofs on and, for the
    /// sweeping engine, with `share_structure = false`).
    ///
    /// # Errors
    ///
    /// Forwards [`proof::check::CheckError`] if the recorded proof does
    /// not replay (an engine bug).
    pub fn interpolant(
        &self,
    ) -> Option<Result<proof::interpolate::Interpolant, proof::check::CheckError>> {
        let p = self.proof.as_ref()?;
        let partition = self.partition.as_ref()?;
        let root = self.empty_clause?;
        let a_side: std::collections::HashSet<ClauseId> = partition
            .iter()
            .filter(|(_, side)| *side == cnf::tseitin::Partition::A)
            .map(|(id, _)| *id)
            .collect();
        Some(proof::interpolate::interpolant(p, root, |id| {
            !a_side.contains(&id)
        }))
    }

    /// The certificate's metadata in the artifact-neutral form consumed
    /// by `lint::lint_bundle` and serialized as a `.cert` file: the
    /// empty-clause step id, the parallel-round count with its stitch
    /// boundaries, and the proof's step counts.
    pub fn info(&self) -> lint::CertificateInfo {
        lint::CertificateInfo {
            empty_clause: self.empty_clause.map(ClauseId::index),
            rounds: Some(self.stats.rounds),
            stitch_boundaries: self.stats.stitch_boundaries.clone(),
            original: self.proof.as_ref().map(Proof::num_original),
            derived: self.proof.as_ref().map(Proof::num_derived),
            resolutions: self.proof.as_ref().map(Proof::num_resolutions),
        }
    }
}

/// A concrete input pattern on which the two circuits differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing input pattern (one bool per primary input).
    pub pattern: Vec<bool>,
    /// Circuit A's outputs on the pattern.
    pub outputs_a: Vec<bool>,
    /// Circuit B's outputs on the pattern.
    pub outputs_b: Vec<bool>,
}

/// Outcome of an equivalence check.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // the hot variant is boxed; stats stay inline for ergonomics
pub enum CecOutcome {
    /// The circuits are equivalent; the certificate carries the proof.
    Equivalent(Box<Certificate>),
    /// The circuits differ; here is a witness.
    Inequivalent {
        /// The distinguishing assignment.
        counterexample: Counterexample,
        /// Run counters.
        stats: EngineStats,
    },
}

impl CecOutcome {
    /// Whether the verdict is "equivalent".
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecOutcome::Equivalent(_))
    }

    /// The run counters of either verdict.
    pub fn stats(&self) -> &EngineStats {
        match self {
            CecOutcome::Equivalent(c) => &c.stats,
            CecOutcome::Inequivalent { stats, .. } => stats,
        }
    }

    /// The certificate, if equivalent.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            CecOutcome::Equivalent(c) => Some(c),
            CecOutcome::Inequivalent { .. } => None,
        }
    }

    /// The counterexample, if inequivalent.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            CecOutcome::Equivalent(_) => None,
            CecOutcome::Inequivalent { counterexample, .. } => Some(counterexample),
        }
    }
}

/// Why an equivalence check could not run or could not be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecError {
    /// The circuits do not have the same interface.
    InterfaceMismatch {
        /// `(inputs, outputs)` of circuit A.
        a: (usize, usize),
        /// `(inputs, outputs)` of circuit B.
        b: (usize, usize),
    },
    /// The circuits have no outputs to compare.
    NoOutputs,
    /// The emitted proof failed independent checking — an engine bug,
    /// never the caller's fault.
    ProofRejected(proof::check::CheckError),
    /// The claimed counterexample does not distinguish the circuits —
    /// an engine bug, never the caller's fault.
    BogusCounterexample(Counterexample),
    /// An injected crash fired at the named phase checkpoint. Only ever
    /// produced when the caller armed a [`crate::journal::CrashPoint`];
    /// the write-ahead journal is synced up to this checkpoint, so a
    /// subsequent resume continues from it.
    CrashInjected {
        /// The phase whose checkpoint fired (`"miter"`, `"sim"`,
        /// `"round"`, `"sweep"`, `"final_solve"`, `"trim"`).
        phase: String,
        /// 1-based occurrence of that phase at which the crash fired.
        hit: u32,
    },
    /// The write-ahead journal could not be written, read, or trusted
    /// (I/O failure, mid-file corruption, or a header that does not
    /// match the inputs/options being resumed).
    Journal(String),
    /// During resume, deterministic re-execution produced a checkpoint
    /// that differs from the journaled record with the same sequence
    /// number — the inputs, options, or journal are not what they claim
    /// to be.
    ReplayDivergence {
        /// Sequence number of the mismatching journal record.
        seq: u64,
        /// Human-readable account of the mismatch.
        detail: String,
    },
}

impl fmt::Display for CecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecError::InterfaceMismatch { a, b } => write!(
                f,
                "interface mismatch: a has {}i/{}o, b has {}i/{}o",
                a.0, a.1, b.0, b.1
            ),
            CecError::NoOutputs => write!(f, "circuits have no outputs to compare"),
            CecError::ProofRejected(e) => write!(f, "emitted proof rejected by checker: {e}"),
            CecError::BogusCounterexample(_) => {
                write!(
                    f,
                    "claimed counterexample does not distinguish the circuits"
                )
            }
            CecError::CrashInjected { phase, hit } => {
                write!(f, "injected crash at phase `{phase}` (hit {hit})")
            }
            CecError::Journal(msg) => write!(f, "journal error: {msg}"),
            CecError::ReplayDivergence { seq, detail } => {
                write!(f, "resume diverged from journal at seq {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for CecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CecError::ProofRejected(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        let e = CecError::InterfaceMismatch {
            a: (2, 1),
            b: (3, 1),
        };
        assert!(format!("{e}").contains("2i/1o"));
        assert!(format!("{}", CecError::NoOutputs).contains("no outputs"));
    }

    #[test]
    fn outcome_accessors() {
        let stats = EngineStats::default();
        let cex = Counterexample {
            pattern: vec![true],
            outputs_a: vec![true],
            outputs_b: vec![false],
        };
        let o = CecOutcome::Inequivalent {
            counterexample: cex.clone(),
            stats,
        };
        assert!(!o.is_equivalent());
        assert_eq!(o.counterexample(), Some(&cex));
        assert!(o.certificate().is_none());
    }

    #[test]
    fn stats_display_compact() {
        let s = EngineStats::default();
        let text = format!("{s}");
        assert!(text.contains("sat=0"));
    }
}
