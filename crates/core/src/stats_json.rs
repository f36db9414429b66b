//! Machine-readable serialization of the engine's run counters.
//!
//! [`EngineStats::to_json`] renders the full stats tree — engine
//! counters, per-phase wall-clock breakdown, per-call histograms,
//! solver / proof / lint counters, and per-worker stats — as an
//! [`obs::json::Value`] for the CLI's `--stats-json` flag and the
//! bench harness. Durations are integer microseconds (`*_us` keys):
//! lossless, deterministic, and diffable across runs.

use crate::outcome::{DispatchStats, EngineStats, PhaseTimes, SatWork, WorkerStats};
use obs::json::Value;
use proof::ProofStats;
use sat::SolverStats;
use std::time::Duration;

fn us(d: Duration) -> Value {
    Value::U64(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn phases_json(p: &PhaseTimes) -> Value {
    obj(vec![
        ("miter_us", us(p.miter)),
        ("sim_us", us(p.sim)),
        ("sweep_us", us(p.sweep)),
        ("final_solve_us", us(p.final_solve)),
        ("trim_us", us(p.trim)),
        ("check_us", us(p.check)),
        ("lint_us", us(p.lint)),
        ("sum_us", us(p.sum())),
    ])
}

fn solver_json(s: &SolverStats) -> Value {
    obj(vec![
        ("conflicts", Value::U64(s.conflicts)),
        ("decisions", Value::U64(s.decisions)),
        ("propagations", Value::U64(s.propagations)),
        ("restarts", Value::U64(s.restarts)),
        ("learnt", Value::U64(s.learnt)),
        ("deleted", Value::U64(s.deleted)),
        ("solves", Value::U64(s.solves)),
    ])
}

fn sat_work_json(w: &SatWork) -> Value {
    obj(vec![
        ("calls", Value::U64(w.calls)),
        ("decisions", Value::U64(w.decisions)),
        ("propagations", Value::U64(w.propagations)),
        ("elapsed_us", us(w.elapsed)),
    ])
}

fn proof_json(p: &ProofStats) -> Value {
    obj(vec![
        ("original", Value::U64(p.original as u64)),
        ("derived", Value::U64(p.derived as u64)),
        ("resolutions", Value::U64(p.resolutions)),
        ("max_width", Value::U64(p.max_width as u64)),
        ("total_literals", Value::U64(p.total_literals)),
        ("max_chain", Value::U64(p.max_chain as u64)),
    ])
}

fn lints_json(l: &lint::LintCounts) -> Value {
    obj(vec![
        ("errors", Value::U64(l.errors as u64)),
        ("warnings", Value::U64(l.warnings as u64)),
        ("infos", Value::U64(l.infos as u64)),
    ])
}

fn dispatch_json(d: &DispatchStats) -> Value {
    obj(vec![
        ("score", Value::F64(d.score)),
        ("sat_budgeted", Value::U64(d.sat_budgeted)),
        ("sat_unbudgeted", Value::U64(d.sat_unbudgeted)),
        ("bdd_calls", Value::U64(d.bdd_calls)),
        ("bdd_refuted", Value::U64(d.bdd_refuted)),
        ("bdd_confirmed", Value::U64(d.bdd_confirmed)),
        ("bdd_overflow", Value::U64(d.bdd_overflow)),
        ("deferred", Value::U64(d.deferred)),
        ("retried", Value::U64(d.retried)),
        ("budget_min", Value::U64(d.budget_min)),
        ("budget_max", Value::U64(d.budget_max)),
        ("learnts_shared", Value::U64(d.learnts_shared)),
        ("learnts_imported", Value::U64(d.learnts_imported)),
    ])
}

impl WorkerStats {
    /// The worker's counters as a JSON object.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("sat_calls", Value::U64(self.sat_calls)),
            ("sat_unsat", Value::U64(self.sat_unsat)),
            ("sat_cex", Value::U64(self.sat_cex)),
            ("sat_cex_work", sat_work_json(&self.sat_cex_work)),
            ("sat_unsat_work", sat_work_json(&self.sat_unsat_work)),
            ("conflicts", Value::U64(self.conflicts)),
            ("merges", Value::U64(self.merges)),
            ("lemmas", Value::U64(self.lemmas)),
            ("elapsed_us", us(self.elapsed)),
            ("conflict_hist", self.conflict_hist.to_json()),
            ("lemma_chain_hist", self.lemma_chain_hist.to_json()),
        ])
    }
}

impl EngineStats {
    /// The full stats tree as a JSON object — the payload of the CLI's
    /// `--stats-json` flag.
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("schema", Value::str("stats-v1")),
            ("miter_nodes", Value::U64(self.miter_nodes as u64)),
            ("circuit_nodes", Value::U64(self.circuit_nodes as u64)),
            ("initial_classes", Value::U64(self.initial_classes as u64)),
            (
                "initial_candidates",
                Value::U64(self.initial_candidates as u64),
            ),
            ("sat_calls", Value::U64(self.sat_calls)),
            ("sat_unsat", Value::U64(self.sat_unsat)),
            ("sat_cex", Value::U64(self.sat_cex)),
            ("sat_cex_work", sat_work_json(&self.sat_cex_work)),
            ("sat_unsat_work", sat_work_json(&self.sat_unsat_work)),
            ("refinements", Value::U64(self.refinements)),
            ("structural_merges", Value::U64(self.structural_merges)),
            ("pairs_skipped", Value::U64(self.pairs_skipped)),
            ("lemmas", Value::U64(self.lemmas)),
            ("rounds", Value::U64(self.rounds)),
            ("elapsed_us", us(self.elapsed)),
            ("phases", phases_json(&self.phases)),
            ("sat_conflict_hist", self.sat_conflict_hist.to_json()),
            ("lemma_chain_hist", self.lemma_chain_hist.to_json()),
            ("solver", solver_json(&self.solver)),
        ];
        if let Some(d) = self.check_elapsed {
            members.push(("check_elapsed_us", us(d)));
        }
        if let Some(p) = &self.proof {
            members.push(("proof", proof_json(p)));
        }
        if let Some(t) = &self.trimmed {
            members.push(("trimmed", proof_json(t)));
        }
        if !self.workers.is_empty() {
            members.push((
                "workers",
                Value::Array(self.workers.iter().map(WorkerStats::to_json).collect()),
            ));
        }
        if !self.stitch_boundaries.is_empty() {
            members.push((
                "stitch_boundaries",
                Value::Array(
                    self.stitch_boundaries
                        .iter()
                        .map(|&b| Value::U64(u64::from(b)))
                        .collect(),
                ),
            ));
        }
        if let Some(l) = &self.lints {
            members.push(("lints", lints_json(l)));
        }
        if let Some(d) = &self.dispatch {
            members.push(("dispatch", dispatch_json(d)));
        }
        if !self.pair_windows.is_empty() {
            members.push((
                "pair_windows",
                Value::Array(
                    self.pair_windows
                        .iter()
                        .map(|&w| Value::U64(u64::from(w)))
                        .collect(),
                ),
            ));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    #[test]
    fn engine_stats_display_golden() {
        let s = EngineStats {
            miter_nodes: 12,
            initial_classes: 3,
            sat_calls: 7,
            sat_unsat: 6,
            sat_cex: 1,
            structural_merges: 2,
            lemmas: 6,
            ..EngineStats::default()
        };
        assert_eq!(
            format!("{s}"),
            "nodes=12 classes=3 sat=7(6u/1c) struct=2 lemmas=6"
        );
    }

    #[test]
    fn worker_stats_display_golden() {
        let w = WorkerStats {
            sat_calls: 4,
            sat_unsat: 3,
            sat_cex: 1,
            conflicts: 17,
            merges: 1,
            lemmas: 2,
            elapsed: Duration::from_millis(1500),
            ..WorkerStats::default()
        };
        assert_eq!(
            format!("{w}"),
            "sat=4(3u/1c) conflicts=17 merges=1 lemmas=2 time=1.500s"
        );
    }

    #[test]
    fn phase_times_display_golden() {
        let p = PhaseTimes {
            miter: Duration::from_millis(1),
            sim: Duration::from_millis(2),
            sweep: Duration::from_millis(500),
            final_solve: Duration::from_millis(40),
            ..PhaseTimes::default()
        };
        assert_eq!(
            format!("{p}"),
            "miter=0.001s sim=0.002s sweep=0.500s final=0.040s trim=0.000s check=0.000s lint=0.000s"
        );
        assert_eq!(p.sum(), Duration::from_millis(543));
    }

    #[test]
    fn stats_json_round_trips_with_phase_keys() {
        let mut s = EngineStats {
            sat_calls: 3,
            elapsed: Duration::from_micros(1234),
            phases: PhaseTimes {
                miter: Duration::from_micros(200),
                sweep: Duration::from_micros(900),
                ..PhaseTimes::default()
            },
            check_elapsed: Some(Duration::from_micros(55)),
            sat_cex_work: SatWork {
                calls: 2,
                decisions: 5,
                propagations: 40,
                elapsed: Duration::from_micros(300),
            },
            ..EngineStats::default()
        };
        s.sat_conflict_hist.record(0);
        s.sat_conflict_hist.record(9);
        s.workers.push(WorkerStats {
            sat_calls: 3,
            elapsed: Duration::from_micros(700),
            ..WorkerStats::default()
        });
        s.stitch_boundaries = vec![10, 20];

        let text = s.to_json().to_string();
        let v = parse(&text).expect("stats JSON parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("stats-v1"));
        assert_eq!(v.get("sat_calls").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("elapsed_us").and_then(Value::as_u64), Some(1234));
        let phases = v.get("phases").expect("phase breakdown present");
        for key in [
            "miter_us",
            "sim_us",
            "sweep_us",
            "final_solve_us",
            "trim_us",
            "check_us",
            "lint_us",
            "sum_us",
        ] {
            assert!(phases.get(key).is_some(), "missing phase key {key}");
        }
        assert_eq!(phases.get("miter_us").and_then(Value::as_u64), Some(200));
        assert_eq!(phases.get("sum_us").and_then(Value::as_u64), Some(1100));
        assert_eq!(
            v.get("sat_conflict_hist")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("check_elapsed_us").and_then(Value::as_u64), Some(55));
        let cex = v.get("sat_cex_work").expect("per-verdict work block");
        for (key, want) in [
            ("calls", 2),
            ("decisions", 5),
            ("propagations", 40),
            ("elapsed_us", 300),
        ] {
            assert_eq!(cex.get(key).and_then(Value::as_u64), Some(want), "{key}");
        }
        assert_eq!(
            v.get("sat_unsat_work")
                .and_then(|w| w.get("calls"))
                .and_then(Value::as_u64),
            Some(0)
        );
        let workers = v.get("workers").and_then(Value::as_array).unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("elapsed_us").and_then(Value::as_u64),
            Some(700)
        );
        assert_eq!(
            v.get("stitch_boundaries")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        // Proof/lint blocks are absent when the run had none.
        assert!(v.get("proof").is_none());
        assert!(v.get("lints").is_none());
    }
}
